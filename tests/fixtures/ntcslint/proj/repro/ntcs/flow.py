ok = msg.kind == DATA and not msg.internal  # one flag: fine (ONE003, §12)
bad = not msg.internal and not msg.is_reply         # ONE003
def send(msg):
    if not msg.internal:
        if not msg.is_reply:                        # ONE003
            debit()
    if msg.is_reply:
        return
    if not msg.flags & (FLAG_INTERNAL | FLAG_IS_REPLY):     # ONE003
        debit()
