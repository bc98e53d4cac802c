"""Seeded PERF002 violations: this file's module name resolves to
repro.ipcs.bad_notes — a substrate module — so formatting an event note
per segment must fire, however the string is built."""


class BadIpcs:
    def __init__(self, scheduler):
        self.scheduler = scheduler

    def send_segment(self, seq, on_timeout):
        self.scheduler.schedule(0.009, on_timeout,
                                note=f"tcp rto seq={seq}")    # PERF002
        self.scheduler.post(0.0, on_timeout, "flush %d" % seq)    # PERF002
        self.scheduler.post(
            0.0, on_timeout, note="ack {}".format(seq))       # PERF002

    def sanctioned(self, on_timeout):
        # Constant notes — positional, keyword, or a placeholder-free
        # f-string — and no note at all are all fine.
        self.scheduler.schedule(0.009, on_timeout, note="tcp rto")
        self.scheduler.post(0.0, on_timeout, f"tcp rx flush")
        self.scheduler.post(0.0, on_timeout)
