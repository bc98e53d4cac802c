ivc.state = "FAILED"                # ONE008: only protocol.step moves it (§3)
lvc.state = ivc.state                               # ONE008
is_open = lvc.state == "OPEN"                       # a read
