"""Seeded PERF002 violations: this file's module name resolves to
repro.ipcs.bad_notes — a substrate module — so a note formatted per
segment fires, however it is built (and every event here is ONE005)."""


class BadIpcs:
    def __init__(self, scheduler):
        self.scheduler = scheduler

    def send_segment(self, seq, on_timeout):
        self.scheduler.schedule(0.009, on_timeout,
                                note=f"tcp rto seq={seq}")    # PERF002
        self.scheduler.call_soon(on_timeout, "flush %d" % seq)    # PERF002
        self.scheduler.call_soon(
            on_timeout, note="ack {}".format(seq))            # PERF002

    def sanctioned(self, on_timeout):
        # Constant notes — positional, keyword, or a placeholder-free
        # f-string — and no note at all pass PERF002.
        self.scheduler.schedule(0.009, on_timeout, note="tcp rto")
        self.scheduler.call_soon(on_timeout, f"tcp rx flush")
        self.scheduler.call_soon(on_timeout)
