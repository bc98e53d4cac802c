"""Seeded ONE005 violations: this file's module name resolves to
repro.ntcs.ndlayer — the netsim owns the one delivery event per train —
so every scheduler.schedule / call_soon in it fires, looped or not."""


class BadNdLayer:
    def __init__(self, scheduler):
        self.scheduler = scheduler

    def deliver_all(self, frames):
        for frame in frames:
            self.scheduler.call_soon(lambda f=frame: f)       # ONE005

    def requeue(self, scheduler, frames):
        while frames:
            scheduler.schedule(0.1, frames.pop)               # ONE005

    def one_shot(self, frame):
        # A single event outside any loop is one event too many.
        self.scheduler.call_soon(lambda: frame)                # ONE005
