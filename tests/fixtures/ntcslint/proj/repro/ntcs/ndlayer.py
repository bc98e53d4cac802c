"""Seeded PERF001 violations: this file's module name resolves to
repro.ntcs.ndlayer — a data-plane hot-path module — so per-frame
Scheduler.post loops in it must fire."""


class BadNdLayer:
    def __init__(self, scheduler):
        self.scheduler = scheduler

    def deliver_all(self, frames):
        for frame in frames:
            self.scheduler.post(0.0, lambda f=frame: f)       # PERF001

    def requeue(self, scheduler, frames):
        while frames:
            scheduler.schedule(0.1, frames.pop)               # PERF001

    def one_shot(self, frame):
        # A single post outside any loop is the sanctioned shape.
        self.scheduler.post(0.0, lambda: frame)
