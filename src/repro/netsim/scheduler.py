"""Reentrant discrete-event scheduler with a virtual clock.

Every asynchronous action in the reproduction — a datagram in flight, a
channel-close detection delay, a periodic time-service refresh — is an
:class:`Event` on one global :class:`Scheduler`.

The essential property is **reentrancy**.  The paper's Nucleus is
passive: a module's send blocks until complete, and while it is blocked
the rest of the distributed system keeps running (the Name Server
answers, gateways splice circuits, the monitor collects data).  Here a
blocking call is :meth:`Scheduler.pump_until`: it pops and runs queued
events until its predicate holds.  A handler run by the pump may itself
call ``pump_until`` — a nested, deeper pump over the same queue.  That
is exactly the recursive control structure of Sec. 6 of the paper, and
it is what lets a Name-Server request issued *from inside* a send be
served before the send completes.

Storage is one :class:`EventQueue` (PROTOCOL.md §11): a ``heapq`` of
``(time, seq, event)`` tuples, the one event store of both clocks — the
wall-clock :class:`~repro.realnet.kernel.RealtimeKernel` drives the
same class.  Events run in the total order ``(time, seq)``; ``seq`` is
unique, so tuple comparison settles every tie in C and never reaches an
:class:`Event`.  Cancellation is accounted eagerly, so ``pending()`` is
O(1), and the queue rebuilds itself without its corpses once they
outnumber the live events.

Every consumer — :meth:`Scheduler.step`, :meth:`Scheduler.run_for`,
:meth:`Scheduler.pump_until` — takes events through the one fused step
:meth:`EventQueue.pop_due`: the head comes off only if it is due by the
caller's deadline.

This is the only module in the tree allowed to import ``heapq``
(ntcslint DET006): a private heap is a second event queue outside the
total order and the cancellation accounting.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.util.trace import Label, label_text

__all__ = ["Event", "EventQueue", "Scheduler"]

_NO_DEADLINE = float("inf")

#: Corpses an :class:`EventQueue` may hold before it considers a
#: rebuild; past this it compacts whenever they outnumber live events.
COMPACT_THRESHOLD = 64


class Event:
    """A scheduled callback.  Returned by the drivers' ``schedule`` so
    callers can cancel it."""

    __slots__ = ("time", "seq", "callback", "note", "cancelled", "_queue")

    def __init__(self, time: float, seq: int,
                 callback: Callable[[], None], note: str):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.note = note
        self.cancelled = False
        self._queue: Optional[EventQueue] = None

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call twice."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._note_cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state}, note={self.note!r})"


class EventQueue:
    """One heap of ``(time, seq, event)`` entries with O(1) live/
    cancelled accounting.

    The queue never invokes callbacks and never reads a clock: drivers
    own sequence allocation, the clock and execution.
    """

    __slots__ = ("_heap", "_live", "_cancelled", "compactions")

    def __init__(self):
        self._heap: List[Tuple[float, int, Event]] = []
        self._live = 0
        self._cancelled = 0
        self.compactions = 0

    @property
    def live(self) -> int:
        """Not-yet-cancelled events held."""
        return self._live

    @property
    def cancelled_held(self) -> int:
        """Cancelled events still in the heap (until popped or compacted)."""
        return self._cancelled

    def push(self, event: Event) -> None:
        """File an event by its ``(time, seq)``."""
        event._queue = self
        self._live += 1
        heappush(self._heap, (event.time, event.seq, event))

    def peek(self) -> Optional[Event]:
        """The earliest live event, or None.  Does not remove it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][2] if heap else None

    def pop_due(self, deadline: float) -> Optional[Event]:
        """Remove and return the earliest live event if its time is at or
        before ``deadline``.  None means nothing is due: the queue is
        empty, or its head is later and stays put.  An infinite deadline
        is a plain pop."""
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            if time > deadline:
                return None
            heappop(heap)
            self._live -= 1
            event._queue = None
            return event
        return None

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` while the event is held here."""
        self._live -= 1
        self._cancelled += 1
        if (self._cancelled > COMPACT_THRESHOLD
                and self._cancelled > self._live):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries: O(n), so
        amortized O(1) per cancel."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1


class Scheduler:
    """The global event queue and virtual clock.

    Args:
        max_events: hard ceiling on total events processed, a backstop
            against runaway feedback loops (the reproduction's analogue
            of a hung testbed).
    """

    def __init__(self, max_events: int = 5_000_000):
        self._queue = EventQueue()
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        self._max_events = max_events
        self._pump_depth = 0
        self.max_pump_depth_seen = 0

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pump_depth(self) -> int:
        """How many nested blocking pumps are currently active."""
        return self._pump_depth

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def queue(self) -> EventQueue:
        """The underlying event queue (stats: corpses held, compactions)."""
        return self._queue

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None],
                 note: str = "") -> Event:
        """Schedule ``callback`` to run ``delay`` virtual seconds from
        now.  Returns a cancellable handle.  The delay must be finite and
        non-negative: NaN would break the total order, and an infinite
        delay would run at t = inf under an unbounded pump."""
        if not 0.0 <= delay < _NO_DEADLINE:
            raise SimulationError(
                f"delay must be finite and non-negative, got {delay}")
        self._seq += 1
        event = Event(self._now + delay, self._seq, callback, note)
        self._queue.push(event)
        return event

    def call_soon(self, callback: Callable[[], None], note: str = "") -> Event:
        """Schedule ``callback`` at the current virtual time (after any
        already-queued events at this time)."""
        return self.schedule(0.0, callback, note)

    # -- execution --------------------------------------------------------

    def _run_due(self, deadline: float) -> bool:
        """Pop and run the earliest event if it is due by ``deadline``.
        Returns False when nothing is."""
        event = self._queue.pop_due(deadline)
        if event is None:
            return False
        if event.time < self._now:
            raise SimulationError(
                f"event time {event.time} precedes clock {self._now}"
            )
        self._now = event.time
        self._processed += 1
        if self._processed > self._max_events:
            raise SimulationError(
                f"event budget exceeded ({self._max_events}); "
                "probable runaway feedback loop"
            )
        event.callback()
        return True

    def step(self) -> bool:
        """Run the single earliest pending event.  Returns False when the
        queue is empty."""
        return self._run_due(_NO_DEADLINE)

    def run_until_idle(self, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains; returns how many ran."""
        ran = 0
        while max_events is None or ran < max_events:
            if not self.step():
                break
            ran += 1
        return ran

    def run_for(self, duration: float) -> int:
        """Run events whose time is within ``duration`` from now, then
        advance the clock to exactly now + duration.  Returns the number
        of events run."""
        deadline = self._now + duration
        ran = 0
        while self._run_due(deadline):
            ran += 1
        self._now = max(self._now, deadline)
        return ran

    def pump_until(
        self,
        predicate: Callable[[], bool],
        timeout: Optional[float] = None,
        what: Label = "",
    ) -> bool:
        """Block (in simulation terms) until ``predicate()`` is true.

        Runs queued events — possibly reentrantly, from inside another
        pump — until the predicate holds.  Returns True on success.

        With a ``timeout`` (virtual seconds from now), the clock is
        advanced to the deadline and False is returned if the predicate
        never held.  Without one, an empty queue with a false predicate
        raises :class:`DeadlockError`, since no future event could ever
        change the outcome; its message names ``what``, built only then.
        """
        deadline = _NO_DEADLINE if timeout is None else self._now + timeout
        run_due = self._run_due
        self._pump_depth += 1
        self.max_pump_depth_seen = max(self.max_pump_depth_seen, self._pump_depth)
        try:
            while True:
                if predicate():
                    return True
                if not run_due(deadline):
                    break
        finally:
            self._pump_depth -= 1
        if timeout is None:
            raise DeadlockError(
                f"pump_until({label_text(what) or 'predicate'}): event "
                "queue empty and predicate false — nothing can unblock "
                "this call"
            )
        # Nothing (left) is due by the deadline; a later head stays in
        # place — it belongs to whoever pumps next.
        self._now = max(self._now, deadline)
        return False

    def wait(self, duration: float) -> None:
        """Blockingly let ``duration`` virtual seconds elapse, running any
        events that fall inside the window (a pump with an always-false
        predicate)."""
        ok = self.pump_until(lambda: False, timeout=duration, what="wait")
        if ok:  # pragma: no cover - predicate is constant False
            raise SimulationError("wait() predicate unexpectedly true")

    def pending(self) -> int:
        """Number of not-yet-cancelled queued events.  O(1): the queue
        accounts for cancellations eagerly."""
        return self._queue.live
