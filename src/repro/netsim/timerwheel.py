"""The shared event core: a hierarchical timer wheel.

Both clocks of the reproduction drive their events through this module:
the virtual-time :class:`~repro.netsim.scheduler.Scheduler` and the
wall-clock :class:`~repro.realnet.kernel.RealtimeKernel` are thin
drivers over one :class:`TimerWheel` (one clock abstraction, two
drivers — PROTOCOL.md §11).

Why a wheel.  The original core kept every pending event in a single
``heapq`` of :class:`Event` objects.  Each push/pop paid O(log n)
*Python-level* ``__lt__`` calls, ``pending()`` was an O(n) scan, and a
cancelled retry timer — the single most common event fate on the
message hot path — sat in the heap until its time came up, still
paying comparisons on every operation that sifted past it.  At 10,000
modules the substrate, not the protocol, was the ceiling.

The wheel routes events into coarse buckets keyed on quantized time
(``slot = int(time / quantum)``) and keeps three tiers:

* ``_ready`` — a heap of ``(time, seq, event)`` tuples holding every
  event at or before the **cursor** slot.  Tuple comparison stays in
  C; Python ``__lt__`` never runs on the hot path.
* ``_buckets`` — plain unsorted lists for slots inside the wheel
  window.  An event landing here costs one ``list.append``.  A bucket
  is heapified wholesale (C-level) only when the cursor reaches it.
* ``_overflow`` — a heap for events beyond the window (keepalives,
  far-future deadlines).  They cascade toward ``_ready`` lazily, as
  the cursor advances — idle-module timers cost nothing per tick.

**Determinism contract.**  Events run in exactly the total order
``(time, seq)``, bit-identical to the old single heap: bucketing only
*routes* entries, every consume point re-establishes the full tuple
order, and sequence numbers are allocated by the driver in call order.
Wire goldens and chaos replays cannot observe the data structure.

Cancellation is accounted eagerly: :meth:`Event.cancel` moves the
event from the live count to the cancelled count in O(1) (so
``pending()`` is O(1)), and the wheel compacts — rewrites itself
without the corpses — whenever cancelled entries outnumber live ones.

This module is the **only** place in the tree allowed to import
``heapq`` (ntcslint DET006): ad-hoc event queues bypass the
determinism contract and the cancellation accounting.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple


class Event:
    """A scheduled callback.  Returned by the drivers' ``schedule`` so
    callers can cancel it.  Ordered by (time, sequence) for determinism.
    """

    __slots__ = ("time", "seq", "callback", "note", "cancelled",
                 "_wheel", "_pooled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[[], None], note: str):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.note = note
        self.cancelled = False
        self._wheel: Optional["TimerWheel"] = None
        self._pooled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call twice."""
        if not self.cancelled:
            self.cancelled = True
            wheel = self._wheel
            if wheel is not None:
                wheel._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state}, note={self.note!r})"


class EventPool:
    """Free list for *unhandled* events.

    Only events the caller never receives a handle to (``post``) may
    be pooled: with no outstanding reference there is no way to cancel
    a recycled object by mistake.  Events
    returned from ``schedule`` are allocated fresh and never reused.
    """

    __slots__ = ("_free", "max_size", "reused", "allocated")

    def __init__(self, max_size: int = 4096):
        self._free: List[Event] = []
        self.max_size = max_size
        self.reused = 0
        self.allocated = 0

    def acquire(self, time: float, seq: int,
                callback: Callable[[], None], note: str) -> Event:
        """A pooled event, recycled from the free list when possible."""
        if self._free:
            event = self._free.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.note = note
            event.cancelled = False
            self.reused += 1
        else:
            event = Event(time, seq, callback, note)
            event._pooled = True
            self.allocated += 1
        return event

    def release(self, event: Event) -> None:
        """Return a consumed pooled event to the free list."""
        if len(self._free) < self.max_size:
            event.callback = _noop
            event.note = ""
            event._wheel = None
            self._free.append(event)


def _noop() -> None:
    pass


class TimerWheel:
    """The storage engine: three timer tiers.

    The wheel never invokes callbacks and never reads a clock — it is a
    pure priority structure over ``(time, seq)`` with O(1) live/
    cancelled accounting.  Drivers own sequence allocation and
    execution.
    """

    __slots__ = ("quantum", "nslots", "_buckets", "_occupied", "_ready",
                 "_overflow", "_cursor", "_live", "_cancelled",
                 "compactions", "compact_threshold")

    def __init__(self, quantum: float = 0.005, slots: int = 512,
                 compact_threshold: int = 64):
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.quantum = quantum
        self.nslots = slots
        self._buckets: List[List[Tuple[float, int, Event]]] = [
            [] for _ in range(slots)
        ]
        self._occupied: List[int] = []      # heap of absolute slot numbers
        self._ready: List[Tuple[float, int, Event]] = []
        self._overflow: List[Tuple[float, int, Event]] = []
        self._cursor = 0
        self._live = 0
        self._cancelled = 0
        self.compactions = 0
        self.compact_threshold = compact_threshold

    # -- accounting ---------------------------------------------------------

    @property
    def live(self) -> int:
        """Not-yet-cancelled events held."""
        return self._live

    @property
    def cancelled_held(self) -> int:
        """Cancelled events still occupying structure (pre-compaction)."""
        return self._cancelled

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` while the event is held here."""
        self._live -= 1
        self._cancelled += 1
        if (self._cancelled > self.compact_threshold
                and self._cancelled > self._live):
            self._compact()

    def __len__(self) -> int:
        return self._live

    # -- insertion ----------------------------------------------------------

    def push(self, event: Event) -> None:
        """File a timed event by its ``(time, seq)``.  (The placement
        logic is inlined — this is the hottest insert path.)"""
        event._wheel = self
        self._live += 1
        time = event.time
        slot = int(time / self.quantum)
        cursor = self._cursor
        if slot <= cursor:
            heappush(self._ready, (time, event.seq, event))
        elif slot < cursor + self.nslots:
            bucket = self._buckets[slot % self.nslots]
            if not bucket:
                heappush(self._occupied, slot)
            bucket.append((time, event.seq, event))
        else:
            heappush(self._overflow, (time, event.seq, event))

    def _place(self, entry: Tuple[float, int, Event]) -> None:
        slot = int(entry[0] / self.quantum)
        if slot <= self._cursor:
            heappush(self._ready, entry)
        elif slot < self._cursor + self.nslots:
            bucket = self._buckets[slot % self.nslots]
            if not bucket:
                heappush(self._occupied, slot)
            bucket.append(entry)
        else:
            heappush(self._overflow, entry)

    # -- consumption --------------------------------------------------------

    def peek(self) -> Optional[Event]:
        """The earliest live event, or None.  Does not remove it."""
        entry = self._timer_head()
        return None if entry is None else entry[2]

    def pop_due(self, deadline: float) -> Optional[Event]:
        """The fused consume step: remove and return the earliest live
        event if its time is at or before ``deadline``.  None means
        nothing is due: the wheel is empty, or its head is later and
        stays put.  An infinite deadline is a plain pop."""
        ready = self._ready
        if ready and not ready[0][2].cancelled:
            entry = ready[0]    # fast path: a live head already in _ready
        else:
            entry = self._timer_head()
            if entry is None:
                return None
        if entry[0] > deadline:
            return None
        heappop(self._ready)    # _timer_head may have rebound the list
        event = entry[2]
        self._live -= 1
        event._wheel = None
        return event

    def _timer_head(self) -> Optional[Tuple[float, int, Event]]:
        """Earliest live entry (left in ``_ready``), or None."""
        while True:
            ready = self._ready    # _refill may rebind the list
            while ready and ready[0][2].cancelled:
                self._cancelled -= 1
                heappop(ready)[2]._wheel = None
            if ready:
                return ready[0]
            if not self._refill():
                return None

    def _refill(self) -> bool:
        """Advance the cursor to the next populated slot and pull its
        bucket (and any due overflow) into ``_ready``.  Returns False
        when no timer entries remain anywhere."""
        occupied = self._occupied
        next_slot = occupied[0] if occupied else None
        if self._overflow:
            overflow_slot = int(self._overflow[0][0] / self.quantum)
            if next_slot is None or overflow_slot < next_slot:
                next_slot = overflow_slot
        if next_slot is None:
            return False
        self._cursor = next_slot
        if occupied and occupied[0] == next_slot:
            heappop(occupied)
            index = next_slot % self.nslots
            bucket = self._buckets[index]
            self._buckets[index] = []
            if self._ready:
                self._ready.extend(bucket)
                heapify(self._ready)
            else:
                heapify(bucket)
                self._ready = bucket
        overflow = self._overflow
        while overflow and int(overflow[0][0] / self.quantum) <= next_slot:
            heappush(self._ready, heappop(overflow))
        return True

    # -- compaction ---------------------------------------------------------

    def _compact(self) -> None:
        """Rewrite every tier without the cancelled entries.  Triggered
        from cancellation accounting once corpses outnumber live events;
        O(total) and therefore amortized O(1) per cancel."""
        survivors: List[Tuple[float, int, Event]] = []

        def keep(entries):
            for entry in entries:
                if entry[2].cancelled:
                    self._cancelled -= 1
                    entry[2]._wheel = None
                else:
                    survivors.append(entry)

        keep(self._ready)
        self._ready = []
        for index, bucket in enumerate(self._buckets):
            if bucket:
                keep(bucket)
                self._buckets[index] = []
        keep(self._overflow)
        self._overflow = []
        self._occupied = []
        for entry in survivors:
            self._place(entry)
        self.compactions += 1
