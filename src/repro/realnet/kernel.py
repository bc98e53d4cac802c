"""A realtime event kernel with the simulation scheduler's interface.

The NTCS layers only use a small scheduler surface: ``now``,
``schedule``, ``call_soon``, ``pump_until`` and ``wait``.  This kernel
implements it against wall-clock time and a :mod:`selectors` loop, so
the same passive, reentrantly-blocking layers run unchanged over real
sockets.

Timers are stored on the same hierarchical
:class:`~repro.netsim.timerwheel.TimerWheel` the virtual-time
scheduler uses — one clock abstraction, two drivers (PROTOCOL.md §11).
The wheel gives this kernel the identical total order ``(when, seq)``,
O(1) ``pending()``, and eager cancellation accounting; only the notion
of "now" (``time.monotonic`` here, the virtual clock in simulation)
differs between the two drivers.
"""

from __future__ import annotations

import selectors
import time
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.netsim.timerwheel import Event, TimerWheel


class RealtimeKernel:
    """Wall-clock twin of :class:`repro.netsim.Scheduler`.

    File-descriptor callbacks are registered with
    :meth:`register_reader` / :meth:`register_writer`; each callback is
    invoked from inside whatever pump is currently blocking, so the
    passive-Nucleus recursion works exactly as in simulation.
    """

    #: Longest single poll; keeps a pump responsive to its predicate.
    MAX_POLL = 0.05

    #: Wheel bucket width in wall seconds; timers beyond the window
    #: (quantum * slots) sit in the overflow heap until due.
    QUANTUM = 0.01
    WHEEL_SLOTS = 512

    def __init__(self):
        self.selector = selectors.DefaultSelector()
        self._wheel = TimerWheel(quantum=self.QUANTUM, slots=self.WHEEL_SLOTS)
        self._seq = 0
        self._t0 = time.monotonic()
        self._pump_depth = 0
        self.max_pump_depth_seen = 0
        self.events_processed = 0

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds since kernel start (wall clock)."""
        return time.monotonic() - self._t0

    @property
    def pump_depth(self) -> int:
        return self._pump_depth

    @property
    def wheel(self) -> TimerWheel:
        """The underlying timer wheel (shared implementation with the
        virtual-time scheduler)."""
        return self._wheel

    # -- timers -------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None], note: str = ""):
        """Run a callback after a wall-clock delay; returns a cancellable timer."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        timer = Event(self.now + delay, self._seq, callback, note)
        self._wheel.push(timer)
        return timer

    def call_soon(self, callback: Callable[[], None], note: str = ""):
        """Run a callback on the next pump iteration."""
        return self.schedule(0.0, callback, note)

    def _run_due_timers(self) -> int:
        ran = 0
        now = self.now
        while True:
            timer = self._wheel.pop_due(now)
            if timer is None:
                break
            self.events_processed += 1
            timer.callback()
            ran += 1
        return ran

    # -- io registration ----------------------------------------------------

    def register_reader(self, sock, callback: Callable[[], None]) -> None:
        """Invoke a callback whenever the socket is readable."""
        self._register(sock, selectors.EVENT_READ, callback)

    def register_writer(self, sock, callback: Callable[[], None]) -> None:
        """Invoke a callback whenever the socket is writable."""
        self._register(sock, selectors.EVENT_WRITE, callback)

    def _register(self, sock, event: int, callback) -> None:
        try:
            key = self.selector.get_key(sock)
        except KeyError:
            self.selector.register(sock, event, {event: callback})
            return
        data = dict(key.data)
        data[event] = callback
        self.selector.modify(sock, key.events | event, data)

    def unregister_writer(self, sock) -> None:
        """Stop watching a socket for writability."""
        try:
            key = self.selector.get_key(sock)
        except KeyError:
            return
        events = key.events & ~selectors.EVENT_WRITE
        data = {k: v for k, v in key.data.items() if k != selectors.EVENT_WRITE}
        if events:
            self.selector.modify(sock, events, data)
        else:
            self.selector.unregister(sock)

    def unregister(self, sock) -> None:
        """Stop watching a socket entirely."""
        try:
            self.selector.unregister(sock)
        except KeyError:
            pass

    # -- pumping -------------------------------------------------------------

    def _poll(self, max_wait: float) -> int:
        ready = self.selector.select(max(0.0, max_wait))
        dispatched = 0
        for key, mask in ready:
            for event in (selectors.EVENT_READ, selectors.EVENT_WRITE):
                if mask & event:
                    callback = key.data.get(event)
                    if callback is not None:
                        self.events_processed += 1
                        callback()
                        dispatched += 1
        return dispatched

    def pump_until(self, predicate: Callable[[], bool],
                   timeout: Optional[float] = None, what: str = "") -> bool:
        """Block until the predicate holds, dispatching io and timers."""
        deadline = None if timeout is None else self.now + timeout
        self._pump_depth += 1
        self.max_pump_depth_seen = max(self.max_pump_depth_seen, self._pump_depth)
        try:
            while True:
                if predicate():
                    return True
                self._run_due_timers()
                if predicate():
                    return True
                if deadline is not None and self.now >= deadline:
                    return False
                wait = self.MAX_POLL
                head = self._wheel.peek()
                if head is not None:
                    wait = min(wait, max(0.0, head.time - self.now))
                if deadline is not None:
                    wait = min(wait, max(0.0, deadline - self.now))
                self._poll(wait)
        finally:
            self._pump_depth -= 1

    def wait(self, duration: float) -> None:
        """Block for a wall-clock duration, dispatching io and timers."""
        self.pump_until(lambda: False, timeout=duration, what="wait")

    def run_for(self, duration: float) -> None:
        """Alias of wait(), matching the simulation scheduler's API."""
        self.wait(duration)

    def pending(self) -> int:
        """Number of armed (uncancelled) timers.  O(1): the shared
        wheel accounts for cancellations eagerly."""
        return self._wheel.live

    def close(self) -> None:
        """Close the selector (call once, on shutdown)."""
        self.selector.close()
