"""Unit and property tests for the shared event queue (PROTOCOL.md §11).

The queue's contract is the total order ``(time, seq)``; its order
property and the fixed order cases live in ``test_timerwheel.py``.
These tests cover reentrant pumping, stale cancels, the cancellation
census, non-finite delays on both drivers, and the queue's own
``push`` / ``pop_due`` surface, whose pop sequence is checked against
``sorted()`` across delays from 0 to 10^4 s with forced ties.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.netsim import Scheduler
from repro.netsim.scheduler import COMPACT_THRESHOLD, Event, EventQueue
from repro.realnet.kernel import RealtimeKernel


# ---------------------------------------------------------------------------
# Reentrancy and cancellation
# ---------------------------------------------------------------------------

def test_pump_until_reentrant_nested():
    # A nested pump driven from inside a handler must drain events
    # scheduled far later than the event that started it, and leave
    # the rest of the queue for the outer pump.
    sched = Scheduler()
    hit = []

    def outer():
        hit.append("outer")
        sched.schedule(0.024, lambda: hit.append("inner-far"))
        sched.schedule(0.0001, lambda: hit.append("inner-near"))
        assert sched.pump_until(lambda: "inner-far" in hit, timeout=0.04)
        hit.append("outer-done")

    sched.schedule(0.0005, outer)
    sched.schedule(0.048, lambda: hit.append("tail"))
    sched.run_until_idle()
    assert hit == ["outer", "inner-near", "inner-far", "outer-done", "tail"]


def test_stale_cancel_affects_only_its_own_event():
    # Cancelling a handle again, after new events are scheduled at the
    # same time, must affect only itself.
    sched = Scheduler()
    order = []
    handle = sched.schedule(0.002, lambda: order.append("cancelled!"))
    handle.cancel()
    for i in range(3):
        sched.schedule(0.002, lambda i=i: order.append(i))
    replacement = sched.schedule(0.002, lambda: order.append("re"))
    sched.run_until_idle()
    assert order == [0, 1, 2, "re"]
    assert not replacement.cancelled
    handle.cancel()
    sched.schedule(0.001, lambda: order.append("after"))
    sched.run_until_idle()
    assert order == [0, 1, 2, "re", "after"]


def _armed_then_cancelled(sched):
    """10 live timers; 200 more armed, then every one of them
    cancelled.  Returns the live events."""
    keep = [sched.schedule(1.0 + i * 0.01, lambda: None) for i in range(10)]
    corpses = [sched.schedule(2.0 + i * 0.001, lambda: None)
               for i in range(200)]
    assert sched.pending() == 210
    for event in corpses:
        event.cancel()
    return keep


def _steady_state_1000_modules(sched):
    """A synthetic queue census, not a model of any IPCS: 1,000 owners
    each keep one far event (60 s and beyond) and one near-due event
    live, and arm and at once cancel 20 more between 0.2 s and 1.2 s —
    twenty corpses per live event, enough to force repeated
    compaction.  Returns the live events."""
    keep = []
    for i in range(1000):
        keep.append(sched.schedule(60.0 + (i % 64) * 0.9, lambda: None))
        keep.append(sched.schedule(0.001 + (i % 50) * 0.001, lambda: None))
        for j in range(20):
            sched.schedule(0.2 + j * 0.05 + (i % 16) * 0.003,
                           lambda: None).cancel()
    return keep


def test_pending_is_eager_and_compaction_removes_corpses():
    for census in (_armed_then_cancelled, _steady_state_1000_modules):
        sched = Scheduler()
        keep = census(sched)
        # pending() reflects every cancel immediately (no pop needed)...
        assert sched.pending() == len(keep)
        # ...and with 20 corpses per live event the queue has
        # compacted, repeatedly: it never holds more corpses than the
        # compaction threshold or the live count, whichever is larger,
        # however many were cancelled.
        queue = sched.queue
        assert queue.compactions >= 2
        assert queue.cancelled_held <= max(COMPACT_THRESHOLD, len(keep))
        assert all(not e.cancelled for e in keep)
        assert sched.run_until_idle() == len(keep)
        assert queue.cancelled_held <= COMPACT_THRESHOLD


def test_cancelled_head_is_skipped_without_running():
    sched = Scheduler()
    order = []
    head = sched.schedule(0.001, lambda: order.append("head"))
    sched.schedule(0.002, lambda: order.append("next"))
    head.cancel()
    sched.run_until_idle()
    assert order == ["next"]
    assert sched.pending() == 0


# ---------------------------------------------------------------------------
# Delays: finite and non-negative, on both drivers
# ---------------------------------------------------------------------------

@pytest.fixture(params=["sim", "real"])
def driver(request):
    if request.param == "sim":
        yield Scheduler()
        return
    kernel = RealtimeKernel()
    yield kernel
    kernel.close()


@pytest.mark.parametrize("delay", [math.nan, math.inf])
def test_schedule_rejects_a_non_finite_delay(driver, delay):
    with pytest.raises(SimulationError):
        driver.schedule(delay, lambda: None)
    assert driver.pending() == 0


# Fixed delays the random ones keep landing on, so equal-time ties are
# forced, not left to luck.
_TIES = [0.0, 0.005, 1.0, 1e4]


# ---------------------------------------------------------------------------
# The queue itself
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1e4,
                                    allow_nan=False),
                          st.sampled_from(_TIES)),
                min_size=1, max_size=40))
def test_raw_queue_pop_sequence_is_sorted(times):
    queue = EventQueue()
    for i, t in enumerate(times):
        queue.push(Event(t, i + 1, lambda: None, ""))
    popped = []
    while True:
        event = queue.pop_due(math.inf)
        if event is None:
            break
        popped.append((event.time, event.seq))
    assert popped == sorted(popped)
    assert len(popped) == len(times)
    assert queue.live == 0


def test_pop_due_leaves_a_later_head_in_place():
    """The fused consume step: the head comes off only if it is due by
    the deadline; a cancelled head is skipped to the live one behind
    it; ``live`` distinguishes "head is later" from "empty"."""
    queue = EventQueue()
    corpse = Event(0.5, 1, lambda: None, "")
    first = Event(1.0, 2, lambda: None, "")
    second = Event(2.5, 3, lambda: None, "")
    for event in (second, corpse, first):
        queue.push(event)
    corpse.cancel()
    assert queue.pop_due(0.75) is None and queue.live == 2
    assert queue.pop_due(1.0) is first          # due exactly at the deadline
    assert queue.pop_due(2.0) is None and queue.live == 1
    assert queue.peek() is second
    assert queue.pop_due(2.5) is second
    assert queue.pop_due(math.inf) is None and queue.live == 0
