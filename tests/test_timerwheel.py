"""Unit and property tests for the shared timer wheel (PROTOCOL.md §11).

The wheel's determinism contract is that bucketing only *routes*
entries — execution order is exactly the ``(time, seq)`` total order
the original single heap produced.  The property test at the bottom
pins that against a plain ``sorted()`` reference model across random
op sequences; the unit tests walk the structural edges (bucket
boundaries, overflow cascade, pool recycling, compaction) that a
random walk is unlikely to land on precisely.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Scheduler
from repro.netsim.timerwheel import Event, TimerWheel


QUANTUM = 0.005


def make_sched(**kwargs):
    kwargs.setdefault("quantum", QUANTUM)
    return Scheduler(**kwargs)


# ---------------------------------------------------------------------------
# Bucket-boundary behaviour
# ---------------------------------------------------------------------------

def test_events_straddling_bucket_edges_run_in_order():
    sched = make_sched()
    order = []
    # Just below, exactly on, and just above one bucket edge, plus the
    # next edge — insertion order deliberately scrambled.
    for tag, t in (("d", 2 * QUANTUM), ("b", QUANTUM),
                   ("a", QUANTUM - 1e-6), ("c", QUANTUM + 1e-6)):
        sched.schedule(t, lambda t=tag: order.append(t))
    sched.run_until_idle()
    assert order == ["a", "b", "c", "d"]


def test_run_for_ending_exactly_on_bucket_edge():
    sched = make_sched()
    ran = []
    sched.schedule(QUANTUM, lambda: ran.append("on-edge"))
    sched.schedule(QUANTUM + 1e-6, lambda: ran.append("past-edge"))
    # A window ending exactly on the edge includes the on-edge event
    # (run_for is inclusive of the deadline) and excludes the later one.
    assert sched.run_for(QUANTUM) == 1
    assert ran == ["on-edge"]
    assert sched.now == pytest.approx(QUANTUM)
    assert sched.run_for(QUANTUM) == 1
    assert ran == ["on-edge", "past-edge"]


def test_far_future_events_cascade_from_overflow():
    # Beyond quantum * slots the wheel parks events in the overflow
    # heap; they must still run, in order, once the cursor gets there.
    sched = Scheduler(quantum=0.001, wheel_slots=8)
    window = 0.001 * 8
    order = []
    sched.schedule(window * 40, lambda: order.append("far"))
    sched.schedule(window * 20, lambda: order.append("mid"))
    sched.schedule(0.0005, lambda: order.append("near"))
    sched.run_until_idle()
    assert order == ["near", "mid", "far"]


def test_pump_until_reentrant_across_bucket_boundaries():
    # A nested pump driven from inside a handler must drain events that
    # live in *later* buckets (and the overflow tier) than the event
    # that started it — the cursor advances correctly mid-pump.
    sched = Scheduler(quantum=0.001, wheel_slots=8)
    window = 0.001 * 8
    hit = []

    def outer():
        hit.append("outer")
        sched.schedule(window * 3, lambda: hit.append("inner-far"))
        sched.schedule(0.0001, lambda: hit.append("inner-near"))
        assert sched.pump_until(lambda: "inner-far" in hit, timeout=window * 5)
        hit.append("outer-done")

    sched.schedule(0.0005, outer)
    sched.schedule(window * 6, lambda: hit.append("tail"))
    sched.run_until_idle()
    assert hit == ["outer", "inner-near", "inner-far", "outer-done", "tail"]


# ---------------------------------------------------------------------------
# Event pool
# ---------------------------------------------------------------------------

def test_post_recycles_event_objects():
    sched = make_sched()
    ran = [0]
    for _ in range(5):
        sched.post(0.001, lambda: ran.__setitem__(0, ran[0] + 1))
        sched.run_until_idle()
    assert ran[0] == 5
    # One allocation serves the whole sequence: each event is released
    # before its callback runs, so the next post reuses it.
    assert sched.pool.allocated == 1
    assert sched.pool.reused == 4


def test_cancel_then_reschedule_does_not_corrupt_pool():
    # A cancelled schedule() handle must never be recycled: cancelling
    # it after new events are scheduled must affect only itself.
    sched = make_sched()
    order = []
    handle = sched.schedule(0.002, lambda: order.append("cancelled!"))
    handle.cancel()
    # Burst of pooled posts at the same time — if the cancelled handle
    # leaked into the free list, one of these would inherit .cancelled.
    for i in range(3):
        sched.post(0.002, lambda i=i: order.append(i))
    replacement = sched.schedule(0.002, lambda: order.append("re"))
    sched.run_until_idle()
    assert order == [0, 1, 2, "re"]
    assert not replacement.cancelled
    # Cancelling the stale handle again is a no-op on live events.
    handle.cancel()
    sched.post(0.001, lambda: order.append("after"))
    sched.run_until_idle()
    assert order == [0, 1, 2, "re", "after"]


# ---------------------------------------------------------------------------
# Cancellation accounting
# ---------------------------------------------------------------------------

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
    """What 1,000 connections at a 50 ms think time and a 1 s RTO
    horizon keep parked in the queue: per module one far keepalive,
    one near-due send timer, and 20 retransmit timers each cancelled as
    soon as armed (the ack came).  Returns the live events."""
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
        sched = make_sched()
        keep = census(sched)
        # pending() reflects every cancel immediately (no pop needed)...
        assert sched.pending() == len(keep)
        # ...and with 20 corpses per live event the wheel has
        # compacted, repeatedly: it never holds more corpses than the
        # compaction threshold or the live count, whichever is larger,
        # however many were cancelled.
        wheel = sched.wheel
        assert wheel.compactions >= 2
        assert wheel.cancelled_held <= max(wheel.compact_threshold, len(keep))
        assert all(not e.cancelled for e in keep)
        assert sched.run_until_idle() == len(keep)
        assert wheel.cancelled_held <= wheel.compact_threshold


def test_cancelled_head_is_skipped_without_running():
    sched = make_sched()
    order = []
    head = sched.schedule(0.001, lambda: order.append("head"))
    sched.schedule(0.002, lambda: order.append("next"))
    head.cancel()
    sched.run_until_idle()
    assert order == ["next"]
    assert sched.pending() == 0


# ---------------------------------------------------------------------------
# Property: wheel order == heap order
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=30.0,
                      allow_nan=False, allow_infinity=False),
            st.sampled_from(["schedule", "post", "cancel-last"]),
        ),
        min_size=1, max_size=60,
    ),
    st.integers(min_value=1, max_value=24),
)
def test_wheel_execution_order_matches_total_order(ops, slots):
    """Whatever the bucket geometry, execution order is exactly the
    sorted ``(time, seq)`` order of the surviving events — the order
    the pre-wheel single heap produced."""
    sched = Scheduler(quantum=0.003, wheel_slots=slots)
    executed = []
    expected = []   # (time, seq) of every event that must run
    seq = [0]
    last_handle = [None]

    def emit(time, seq_no):
        executed.append((time, seq_no))

    for delay, kind in ops:
        seq[0] += 1
        seq_no = seq[0]
        if kind == "schedule":
            handle = sched.schedule(delay, lambda s=seq_no, t=delay: emit(t, s))
            last_handle[0] = (handle, (delay, seq_no))
            expected.append((delay, seq_no))
        elif kind == "post":
            sched.post(delay, lambda s=seq_no, t=delay: emit(t, s))
            expected.append((delay, seq_no))
        elif kind == "cancel-last":
            seq[0] -= 1   # no event issued
            if last_handle[0] is not None:
                handle, key = last_handle[0]
                handle.cancel()
                if key in expected:
                    expected.remove(key)
                last_handle[0] = None

    sched.run_until_idle()
    # The reference model: a single totally-ordered queue.  (sorted()
    # here, the heap in the original implementation — same order.)
    assert executed == sorted(expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                min_size=1, max_size=40))
def test_raw_wheel_pop_sequence_is_sorted(times):
    wheel = TimerWheel(quantum=0.01, slots=16)
    for i, t in enumerate(times):
        wheel.push(Event(t, i + 1, lambda: None, ""))
    popped = []
    while True:
        event = wheel.pop_due(float("inf"))
        if event is None:
            break
        popped.append((event.time, event.seq))
    assert popped == sorted(popped)
    assert len(popped) == len(times)
    assert wheel.live == 0


def test_pop_due_leaves_a_later_head_in_place():
    """The fused consume step: the head comes off only if it is due by
    the deadline; a cancelled head is skipped to the live one behind
    it; ``live`` distinguishes "head is later" from "empty"."""
    wheel = TimerWheel(quantum=0.01, slots=16)
    corpse = Event(0.5, 1, lambda: None, "")
    first = Event(1.0, 2, lambda: None, "")
    second = Event(2.5, 3, lambda: None, "")    # beyond the wheel window
    for event in (second, corpse, first):
        wheel.push(event)
    corpse.cancel()
    assert wheel.pop_due(0.75) is None and wheel.live == 2
    assert wheel.pop_due(1.0) is first          # due exactly at the deadline
    assert wheel.pop_due(2.0) is None and wheel.live == 1
    assert wheel.peek() is second
    assert wheel.pop_due(2.5) is second
    assert wheel.pop_due(float("inf")) is None and wheel.live == 0
