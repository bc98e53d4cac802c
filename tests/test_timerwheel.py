"""Order tests for the shared event queue (PROTOCOL.md §11).

The queue's contract is the total order ``(time, seq)``.  These cases
were first written against the bucketed timer wheel the single heap
replaced, and they keep their names: events on either side of an old
bucket edge, far-future events that the wheel parked in its overflow
tier, a ``run_for`` window ending exactly on an event, and the order
property, which pins execution against a plain ``sorted()`` reference
model across random op sequences whose delays span 0 to 10^4 s and
include forced equal-time ties.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Scheduler


# The wheel's old bucket width: the fixed cases below sit on and around
# its edges.
EDGE = 0.005


def test_events_straddling_bucket_edges_run_in_order():
    sched = Scheduler()
    order = []
    # Just below, exactly on, and just above one edge, plus the next
    # edge — insertion order deliberately scrambled.
    for tag, t in (("d", 2 * EDGE), ("b", EDGE),
                   ("a", EDGE - 1e-6), ("c", EDGE + 1e-6)):
        sched.schedule(t, lambda t=tag: order.append(t))
    sched.run_until_idle()
    assert order == ["a", "b", "c", "d"]


def test_run_for_ending_exactly_on_bucket_edge():
    sched = Scheduler()
    ran = []
    sched.schedule(EDGE, lambda: ran.append("on-edge"))
    sched.schedule(EDGE + 1e-6, lambda: ran.append("past-edge"))
    # A window ending exactly on an event's time includes it (run_for
    # is inclusive of the deadline) and excludes the later one.
    assert sched.run_for(EDGE) == 1
    assert ran == ["on-edge"]
    assert sched.now == pytest.approx(EDGE)
    assert sched.run_for(EDGE) == 1
    assert ran == ["on-edge", "past-edge"]


def test_far_future_events_cascade_from_overflow():
    # Events hours ahead of the clock share the one heap with near
    # ones; they must still run, in order, once the clock gets there.
    sched = Scheduler()
    order = []
    sched.schedule(1e4, lambda: order.append("far"))
    sched.schedule(3600.0, lambda: order.append("mid"))
    sched.schedule(0.0005, lambda: order.append("near"))
    sched.run_until_idle()
    assert order == ["near", "mid", "far"]
    assert sched.now == pytest.approx(1e4)


# Fixed delays the random ones keep landing on, so equal-time ties (and
# run_for deadlines exactly on an event) are forced, not left to luck.
_TIES = [0.0, EDGE, 1.0, 1e4]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.floats(min_value=0.0, max_value=1e4,
                                allow_nan=False, allow_infinity=False),
                      st.sampled_from(_TIES)),
            st.sampled_from(["schedule", "tie", "cancel-last"]),
        ),
        min_size=1, max_size=60,
    ),
    st.integers(min_value=0, max_value=59),
)
def test_wheel_execution_order_matches_total_order(ops, cut_index):
    """Execution order is exactly the sorted ``(time, seq)`` order of
    the surviving events.  A ``run_for`` window ending exactly on one
    event's time runs every event up to and including it first."""
    sched = Scheduler()
    executed = []
    expected = []   # (time, seq) of every event that must run
    seq = 0
    last = None     # (handle, key) of the newest live event

    def emit(time, seq_no):
        executed.append((time, seq_no))

    for delay, kind in ops:
        if kind == "cancel-last":
            if last is not None:
                handle, key = last
                handle.cancel()
                expected.remove(key)
                last = None
            continue
        if kind == "tie" and expected:
            delay = expected[-1][0]
        seq += 1
        handle = sched.schedule(delay, lambda s=seq, t=delay: emit(t, s))
        last = (handle, (delay, seq))
        expected.append((delay, seq))

    cut = expected[cut_index % len(expected)][0] if expected else 0.0
    sched.run_for(cut)
    assert executed == sorted(key for key in expected if key[0] <= cut)
    sched.run_until_idle()
    # The reference model: a single totally-ordered queue.
    assert executed == sorted(expected)
