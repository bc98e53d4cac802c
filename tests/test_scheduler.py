"""Unit tests for the reentrant discrete-event scheduler."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.netsim import Scheduler


def test_events_run_in_time_order():
    sched = Scheduler()
    order = []
    sched.schedule(0.3, lambda: order.append("c"))
    sched.schedule(0.1, lambda: order.append("a"))
    sched.schedule(0.2, lambda: order.append("b"))
    sched.run_until_idle()
    assert order == ["a", "b", "c"]
    assert sched.now == pytest.approx(0.3)


def test_same_time_events_run_in_schedule_order():
    sched = Scheduler()
    order = []
    for tag in ("first", "second", "third"):
        sched.schedule(0.5, lambda t=tag: order.append(t))
    sched.run_until_idle()
    assert order == ["first", "second", "third"]


def test_call_soon_runs_at_current_time():
    sched = Scheduler()
    seen = []
    sched.call_soon(lambda: seen.append(sched.now))
    sched.run_until_idle()
    assert seen == [0.0]


def test_cancelled_event_does_not_run():
    sched = Scheduler()
    ran = []
    event = sched.schedule(0.1, lambda: ran.append(1))
    event.cancel()
    sched.run_until_idle()
    assert ran == []


def test_cancel_is_idempotent():
    sched = Scheduler()
    event = sched.schedule(0.1, lambda: None)
    event.cancel()
    event.cancel()
    assert sched.run_until_idle() == 0


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.schedule(-1.0, lambda: None)


def test_step_returns_false_when_empty():
    assert Scheduler().step() is False


def test_pump_until_predicate_already_true():
    sched = Scheduler()
    assert sched.pump_until(lambda: True) is True
    assert sched.now == 0.0


def test_pump_until_runs_events_until_predicate():
    sched = Scheduler()
    flag = []
    sched.schedule(0.1, lambda: None)
    sched.schedule(0.2, lambda: flag.append(1))
    sched.schedule(0.9, lambda: flag.append("should not run"))
    assert sched.pump_until(lambda: bool(flag)) is True
    assert flag == [1]
    assert sched.now == pytest.approx(0.2)


def test_pump_until_timeout_advances_clock_and_returns_false():
    sched = Scheduler()
    sched.schedule(5.0, lambda: None)
    assert sched.pump_until(lambda: False, timeout=1.0) is False
    assert sched.now == pytest.approx(1.0)
    # The event past the deadline is still pending for later pumps.
    assert sched.pending() == 1


def test_pump_until_empty_queue_without_timeout_is_deadlock():
    sched = Scheduler()
    with pytest.raises(DeadlockError):
        sched.pump_until(lambda: False)


def test_pump_until_is_reentrant():
    """A handler may itself block on a nested pump — the recursion the
    paper's passive Nucleus depends on (Sec. 6)."""
    sched = Scheduler()
    log = []

    def inner_ready():
        log.append("inner-event")

    def outer_handler():
        log.append("outer-enter")
        sched.schedule(0.05, inner_ready)
        sched.pump_until(lambda: "inner-event" in log)
        log.append("outer-exit")

    sched.schedule(0.1, outer_handler)
    sched.schedule(0.5, lambda: log.append("done"))
    sched.pump_until(lambda: "done" in log)
    assert log == ["outer-enter", "inner-event", "outer-exit", "done"]
    assert sched.max_pump_depth_seen == 2


def test_nested_pump_depth_is_tracked():
    sched = Scheduler()

    depths = []

    def depth3():
        # Runs inside level2's pump (depth 2); its own pump makes 3.
        depths.append(sched.pump_depth)
        sched.pump_until(lambda: depths.append(sched.pump_depth) or True)

    def level2():
        sched.schedule(0.01, depth3)
        sched.pump_until(lambda: False, timeout=0.02)

    def level1():
        sched.schedule(0.01, level2)
        sched.pump_until(lambda: False, timeout=0.05)

    sched.schedule(0.01, level1)
    sched.run_until_idle()
    assert sched.pump_depth == 0
    assert depths == [2, 3]
    assert sched.max_pump_depth_seen == 3


def test_wait_advances_time_and_runs_events():
    sched = Scheduler()
    seen = []
    sched.schedule(0.2, lambda: seen.append("in-window"))
    sched.schedule(2.0, lambda: seen.append("outside"))
    sched.wait(1.0)
    assert seen == ["in-window"]
    assert sched.now == pytest.approx(1.0)


def test_run_for_advances_exactly():
    sched = Scheduler()
    sched.schedule(0.4, lambda: None)
    ran = sched.run_for(0.25)
    assert ran == 0
    assert sched.now == pytest.approx(0.25)
    ran = sched.run_for(0.25)
    assert ran == 1
    assert sched.now == pytest.approx(0.5)


def test_event_budget_guards_runaway_loops():
    sched = Scheduler(max_events=100)

    def reschedule():
        sched.schedule(0.001, reschedule)

    sched.schedule(0.001, reschedule)
    with pytest.raises(SimulationError, match="budget"):
        sched.run_until_idle()


def test_events_processed_counter():
    sched = Scheduler()
    for _ in range(5):
        sched.schedule(0.1, lambda: None)
    sched.run_until_idle()
    assert sched.events_processed == 5
