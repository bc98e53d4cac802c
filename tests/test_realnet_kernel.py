"""Unit tests for the realtime kernel (the real-socket substrate)."""

import socket

import pytest

from repro.errors import SimulationError
from repro.netsim import ChaosEngine, ChaosSchedule
from repro.realnet.kernel import RealtimeKernel


@pytest.fixture
def kernel():
    kernel = RealtimeKernel()
    yield kernel
    kernel.close()


def test_clock_starts_near_zero(kernel):
    assert 0.0 <= kernel.now < 1.0


def test_timers_fire_in_order(kernel):
    fired = []
    kernel.schedule(0.02, lambda: fired.append("b"))
    kernel.schedule(0.01, lambda: fired.append("a"))
    kernel.wait(0.05)
    assert fired == ["a", "b"]


def test_timer_cancel(kernel):
    fired = []
    timer = kernel.schedule(0.01, lambda: fired.append(1))
    timer.cancel()
    kernel.wait(0.03)
    assert fired == []
    assert kernel.pending() == 0


def test_negative_delay_rejected(kernel):
    with pytest.raises(SimulationError):
        kernel.schedule(-0.1, lambda: None)


def test_pump_until_predicate(kernel):
    flag = []
    kernel.schedule(0.01, lambda: flag.append(1))
    assert kernel.pump_until(lambda: bool(flag), timeout=1.0) is True


def test_pump_until_timeout(kernel):
    t0 = kernel.now
    assert kernel.pump_until(lambda: False, timeout=0.05) is False
    assert kernel.now - t0 >= 0.04


def test_pump_depth_tracking(kernel):
    depths = []

    def nested():
        depths.append(kernel.pump_depth)
        kernel.pump_until(lambda: True)

    kernel.schedule(0.005, nested)
    kernel.pump_until(lambda: bool(depths), timeout=1.0)
    assert depths == [1]
    assert kernel.max_pump_depth_seen >= 2
    assert kernel.pump_depth == 0


def test_socket_reader_callback(kernel):
    a, b = socket.socketpair()
    a.setblocking(False)
    b.setblocking(False)
    got = []

    def on_readable():
        got.append(b.recv(100))

    kernel.register_reader(b, on_readable)
    a.send(b"ping")
    assert kernel.pump_until(lambda: bool(got), timeout=1.0)
    assert got == [b"ping"]
    kernel.unregister(b)
    a.close()
    b.close()


def test_writer_registration_toggles(kernel):
    a, b = socket.socketpair()
    a.setblocking(False)
    writable = []
    kernel.register_writer(a, lambda: writable.append(1))
    assert kernel.pump_until(lambda: bool(writable), timeout=1.0)
    kernel.unregister_writer(a)
    # Unregistered: further pumps do not add events.
    count = len(writable)
    kernel.wait(0.02)
    assert len(writable) == count
    a.close()
    b.close()


def test_unregister_unknown_socket_is_noop(kernel):
    a, b = socket.socketpair()
    kernel.unregister(a)           # never registered: fine
    kernel.unregister_writer(a)    # fine too
    a.close()
    b.close()


def test_chaos_installs_on_the_wall_clock(kernel):
    # The engine needs only now() and schedule(), so a crash point
    # replays on the kernel exactly as on virtual time.
    crashed = []
    engine = ChaosEngine(kernel, ChaosSchedule().crash(kernel.now + 0.01, "victim"))
    engine.register_target("victim", crash=lambda: crashed.append(kernel.now))
    engine.install()
    assert kernel.pump_until(lambda: bool(crashed), timeout=5)
    assert [op for _, op, _ in engine.applied] == ["crash"]
    assert engine.remaining() == 0
