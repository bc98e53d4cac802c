"""Unit tests for machine types, clocks, machines and processes."""

import pytest

from repro.errors import SimulationError
from repro.machine import (
    APOLLO,
    IBM_PC,
    LocalClock,
    Machine,
    MachineType,
    SimProcess,
    SUN3,
    VAX,
    list_machine_types,
)
from repro.machine.arch import machine_type
from repro.netsim import Network


# -- architectures ----------------------------------------------------------

def test_builtin_machine_types_have_expected_byte_orders():
    assert VAX.byte_order == "little"
    assert SUN3.byte_order == "big"
    assert APOLLO.byte_order == "big"
    assert IBM_PC.byte_order == "little"


def test_image_compatibility_is_by_data_format_not_name():
    # Sun-3 and Apollo are both big-endian 68k-family: image-safe.
    assert SUN3.image_compatible(APOLLO)
    assert VAX.image_compatible(IBM_PC)
    assert not VAX.image_compatible(SUN3)
    assert VAX.image_compatible(VAX)


def test_struct_prefix_matches_byte_order():
    assert VAX.struct_prefix == "<"
    assert SUN3.struct_prefix == ">"


def test_invalid_byte_order_rejected():
    with pytest.raises(ValueError):
        MachineType(name="bogus", byte_order="middle")


def test_machine_type_lookup():
    assert machine_type("VAX") is VAX
    with pytest.raises(KeyError):
        machine_type("PDP-11")


def test_list_machine_types_is_stable():
    assert list_machine_types() == list_machine_types()
    assert VAX in list_machine_types()


# -- local clocks --------------------------------------------------------------

def test_clock_offset_and_drift(sched):
    clock = LocalClock(sched, offset=2.0, drift=0.01)
    assert clock.now() == pytest.approx(2.0)
    sched.schedule(100.0, lambda: None)
    sched.run_until_idle()
    assert clock.now() == pytest.approx(100.0 * 1.01 + 2.0)
    assert clock.error() == pytest.approx(3.0)


def test_perfect_clock_tracks_true_time(sched):
    clock = LocalClock(sched)
    sched.schedule(7.5, lambda: None)
    sched.run_until_idle()
    assert clock.now() == pytest.approx(7.5)
    assert clock.error() == pytest.approx(0.0)


# -- machines -----------------------------------------------------------------

def test_machine_attach_networks(sched):
    net_a = Network(sched, "a")
    net_b = Network(sched, "b")
    machine = Machine(sched, "gw1", APOLLO)
    machine.attach_network(net_a)
    machine.attach_network(net_b, host="gw1-b")
    assert sorted(machine.networks) == ["a", "b"]
    assert machine.interface("a").host == "gw1"
    assert machine.interface("b").host == "gw1-b"


def test_machine_double_attach_rejected(sched):
    net = Network(sched, "a")
    machine = Machine(sched, "m", VAX)
    machine.attach_network(net)
    with pytest.raises(SimulationError):
        machine.attach_network(net)


def test_interface_lookup_unknown_network(sched):
    machine = Machine(sched, "m", VAX)
    with pytest.raises(SimulationError):
        machine.interface("nope")


def test_ipcs_registry(sched):
    net = Network(sched, "a")
    machine = Machine(sched, "m", VAX)
    machine.attach_network(net)
    sentinel = object()
    machine.register_ipcs("a", "tcp", sentinel)
    assert machine.ipcs_for("a", "tcp") is sentinel
    with pytest.raises(SimulationError):
        machine.register_ipcs("a", "tcp", object())
    with pytest.raises(SimulationError):
        machine.ipcs_for("a", "mbx")


# -- processes ------------------------------------------------------------------

def test_process_lifecycle(sched):
    machine = Machine(sched, "m", VAX)
    proc = SimProcess(machine, "worker")
    assert proc.alive
    assert proc in machine.processes
    cleanup = []
    proc.at_kill(lambda: cleanup.append("a"))
    proc.at_kill(lambda: cleanup.append("b"))
    proc.kill()
    assert not proc.alive
    assert cleanup == ["b", "a"]  # newest-first teardown
    assert proc not in machine.processes


def test_process_kill_idempotent(sched):
    machine = Machine(sched, "m", VAX)
    proc = SimProcess(machine, "worker")
    count = []
    proc.at_kill(lambda: count.append(1))
    proc.kill()
    proc.kill()
    assert count == [1]


class _Resource:
    def __init__(self, log, name, on_close=None):
        self.log, self.name, self.on_close = log, name, on_close

    def close(self):
        self.log.append(self.name)
        if self.on_close is not None:
            self.on_close()


def test_kill_runs_hooks_then_closes_owned_resources_newest_first(sched):
    """The death sequence (PROTOCOL.md §10): farewell hooks run while
    the process's channels still exist, then channels, then the
    listener it created first."""
    proc = SimProcess(Machine(sched, "m", VAX), "worker")
    log = []
    proc.own(_Resource(log, "listener"))
    proc.own(_Resource(log, "channel.1"))
    proc.at_kill(lambda: log.append("deregister"))
    proc.own(_Resource(log, "channel.2"))
    proc.kill()
    assert log == ["deregister", "channel.2", "channel.1", "listener"]
    assert not proc._kill_hooks and not proc._resources


def test_resource_that_closed_first_is_forgotten(sched):
    proc = SimProcess(Machine(sched, "m", VAX), "server")
    log = []
    kept, gone = _Resource(log, "kept"), _Resource(log, "gone")
    proc.own(kept)
    proc.own(gone)
    proc.disown(gone)
    proc.disown(gone)  # idempotent
    assert list(proc._resources) == [kept]
    proc.kill()
    assert log == ["kept"]


def test_teardown_registered_mid_kill_still_runs(sched):
    """A farewell hook that opens a circuit, or a close that registers
    more cleanup, must not leave anything behind a dead process."""
    proc = SimProcess(Machine(sched, "m", VAX), "worker")
    log = []

    def farewell():
        log.append("farewell")
        proc.own(_Resource(log, "late channel"))

    proc.own(_Resource(
        log, "listener",
        on_close=lambda: proc.at_kill(lambda: log.append("late hook"))))
    proc.at_kill(farewell)
    proc.kill()
    assert log == ["farewell", "late channel", "listener", "late hook"]
    assert not proc._kill_hooks and not proc._resources


def test_pids_are_unique(sched):
    machine = Machine(sched, "m", VAX)
    pids = {SimProcess(machine, f"p{i}").pid for i in range(10)}
    assert len(pids) == 10


def test_machine_crash_kills_processes_and_interfaces(sched):
    net = Network(sched, "a")
    machine = Machine(sched, "m", VAX)
    iface = machine.attach_network(net)
    procs = [SimProcess(machine, f"p{i}") for i in range(3)]
    machine.crash()
    assert not machine.alive
    assert all(not p.alive for p in procs)
    assert iface.up is False
