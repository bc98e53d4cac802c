"""Unit tests for simulated networks, interfaces and fault injection."""

import pytest

from repro.errors import NetworkUnreachable, SimulationError
from repro.netsim import FaultPlan, Network


@pytest.fixture
def net(sched):
    return Network(sched, "testnet", latency=0.01)


def test_attach_and_send(sched, net):
    a = net.attach("hosta")
    b = net.attach("hostb")
    got = []
    b.bind_protocol("tcp", lambda d: got.append(d))
    a.send("hostb", "tcp", ("HELLO",))
    assert got == []  # not delivered before latency elapses
    sched.run_until_idle()
    assert len(got) == 1
    assert got[0].payload == ("HELLO",)
    assert got[0].src_host == "hosta"
    assert sched.now == pytest.approx(0.01)


def test_duplicate_host_rejected(net):
    net.attach("hosta")
    with pytest.raises(SimulationError):
        net.attach("hosta")


def test_unknown_destination_raises(net):
    a = net.attach("hosta")
    with pytest.raises(NetworkUnreachable):
        a.send("ghost", "tcp", ())


def test_protocol_demultiplexing(sched, net):
    a = net.attach("hosta")
    b = net.attach("hostb")
    tcp_got, mbx_got = [], []
    b.bind_protocol("tcp", lambda d: tcp_got.append(d.payload))
    b.bind_protocol("mbx", lambda d: mbx_got.append(d.payload))
    a.send("hostb", "tcp", ("T",))
    a.send("hostb", "mbx", ("M",))
    sched.run_until_idle()
    assert tcp_got == [("T",)]
    assert mbx_got == [("M",)]


def test_unbound_protocol_frame_discarded(sched, net):
    a = net.attach("hosta")
    net.attach("hostb")
    a.send("hostb", "udp", ("LOST",))
    sched.run_until_idle()  # no crash, silently dropped


def test_double_protocol_bind_rejected(net):
    a = net.attach("hosta")
    a.bind_protocol("tcp", lambda d: None)
    with pytest.raises(SimulationError):
        a.bind_protocol("tcp", lambda d: None)


def test_downed_interface_neither_sends_nor_receives(sched, net):
    a = net.attach("hosta")
    b = net.attach("hostb")
    got = []
    b.bind_protocol("tcp", lambda d: got.append(d))
    b.up = False
    a.send("hostb", "tcp", ("X",))
    sched.run_until_idle()
    assert got == []
    a.up = False
    a.send("hostb", "tcp", ("Y",))
    sched.run_until_idle()
    assert net.frames_sent == 1  # the second send never hit the wire


def test_in_order_delivery_between_pair(sched, net):
    a = net.attach("hosta")
    b = net.attach("hostb")
    got = []
    b.bind_protocol("tcp", lambda d: got.append(d.payload[0]))
    for i in range(10):
        a.send("hostb", "tcp", (i,))
    sched.run_until_idle()
    assert got == list(range(10))


def test_detach_brings_interface_down(sched, net):
    a = net.attach("hosta")
    net.attach("hostb")
    net.detach("hostb")
    assert net.interface("hostb") is None
    with pytest.raises(NetworkUnreachable):
        a.send("hostb", "tcp", ())


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------

def _wired_pair(sched, net):
    a = net.attach("hosta")
    b = net.attach("hostb")
    got = []
    b.bind_protocol("tcp", lambda d: got.append(d.payload))
    return a, b, got


def test_drop_next(sched, net):
    a, _, got = _wired_pair(sched, net)
    net.faults.drop_next(2)
    for i in range(4):
        a.send("hostb", "tcp", (i,))
    sched.run_until_idle()
    assert got == [(2,), (3,)]
    assert net.faults.dropped == 2


def test_handler_pumping_mid_train_sees_transmit_order(sched, net):
    """A handler that blocks on the first frame of a train while a
    second train arrives: both drain from the interface's one pending
    queue, so upcall order is transmit order (PROTOCOL.md §13)."""
    a = net.attach("hosta")
    b = net.attach("hostb")
    got, overlapped = [], []

    def handler(datagram):
        (n,) = datagram.payload
        got.append(n)
        if n == 0:
            sched.wait(0.02)  # the second train lands inside this wait
            overlapped.extend(got[1:])

    b.bind_protocol("tcp", handler)
    for n in range(5):
        a.send("hostb", "tcp", (n,))
    sched.wait(0.005)  # less than the latency: a separate train
    for n in range(5, 10):
        a.send("hostb", "tcp", (n,))
    sched.run_until_idle()
    assert got == list(range(10))
    assert any(n >= 5 for n in overlapped)
    assert net.trains_coalesced == 2


def test_sever_and_heal(sched, net):
    a, _, got = _wired_pair(sched, net)
    net.faults.sever("hosta", "hostb")
    a.send("hostb", "tcp", ("lost",))
    sched.run_until_idle()
    assert got == []
    net.faults.heal("hosta", "hostb")
    a.send("hostb", "tcp", ("found",))
    sched.run_until_idle()
    assert got == [("found",)]


def test_partition_blocks_across_groups(sched, net):
    a, _, got = _wired_pair(sched, net)
    c = net.attach("hostc")
    c_got = []
    c.bind_protocol("tcp", lambda d: c_got.append(d.payload))
    net.faults.partition({"hosta", "hostc"}, {"hostb"})
    a.send("hostb", "tcp", ("blocked",))
    a.send("hostc", "tcp", ("allowed",))
    sched.run_until_idle()
    assert got == []
    assert c_got == [("allowed",)]
    net.faults.heal_partition()
    a.send("hostb", "tcp", ("after",))
    sched.run_until_idle()
    assert got == [("after",)]


def test_host_outside_all_partition_groups_is_isolated():
    plan = FaultPlan()
    plan.partition({"a"}, {"b"})
    assert plan.blocks("c", "a") is True


def test_probabilistic_drop_is_deterministic():
    plan1 = FaultPlan(seed=42)
    plan2 = FaultPlan(seed=42)
    plan1.drop_probability = 0.5
    plan2.drop_probability = 0.5
    fates1 = [plan1.should_drop("a", "b") for _ in range(50)]
    fates2 = [plan2.should_drop("a", "b") for _ in range(50)]
    assert fates1 == fates2
    assert any(fates1) and not all(fates1)


def test_clear_removes_all_faults():
    plan = FaultPlan()
    plan.drop_probability = 1.0
    plan.sever("a", "b")
    plan.partition({"a"}, {"b"})
    plan.clear()
    assert plan.should_drop("a", "b") is False
