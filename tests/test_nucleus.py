"""Unit tests for the Nucleus: recursion accounting, identity, service
suppression, internal packing, machine-type directory."""

import pytest

from repro import SUN3, VAX
from repro.errors import (
    NameServerUnreachable,
    NtcsError,
    RecursionLimitExceeded,
)
from repro.ipcs import SimTcpIpcs
from repro.machine import Machine, SimProcess
from repro.netsim import Network
from repro.ntcs import message as m
from repro.ntcs.nucleus import Nucleus, NucleusConfig
from repro.ntcs.wellknown import WellKnownTable
from repro.testbed import make_registry


@pytest.fixture
def nucleus(sched):
    net = Network(sched, "ether0")
    machine = Machine(sched, "m1", VAX)
    machine.attach_network(net)
    SimTcpIpcs(machine, net)
    process = SimProcess(machine, "mod")
    return Nucleus(process, "ether0", make_registry(), WellKnownTable(),
                   config=NucleusConfig(recursion_limit=5))


def test_nucleus_requires_an_ipcs(sched):
    machine = Machine(sched, "bare", VAX)
    process = SimProcess(machine, "mod")
    with pytest.raises(NtcsError, match="no IPCS"):
        Nucleus(process, "ether0", make_registry(), WellKnownTable())


def test_initial_identity_is_a_tadd(nucleus):
    assert nucleus.self_addr.temporary
    assert nucleus.is_self(nucleus.self_addr)


def test_set_identity_remembers_past_addresses(nucleus):
    from repro.ntcs.address import make_uadd
    old = nucleus.self_addr
    uadd = make_uadd(9)
    nucleus.set_identity(uadd)
    assert nucleus.self_addr == uadd
    assert nucleus.is_self(uadd)
    assert nucleus.is_self(old)  # in-flight messages still match
    assert not nucleus.is_self(make_uadd(10))


def test_enter_tracks_depth(nucleus):
    assert nucleus.depth == 0
    with nucleus.enter("LCM", "send"):
        assert nucleus.depth == 1
        with nucleus.enter("IP", "open"):
            assert nucleus.depth == 2
        assert nucleus.depth == 1
    assert nucleus.depth == 0
    assert nucleus.max_depth_seen == 2


def test_enter_raises_at_limit_and_unwinds(nucleus):
    def recurse(n):
        with nucleus.enter("LCM", "send"):
            if n > 0:
                recurse(n - 1)

    with pytest.raises(RecursionLimitExceeded):
        recurse(10)
    assert nucleus.depth == 0  # fully unwound
    assert nucleus.max_depth_seen == 6  # limit 5, raised at 6


def test_enter_depth_restored_on_exception(nucleus):
    with pytest.raises(ValueError):
        with nucleus.enter("LCM", "send"):
            raise ValueError("boom")
    assert nucleus.depth == 0


def test_suppress_services_nests(nucleus):
    assert not nucleus.services_suppressed
    with nucleus.suppress_services():
        assert nucleus.services_suppressed
        with nucleus.suppress_services():
            assert nucleus.services_suppressed
        assert nucleus.services_suppressed
    assert not nucleus.services_suppressed


def test_timestamp_falls_back_to_machine_clock(nucleus):
    nucleus.machine.clock.offset = 3.0
    assert nucleus.timestamp() == pytest.approx(3.0)


def test_timestamp_uses_time_client_when_enabled(nucleus):
    class FakeTimeClient:
        def corrected_now(self):
            return 42.0

    nucleus.config.time_enabled = True
    nucleus.time_client = FakeTimeClient()
    assert nucleus.timestamp() == 42.0
    with nucleus.suppress_services():
        assert nucleus.timestamp() != 42.0  # suppressed → raw clock


def test_emit_monitor_respects_flags_and_suppression(nucleus):
    events = []

    class FakeMonitorClient:
        def report(self, event):
            events.append(event)

    nucleus.monitor_client = FakeMonitorClient()
    nucleus.emit_monitor({"event": "send"})
    assert events == []  # monitoring disabled
    nucleus.config.monitor_enabled = True
    nucleus.emit_monitor({"event": "send"})
    assert len(events) == 1
    with nucleus.suppress_services():
        nucleus.emit_monitor({"event": "send"})
    assert len(events) == 1


def test_pack_unpack_internal_round_trip(nucleus):
    msg = nucleus.control(m.LVC_HELLO, nucleus.self_addr, "lvc_hello", {
        "mtype": "VAX", "listen_blob": "tcp:ether0:m1:5000",
        "network": "ether0",
    })
    assert msg.flags == m.FLAG_PACKED | m.FLAG_INTERNAL
    values = nucleus.unpack_internal(msg.type_id, msg.body, lvc=None)
    assert values["mtype"] == "VAX"
    assert values["network"] == "ether0"


def test_mtype_by_name(nucleus):
    assert nucleus.mtype_by_name("Sun-3") is SUN3
    unknown = nucleus.mtype_by_name("PDP-11")
    assert not unknown.image_compatible(VAX)
    assert not unknown.image_compatible(SUN3)
    assert not nucleus.mtype_by_name("").image_compatible(VAX)


def test_require_nsp_without_attachment(nucleus):
    with pytest.raises(NameServerUnreachable):
        nucleus.require_nsp()


def test_error_log_and_client(nucleus):
    shipped = []
    nucleus.error_client = shipped.append
    nucleus.log_error("oops")
    assert nucleus.error_log == ["oops"]
    assert shipped == ["oops"]
    assert nucleus.counters["errors_logged"] == 1


def test_ns_addresses_start_with_wellknown(nucleus):
    assert nucleus.wellknown.ns_uadd in nucleus.ns_addresses
