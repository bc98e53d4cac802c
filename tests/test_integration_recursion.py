"""Integration tests for recursion in the NTCS (paper Sec. 6): the
Sec. 6.1 first-send scenario, layer tracing, and the Sec. 6.3 runaway
Name-Server recursion with and without the LCM patch."""

import pytest

from deployments import echo_server, register_app_types, single_net
from repro import Testbed, VAX
from repro.drts.monitor import Monitor, enable_monitoring
from repro.drts.timeservice import TimeServer, enable_time_correction
from repro.errors import NameServerUnreachable, RecursionLimitExceeded
from repro.ntcs.nucleus import NucleusConfig
from repro.util.trace import LayerTracer


def _scenario_bed():
    """single_net plus monitor and time-server modules."""
    bed = single_net()
    monitor = Monitor(bed.module("mon.host", "sun1", register=False))
    time_server = TimeServer(bed.module("time.host", "vax1", register=False))
    return bed, monitor, time_server


def test_first_send_scenario_recurses(monkeypatch=None):
    """Sec. 6.1: a first send with monitoring and time correction
    enabled recursively invokes the ComMod for time service, resource
    location, and monitor data."""
    bed, monitor, time_server = _scenario_bed()
    echo_server(bed, "dest", "sun1")
    plain = bed.module("plain.client", "vax1")
    client = bed.module("client", "vax1")
    enable_monitoring(client)
    time_client = enable_time_correction(client)

    # The identical cold send from an uninstrumented client, for scale.
    plain_uadd = plain.ali.locate("dest")
    plain.ali.call(plain_uadd, "echo", {"n": 0, "text": "plain"})

    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "cold"})
    bed.settle()

    assert time_client.syncs >= 1          # recursive time exchange ran
    assert monitor.count("send") >= 1      # monitor data delivered
    # Monitoring + time make the instrumented module's Nucleus re-enter
    # more deeply than the plain one's.
    assert client.nucleus.max_depth_seen > plain.nucleus.max_depth_seen


def test_blocking_handler_nests_pumps():
    """A server whose handler performs its own blocking call (the
    URSA search-server shape) re-enters the event pump while the
    client's pump is active — genuine nested blocking."""
    bed = single_net()
    echo_server(bed, "inner", "sun1")
    outer = bed.module("outer", "sun1")

    def outer_handler(request):
        inner_uadd = outer.ali.locate("inner")        # blocks inside pump
        inner_reply = outer.ali.call(inner_uadd, "echo", {
            "n": request.values["n"], "text": request.values["text"],
        })
        outer.ali.reply(request, "echo", {
            "n": inner_reply.values["n"],
            "text": "outer+" + inner_reply.values["text"],
        })

    outer.ali.set_request_handler(outer_handler)
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("outer")
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "deep"})
    assert reply.values["text"] == "outer+DEEP"
    assert bed.scheduler.max_pump_depth_seen >= 2


def test_warm_send_recurses_less_than_cold():
    bed, monitor, time_server = _scenario_bed()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    enable_monitoring(client)
    enable_time_correction(client, refresh_interval=3600.0)

    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "cold"})
    cold_nsp_calls = client.nucleus.counters["nsp_calls"]
    client.ali.call(uadd, "echo", {"n": 2, "text": "warm"})
    warm_nsp_calls = client.nucleus.counters["nsp_calls"] - cold_nsp_calls
    assert warm_nsp_calls == 0  # everything located and cached


def test_monitor_sends_do_not_recurse_into_monitoring():
    """"time correction and monitoring are disabled here, to avoid the
    obvious infinite recursion" (Sec. 6.1)."""
    bed, monitor, time_server = _scenario_bed()
    sink = bed.module("sink", "sun1")
    client = bed.module("client", "vax1")
    mon_client = enable_monitoring(client)
    uadd = client.ali.locate("sink")
    client.ali.send(uadd, "echo", {"n": 1, "text": "x"})
    bed.settle()
    reported = mon_client.reported
    assert reported >= 1
    # Monitor events report the application send, not the monitor's own
    # datagrams (which would diverge).
    assert all(e["msg_type"] != "monitor_event" for e in monitor.events)


def test_layer_trace_matches_architecture():
    """E1: one send traverses ALI → LCM → IP → ND, top down — the
    paper's Figs. 2-1…2-4 layering, observed rather than asserted."""
    config = NucleusConfig(trace=True)
    bed = single_net(config=config)
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.nucleus.tracer.clear()
    client.ali.send(uadd, "echo", {"n": 1, "text": "x"})
    layers = [r.layer for r in client.nucleus.tracer.records
              if r.phase == "enter"]
    # Order of first appearance must be top-down.
    first_idx = {layer: layers.index(layer)
                 for layer in ("ALI", "LCM", "IP", "ND") if layer in layers}
    assert set(first_idx) == {"ALI", "LCM", "IP", "ND"}
    assert first_idx["ALI"] < first_idx["LCM"] < first_idx["IP"] < first_idx["ND"]


def test_trace_records_caller_and_reason():
    """Sec. 6.2: "one must also know *why* a layer is being called, and
    *who* is calling it"."""
    config = NucleusConfig(trace=True)
    bed = single_net(config=config)
    client = bed.module("client", "vax1")
    records = client.nucleus.tracer.records
    ali_records = [r for r in records if r.layer == "ALI"]
    assert any(r.caller == "application" for r in ali_records)
    assert any(r.reason for r in records)


def test_trace_selectivity():
    """Sec. 6.2 asks for "adequate selectivity": layer filters."""
    bed = single_net()
    client = bed.module("client", "vax1", register=False)
    tracer = LayerTracer(clock=lambda: bed.scheduler.now, layers={"LCM"})
    client.nucleus.tracer = tracer
    client.ali.register("client")
    assert tracer.records
    assert all(r.layer == "LCM" for r in tracer.records)


# -- the Sec. 6.3 pathological case --------------------------------------------

def _ns_loop_bed(patch: bool):
    config = NucleusConfig(ns_fault_patch=patch, open_timeout=0.5,
                           call_timeout=1.0, recursion_limit=48)
    bed = single_net(config=config)
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1", config=NucleusConfig(
        ns_fault_patch=patch, open_timeout=0.5, call_timeout=1.0,
        recursion_limit=48))
    return bed, client


def test_unpatched_ns_circuit_break_recurses_to_stack_overflow():
    """Sec. 6.3 verbatim: the broken Name-Server circuit sends the
    unpatched LCM through ND → LCM trap → NSP → ND ... "until either
    the stack overflows, or the connection can be reestablished"."""
    bed, client = _ns_loop_bed(patch=False)
    client.ali.ping_name_server()
    # Break the NS circuit and keep the NS unreachable.
    bed.networks["ether0"].faults.sever("vax1", "vax1")  # no-op guard
    bed.networks["ether0"].faults.partition({"vax1"}, {"sun1"})
    # vax1 hosts both client and NS... partition within one host is
    # impossible; instead kill the NS listener by crashing its process
    # while keeping the machine up.
    bed.networks["ether0"].faults.heal_partition()
    bed.name_server_instance.process.kill()
    bed.settle()
    with pytest.raises(RecursionLimitExceeded):
        client.ali.locate("dest")
    assert client.nucleus.max_depth_seen >= 40


def test_unpatched_recursion_unwinds_if_ns_comes_back():
    """The other arm of "whichever occurs first": if the connection can
    be reestablished mid-recursion, the stack unwinds successfully."""
    bed, client = _ns_loop_bed(patch=False)
    client.ali.ping_name_server()
    # Make exactly the next few connection attempts fail, then recover.
    ns_host = bed.name_server_instance.nucleus.machine.name
    client.nucleus.lcm._drop_route(bed.wellknown.ns_uadd)
    bed.settle()
    bed.networks["ether0"].faults.drop_next(6)  # a few SYNs vanish
    uadd = client.ali.locate("dest")  # recurses, then succeeds
    assert uadd is not None
    assert client.nucleus.max_depth_seen > 4


def test_patched_ns_fault_is_bounded():
    """With the LCM patch the same failure yields a clean, bounded
    NameServerUnreachable instead of runaway recursion."""
    bed, client = _ns_loop_bed(patch=True)
    client.ali.ping_name_server()
    bed.name_server_instance.process.kill()
    bed.settle()
    with pytest.raises(NameServerUnreachable):
        client.ali.locate("dest")
    assert client.nucleus.counters["ns_fault_patch_hits"] >= 1
    assert client.nucleus.max_depth_seen < 20


def test_patched_ns_fault_recovers_when_ns_returns():
    bed, client = _ns_loop_bed(patch=True)
    client.ali.ping_name_server()
    client.nucleus.lcm._drop_route(bed.wellknown.ns_uadd)
    bed.settle()
    bed.networks["ether0"].faults.drop_next(2)
    uadd = client.ali.locate("dest")
    assert uadd is not None


def test_recursion_limit_is_configurable():
    config = NucleusConfig(recursion_limit=3)
    bed = Testbed(config=config)
    bed.network("ether0", protocol="tcp")
    bed.machine("vax1", VAX, networks=["ether0"])
    bed.name_server("vax1")
    register_app_types(bed)
    # Even registration (ALI→NSP→LCM→IP→ND) exceeds a limit of 3.
    with pytest.raises(RecursionLimitExceeded):
        bed.module("client", "vax1")
