"""A call rides its circuit's open (PROTOCOL.md §3).

A chained first call sends its request right behind the IVC_OPEN,
encoded for the machine type the address cache holds for the
destination, and the destination answers the IVC_OPEN_ACK and the reply
in one train.  These tests hold the rules that make that safe:

* a hop that refuses the open delivers and splices nothing that rode
  it;
* a request encoded for a machine type the destination does not have is
  never decoded under that guess, and the call still gets its answer;
* a gateway crash anywhere around a riding first call ends each call in
  its reply or a typed error, and the server runs each request at most
  once.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deployments import chain_nets, echo_server
from repro import SUN3
from repro.conversion.modes import encode_values
from repro.errors import NtcsError
from repro.netsim import ChaosSchedule
from repro.ntcs import message as m
from repro.ntcs.address import make_uadd
from repro.ntcs.nucleus import NucleusConfig


def _recording_server(bed, name, machine):
    """An echo server that records (src, corr_id, values) of every
    request its handler runs."""
    server = bed.module(name, machine)
    seen = []

    def handle(request):
        seen.append((request.src, request.corr_id, request.values))
        server.ali.reply(request, "echo", {
            "n": request.values["n"],
            "text": request.values["text"].upper(),
        })

    server.ali.set_request_handler(handle)
    return server, seen


def test_refused_chained_open_delivers_nothing_that_follows():
    """A plain module refuses an IVC_OPEN for another UAdd, and the
    request that rode it, addressed to that other module, must not
    reach the refuser's own application.  (It did: the refusal left the
    accept-time endpoint entry in place, and the victim's handler got
    ``{'n': 5, 'text': 'hi'}``.)"""
    bed = chain_nets(1)
    _victim, seen = _recording_server(bed, "victim", "mEnd")
    client = bed.module("client", "mEnd")
    victim_uadd = client.ali.locate("victim")
    nucleus = client.nucleus
    lvc = nucleus.nd.open_lvc(
        victim_uadd, nucleus.addr_cache.lookup(victim_uadd).blob)
    other = make_uadd(4242)
    ivc_open = nucleus.control(m.IVC_OPEN, other, "ivc_open", {
        "dst_network": "net1", "src_mtype": nucleus.mtype.name,
        "src_listen_blob": "",
    })
    request = m.Msg(kind=m.DATA, src=nucleus.self_addr, dst=other,
                    flags=m.FLAG_REPLY_EXPECTED | m.FLAG_RIDES_OPEN,
                    corr_id=1)
    request.type_id = bed.registry.get_by_name("echo").sdef.type_id
    mode, request.body = encode_values(
        bed.registry, request.type_id, {"n": 5, "text": "hi"},
        src=nucleus.mtype, dst=nucleus.mtype)
    request.set_mode(mode)
    nucleus.nd.send(lvc, ivc_open)
    nucleus.nd.send(lvc, request)
    bed.settle()
    counters = _victim.nucleus.counters
    assert counters["ivc_open_refused_not_gateway"] == 1
    assert counters["ivc_frames_without_circuit"] == 1
    assert seen == []


def test_rider_under_a_wrong_machine_type_is_refused_and_resent():
    """The client's cache says the Sun-3 server is a VAX, so its request
    rides the open as a VAX image.  The server refuses to decode it; the
    IVC_OPEN_ACK names the real type, the cache learns it, and the
    client sends the request again packed on the open circuit.  The
    handler runs once, on the right values."""
    bed = chain_nets(2)
    bed.machine("sunEnd", SUN3, networks=["net2"])
    server, seen = _recording_server(bed, "sun.echo", "sunEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("sun.echo")
    cache = client.nucleus.addr_cache
    blob = cache.lookup(uadd).blob
    cache.store(uadd, blob, client.nucleus.mtype.name)
    reply = client.ali.call(uadd, "echo", {"n": 258, "text": "typed"})
    assert reply.values == {"n": 258, "text": "TYPED"}
    assert [values for _src, _corr, values in seen] == [
        {"n": 258, "text": "typed"}]
    assert server.nucleus.counters["ivc_riders_refused"] == 1
    assert client.nucleus.counters["ivc_requests_rode_open"] == 1
    assert cache.lookup(uadd).mtype_name == SUN3.name
    assert cache.lookup(uadd).blob == blob


def test_one_way_sends_and_datagrams_never_ride():
    bed = chain_nets(1)
    sink = bed.module("sink", "mEnd")
    got = []
    sink.ali.set_request_handler(lambda msg: got.append(msg.values["n"]))
    for name, send in (("oneway", lambda ali, uadd: ali.send(
            uadd, "echo", {"n": 1, "text": "x"})),
                       ("datagram", lambda ali, uadd: ali.datagram(
            uadd, "echo", {"n": 2, "text": "y"}))):
        client = bed.module(name, "m0")
        send(client.ali, client.ali.locate("sink"))
        bed.settle()
        assert client.nucleus.counters["ivc_chained_opened"] >= 1
        assert client.nucleus.counters["ivc_requests_rode_open"] == 0
    assert got == [1, 2]


@settings(max_examples=25, deadline=None)
@given(victim=st.sampled_from(["gwm0", "gwm1"]),
       crash_ms=st.integers(min_value=0, max_value=40),
       down_ms=st.integers(min_value=1, max_value=600))
def test_gateway_crash_around_a_riding_first_call(victim, crash_ms, down_ms):
    """A gateway of chain_nets(2) crashes at any instant around the
    client's first call, whose request rides the open, and restarts.
    Every call ends in its correct reply or a typed NtcsError, and the
    server's handler runs at most once per (src, corr_id)."""
    bed = chain_nets(2, config=NucleusConfig(repair_max_attempts=8))
    _server, seen = _recording_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    start = bed.now
    bed.chaos(ChaosSchedule(seed=0)
              .crash(start + crash_ms / 1000, victim)
              .restart(start + (crash_ms + down_ms) / 1000, victim))
    for n in range(2):
        try:
            reply = client.ali.call(uadd, "echo", {"n": n, "text": "open"},
                                    timeout=5.0)
        except NtcsError:
            continue
        assert reply.values == {"n": n, "text": "OPEN"}
    bed.settle()
    runs = Counter((src, corr) for src, corr, _values in seen)
    assert all(count == 1 for count in runs.values()), runs
    assert all(values["text"] == "open" for _s, _c, values in seen)


@pytest.mark.parametrize("victim, inbound, outbound, held", [
    # Its inbound leg dies, and the IPCS discards the rider with it.
    ("gwm0", "net0", "net1", 0),
    # It holds the rider and gwm0's IVC_CLOSE.
    ("gwm1", "net1", "net2", 2),
])
def test_gateway_sends_nothing_on_for_an_open_that_ends_while_it_dials(
        victim, inbound, outbound, held):
    """The client's first circuit fails while a gateway dials its next
    hop.  At gwm0 the inbound leg is then dead; gwm1 holds the
    IVC_CLOSE gwm0 sends behind the open and its rider.  Either way the
    gateway sends nothing on, drops what it held, and parks the leg it
    dialled, which the client's retry takes; no splice holds a dead leg.
    The abandoned rider never reaches the server: its handler runs once,
    on the retry."""
    bed = chain_nets(2)
    server, seen = _recording_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    gateway = bed.gateways[victim]
    dial = gateway._open_next_hop
    failed = []

    def dial_while_the_circuit_fails(dst, *args):
        legs = dial(dst, *args)
        if dst == uadd and not failed:
            ip = client.nucleus.ip
            opening = [ivc for ivc in ip._by_lvc.values()
                       if ivc.state == "OPENING"]
            failed.extend(opening)
            for ivc in opening:
                ip.close(ivc, "first hop failed", notify=False)
            bed.scheduler.pump_until(lambda: False, timeout=0.05)
        return legs

    gateway._open_next_hop = dial_while_the_circuit_fails
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    bed.settle()
    assert len(failed) == 1
    assert reply.values == {"n": 1, "text": "X"}
    assert len(seen) == 1
    assert server.nucleus.counters["lcm_duplicate_requests_suppressed"] == 0
    stacks = gateway.stacks
    assert stacks[inbound].counters["gateway_held_frames_dropped"] == held
    assert stacks[outbound].counters["gateway_legs_reused"] == 1
    assert all(lvc.open for gw in bed.gateways.values() for lvc in gw._splices)
