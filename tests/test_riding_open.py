"""A call rides its circuit's open (PROTOCOL.md §3).

A new circuit's first frames go right behind its LVC_HELLO: a direct
first call's request, or a chained circuit's IVC_OPEN and the request
behind it.  The request is encoded for the machine type the address
cache (or the naming directory) holds for the destination, and the
destination answers the handshake and the request in one train.  These
tests hold the rules that make that safe:

* a hop that refuses the open delivers and splices nothing that rode
  it, and a module a direct rider reaches at a stale cached blob never
  hands it to its application;
* a request encoded for a machine type the destination does not have is
  never decoded under that guess, and the call still gets its answer;
* only calls ride;
* a gateway or server crash anywhere around a riding first call ends
  each call in its reply or a typed error, and the server runs each
  request at most once.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deployments import chain_nets, echo_server, single_net
from repro import SUN3, VAX
from repro.conversion.modes import encode_values
from repro.errors import DestinationUnavailable, NtcsError
from repro.netsim import ChaosSchedule
from repro.ntcs import message as m
from repro.ntcs.address import make_uadd
from repro.ntcs.nucleus import NucleusConfig

# The riding-HELLO tests replay each bed's wire through the declared
# machines (tests/conftest.py).
conformance = pytest.mark.usefixtures("wire_conformance")


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


# -- the riding LVC_HELLO ------------------------------------------------------

def _sent(log, host):
    """(time, header) of every NTCS frame ``host`` transmitted."""
    return [(event["at"], m.HeaderView(bytes.fromhex(blob)[4:]))
            for event in log.events if event["args"]["src"] == host
            for blob in event["args"]["frames"]]


@conformance
def test_a_direct_first_call_costs_one_train_each_way():
    """On one network a first call's request rides its LVC_HELLO and the
    reply its LVC_HELLO_ACK's train: after the connect, one instant each
    way carries the whole call, in 8 datagrams where a HELLO round trip
    first cost 10."""
    bed = single_net()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    bed.settle()
    log = bed.record_wire_trace()
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    bed.settle()
    assert reply.values == {"n": 1, "text": "X"}
    trains = {}
    for host in ("vax1", "sun1"):
        for at, header in _sent(log, host):
            trains.setdefault((host, at), []).append(header.kind)
    assert list(trains.values()) == [[m.LVC_HELLO, m.DATA],
                                     [m.LVC_HELLO_ACK, m.DATA]]
    assert len(log.events) == 8
    assert client.nucleus.counters["ivc_requests_rode_open"] == 1


@conformance
def test_a_direct_rider_under_a_wrong_machine_type_is_resent_once():
    """The client's cache says the Sun-3 server is a VAX, so its request
    rides the LVC_HELLO as a VAX image.  The server refuses to decode
    it; the LVC_HELLO_ACK names the real type, the cache learns it, and
    the client sends the request again once, packed and unmarked.  The
    handler runs once, on the right values."""
    bed = single_net()
    server, seen = _recording_server(bed, "sun.echo", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("sun.echo")
    cache = client.nucleus.addr_cache
    cache.store(uadd, cache.lookup(uadd).blob, VAX.name)
    bed.settle()
    log = bed.record_wire_trace()
    reply = client.ali.call(uadd, "echo", {"n": 258, "text": "typed"})
    assert reply.values == {"n": 258, "text": "TYPED"}
    assert [values for _src, _corr, values in seen] == [
        {"n": 258, "text": "typed"}]
    assert server.nucleus.counters["ivc_riders_refused"] == 1
    assert client.nucleus.counters["ivc_requests_rode_open"] == 1
    assert cache.lookup(uadd).mtype_name == SUN3.name
    requests = [header.flags & (m.FLAG_RIDES_OPEN | m.FLAG_PACKED)
                for _at, header in _sent(log, "vax1")
                if header.kind == m.DATA]
    assert requests == [m.FLAG_RIDES_OPEN, m.FLAG_PACKED]


@conformance
def test_a_direct_rider_at_another_live_modules_blob_is_never_delivered():
    """The client's cached blob for a dead server now belongs to another
    live module (a reused port; netsim never reuses one, so the entry is
    planted).  The request that rides the LVC_HELLO names the dead
    server: the module that answers refuses it, and its handler never
    sees it.  Its LVC_HELLO_ACK names itself, so the client takes the
    stale address as an address fault, and the call ends in the typed
    failure a dead destination gives."""
    bed = single_net()
    server = echo_server(bed, "gone.echo", "sun1")
    other, other_saw = _recording_server(bed, "other.echo", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("gone.echo")
    server.process.kill()
    bed.settle()
    client.nucleus.addr_cache.store(
        uadd, other.nucleus.nd.listen_blob, other.nucleus.mtype.name)
    with pytest.raises(NtcsError, match="no replacement module"):
        client.ali.call(uadd, "echo", {"n": 5, "text": "hi"}, timeout=5.0)
    assert other_saw == []
    assert other.nucleus.counters["ivc_riders_refused"] == 1
    assert client.nucleus.counters["ivc_requests_rode_open"] == 1


@conformance
def test_a_direct_rider_for_an_identity_the_answerer_left_is_never_delivered():
    """A direct open keeps only the UAdd it dialled, so the module that
    answers takes a direct rider only for its current UAdd.  The server
    here has moved to a new UAdd at the same blob (a re-registration,
    planted): the client's request to its old UAdd rides the HELLO,
    the server refuses it and its handler never runs, the HELLO_ACK
    names the new UAdd, and the client drops the circuit as an address
    fault, as it would for a stranger at that blob."""
    bed = single_net()
    server, saw = _recording_server(bed, "moved.echo", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("moved.echo")
    server.nucleus.set_identity(make_uadd(4243))
    assert server.nucleus.is_self(uadd)
    with pytest.raises(DestinationUnavailable,
                       match="U#4243 answered at its address"):
        client.ali.call(uadd, "echo", {"n": 6, "text": "hi"}, timeout=5.0)
    assert saw == []
    # Every attempt of every repair round rode, and each was refused.
    assert (server.nucleus.counters["ivc_riders_refused"],
            client.nucleus.counters["ivc_requests_rode_open"]) == (15, 15)


@conformance
def test_one_way_sends_and_datagrams_never_ride_a_hello():
    """Only a call's request rides: a direct one-way send and a datagram
    go out after the LVC_HELLO_ACK, unmarked."""
    bed = single_net()
    sink = bed.module("sink", "sun1")
    got = []
    sink.ali.set_request_handler(lambda msg: got.append(msg.values["n"]))
    log = bed.record_wire_trace()
    for n, (name, send) in enumerate((
            ("oneway", lambda ali, uadd: ali.send(
                uadd, "echo", {"n": 0, "text": "x"})),
            ("datagram", lambda ali, uadd: ali.datagram(
                uadd, "echo", {"n": 1, "text": "y"})))):
        client = bed.module(name, "vax1")
        send(client.ali, client.ali.locate("sink"))
        bed.settle()
        assert client.nucleus.counters["ivc_direct_opened"] >= 1
        assert client.nucleus.counters["ivc_requests_rode_open"] == 0
    assert got == [0, 1]
    assert not any(header.flags & m.FLAG_RIDES_OPEN
                   for host in ("vax1", "sun1")
                   for _at, header in _sent(log, host))


@conformance
@settings(max_examples=25, deadline=None)
@given(victim=st.sampled_from(["gwm0", "m1", "mEnd"]),
       crash_ms=st.integers(min_value=0, max_value=20),
       down_ms=st.integers(min_value=1, max_value=400))
def test_a_crash_around_a_riding_hello(victim, crash_ms, down_ms):
    """A newcomer's first calls ride their LVC_HELLOs: to a server on
    its own network (a direct rider) and to one across a gateway (an
    IVC_OPEN and its rider).  The gateway or either server's machine
    crashes at any instant around them and restarts.  Every call ends
    in its correct reply or a typed NtcsError, and each server's handler
    runs at most once per (src, corr_id)."""
    bed = chain_nets(1, config=NucleusConfig(repair_max_attempts=8))
    bed.machine("m1", SUN3, networks=["net0"])
    _near, near_seen = _recording_server(bed, "near.echo", "m1")
    _far, far_seen = _recording_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    targets = [client.ali.locate(name) for name in ("near.echo", "far.echo")]
    start = bed.now
    bed.chaos(ChaosSchedule(seed=0)
              .crash(start + crash_ms / 1000, victim)
              .restart(start + (crash_ms + down_ms) / 1000, victim))
    for n, uadd in enumerate(targets * 2):
        try:
            reply = client.ali.call(uadd, "echo", {"n": n, "text": "hello"},
                                    timeout=5.0)
        except NtcsError:
            continue
        assert reply.values == {"n": n, "text": "HELLO"}
    bed.settle()
    for seen in (near_seen, far_seen):
        runs = Counter((src, corr) for src, corr, _values in seen)
        assert all(count == 1 for count in runs.values()), runs
        assert all(values["text"] == "hello" for _s, _c, values in seen)
