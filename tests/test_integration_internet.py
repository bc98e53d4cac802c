"""Integration tests for the portable internet scheme (paper Sec. 4):
chained IVCs, gateway autonomy, teardown propagation."""

import pytest

from deployments import (
    SIM,
    chain_nets,
    echo_server,
    sharded_chain,
    two_nets,
    veteran_of_far_echo,
)
from repro.drts.proctl import ProcessController
from repro.errors import (
    DestinationUnavailable,
    NameServerUnreachable,
    NtcsError,
    RouteNotFound,
)
from repro.ntcs.nucleus import NucleusConfig
from repro.util.counters import GATEWAY_STALE_ADDR_FALLBACKS


def test_direct_ivc_on_same_network():
    bed = two_nets()
    echo_server(bed, "echo", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("echo")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    assert client.nucleus.counters["ivc_direct_opened"] >= 1
    assert client.nucleus.counters["ivc_chained_opened"] == 0


def test_chained_ivc_through_one_gateway():
    bed = two_nets()
    echo_server(bed, "ring.echo", "apollo1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("ring.echo")
    reply = client.ali.call(uadd, "echo", {"n": 7, "text": "thru"})
    assert reply.values["text"] == "THRU"
    assert client.nucleus.counters["ivc_chained_opened"] >= 1
    gw = bed.gateways["gw1"]
    assert gw.circuits_established >= 1
    assert gw.messages_forwarded > 0


@pytest.mark.parametrize("hops", [1, 2, 3, 4])
def test_chained_ivc_through_n_gateways(hops):
    """One circuit across a chain of ``hops`` gateways."""
    bed = chain_nets(hops)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    reply = client.ali.call(uadd, "echo", {"n": hops, "text": "far"})
    assert reply.values["text"] == "FAR"
    # Every gateway on the path spliced exactly one circuit for this
    # conversation (they may also carry naming traffic).
    for i in range(hops):
        assert bed.gateways[f"gwm{i}"].circuits_established >= 1


def test_no_inter_gateway_control_plane():
    """Sec. 4.2: "no inter-gateway communication ever takes place" —
    there is no routing protocol between gateways, only circuits."""
    bed = chain_nets(3)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    client.ali.call(uadd, "echo", {"n": 0, "text": "x"})
    for gw in bed.gateways.values():
        assert gw.inter_gateway_control_messages == 0


# E5 — what establishing one conversation across k gateways costs,
# pinned layer by layer.  The ND-Layer message count is the paper-level
# invariant (Sec. 4.2: each hop is an ordinary LVC set up by its two
# ends, so the cost grows with the hops and nothing else).  The
# datagram count is the same establishment seen from the wire — every
# ND message twice (sim-TCP DATA + ACK) plus a SYN/SYNACK pair per new
# connection — a *substrate* pin that substrate work may move, once,
# with old -> new recorded in CHANGES.md.  The locate hands the client
# the destination's location (PROTOCOL.md §5), so the call asks naming
# nothing: every row is one client <-> Name-Server round trip (2 ND
# messages, 4 datagrams) below what a separate ns_resolve_uadd cost.
# The call's request rides its circuit's IVC_OPEN and the reply its
# IVC_OPEN_ACK, one train per hop each way (PROTOCOL.md §3), so the ND
# messages hold while each hop sends two ACKs fewer: 60/120/198/294
# datagrams and increments 50/60/78/96 before.  A circuit's first frames
# ride its LVC_HELLO (PROTOCOL.md §3): the direct call's request, and the
# IVC_OPEN of each chained circuit a stack dials on the way (the
# client's first hop, each gateway's first naming circuit), one ACK
# fewer each: 10/56/114/190/284 datagrams and increments 46/58/76/94
# before.
E5_ND_MESSAGES = {0: 4, 1: 26, 2: 52, 3: 86, 4: 128}
E5_SUBSTRATE_DATAGRAMS = {0: 8, 1: 54, 2: 111, 3: 186, 4: 279}
# What each further gateway adds: the paper-level claim itself.
E5_ND_INCREMENTS = [22, 26, 34, 42]
E5_DATAGRAM_INCREMENTS = [46, 57, 75, 93]


def _establish(hops, substrate=SIM):
    """First call across ``hops`` gateways; returns the bed and what
    the call cost in (ND-Layer messages, netsim datagrams)."""
    bed = chain_nets(hops, substrate=substrate)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    nuclei = [commod.nucleus for commod in bed.modules.values()]
    nuclei.append(bed.name_server_instance.nucleus)
    for gateway in bed.gateways.values():
        nuclei.extend(gateway.stacks.values())

    def cost():
        return (sum(n.counters["nd_messages_sent"] for n in nuclei),
                sum(net.frames_sent for net in bed.networks.values()))

    before = cost()
    client.ali.call(uadd, "echo", {"n": 0, "text": "establish"})
    return bed, tuple(b - a for a, b in zip(before, cost()))


@pytest.mark.parametrize("substrate, hops", [
    pytest.param(name, hops, id=prefix + str(hops))
    for name, prefix in (("sim", ""), ("real", "real-"))
    for hops in sorted(E5_ND_MESSAGES)
], indirect=["substrate"])
def test_e5_establishment_nd_messages(substrate, hops):
    """The paper-level pin is substrate-independent: over real loopback
    sockets the same ND messages cross the same gateways, and no netsim
    frame crosses an ``rtcp`` network."""
    bed, (nd_messages, _) = _establish(hops, substrate)
    assert nd_messages == E5_ND_MESSAGES[hops]
    assert all(gw.inter_gateway_control_messages == 0
               for gw in bed.gateways.values())
    assert all(net.frames_sent == 0 for net in bed.networks.values()
               if net.protocol == "rtcp")


@pytest.mark.parametrize("hops", sorted(E5_SUBSTRATE_DATAGRAMS))
def test_e5_establishment_substrate_datagrams(hops):
    _, (_, datagrams) = _establish(hops)
    assert datagrams == E5_SUBSTRATE_DATAGRAMS[hops]


def test_e5_cost_grows_with_the_hops_and_nothing_else():
    """Sec. 4.2: a further gateway adds the same cost whatever naming
    spends on the way.  The per-hop increments did not move when the
    locate began to carry the destination's record."""
    def increments(pins):
        rows = [pins[hops] for hops in sorted(pins)]
        return [b - a for a, b in zip(rows, rows[1:])]

    assert increments(E5_ND_MESSAGES) == E5_ND_INCREMENTS
    assert increments(E5_SUBSTRATE_DATAGRAMS) == E5_DATAGRAM_INCREMENTS


# What one death costs on the wire (PROTOCOL.md §10, "Process death"):
# frames from kill() until the bed settles, per arrival-train window.
# Each later hop of the teardown receives IVC_CLOSE and acknowledges it;
# the gateway keeps the leg, so no CLOSE follows (PROTOCOL.md §3, "Kept
# legs").  The windows still differ where a connection's CLOSE arrives
# in one train with what it would have been answered (PROTOCOL.md §13).
# Before gateways kept their legs: 11/8, 8/6 and 14/10.
TEARDOWN_FRAMES = {
    "chain2_client": {1: 8, 64: 8},
    "two_nets_client": {1: 6, 64: 6},
    "two_nets_ring_server": {1: 11, 64: 10},
}
_TEARDOWNS = {
    # (deployment, server machine, client machine, who dies)
    "chain2_client": (lambda config: chain_nets(2, config=config),
                      "mEnd", "m0", "client"),
    "two_nets_client": (lambda config: two_nets(config=config),
                        "apollo1", "vax1", "client"),
    "two_nets_ring_server": (lambda config: two_nets(config=config),
                             "apollo1", "vax1", "server"),
}


@pytest.mark.parametrize("train_max", [1, 64])
@pytest.mark.parametrize("name", sorted(TEARDOWN_FRAMES))
def test_teardown_frame_census(name, train_max):
    build, server_machine, client_machine, victim = _TEARDOWNS[name]
    bed = build(NucleusConfig(train_max=train_max))
    server = echo_server(bed, "echo", server_machine)
    client = bed.module("client", client_machine)
    uadd = client.ali.locate("echo")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    bed.settle()
    before = sum(net.frames_sent for net in bed.networks.values())
    (client if victim == "client" else server).process.kill()
    bed.settle()
    frames = sum(net.frames_sent for net in bed.networks.values()) - before
    assert frames == TEARDOWN_FRAMES[name][train_max]


def test_gateways_splice_without_copy_or_checksum():
    """Sec. 5's "no needless conversions" at the gateway: every frame a
    3-gateway chain forwards in steady state (naming traffic, one warm
    call, ten more) goes out as the bytes that came in, its header
    checksum left for the terminating endpoint to verify."""
    bed = chain_nets(3)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    client.ali.call(uadd, "echo", {"n": 0, "text": "warm"})
    t0 = bed.now
    for i in range(10):
        client.ali.call(uadd, "echo", {"n": i, "text": "steady"})
    assert round((bed.now - t0) * 1000, 4) == 80.0  # 8 virtual ms a call
    gateways = bed.gateways.values()
    assert sum(gw.frames_forwarded_zero_copy for gw in gateways) == 107
    assert sum(gw.checksum_verifies_deferred for gw in gateways) == 107


def test_end_to_end_machine_type_across_gateway():
    """Conversion mode must reflect the *end-to-end* pair, not the
    gateway hops: VAX client → (Apollo gateway) → Apollo server must
    still be packed (VAX vs Apollo), and Sun client → Apollo server
    image, regardless of what the gateway machine is."""
    bed = two_nets()
    sink = bed.module("ring.sink", "apollo1")
    vax_client = bed.module("vax.client", "vax1")
    sun_client = bed.module("sun.client", "sun1")
    uadd = vax_client.ali.locate("ring.sink")
    vax_client.ali.send(uadd, "numbers", {"a": 0x01020304, "b": -2, "big": 2 ** 40})
    sun_client.ali.send(uadd, "numbers", {"a": 0x01020304, "b": -2, "big": 2 ** 40})
    bed.settle()
    first = sink.ali.receive(timeout=1.0)
    second = sink.ali.receive(timeout=1.0)
    by_mode = {m.mode: m for m in (first, second)}
    assert set(by_mode) == {0, 1}  # one image, one packed
    # Both decoded correctly despite the byte-order difference.
    for message in (first, second):
        assert message.values["a"] == 0x01020304
        assert message.values["b"] == -2
        assert message.values["big"] == 2 ** 40


def test_route_not_found_without_gateway():
    bed = two_nets()
    # A second ring with no gateway to it.
    bed.network("ring9", protocol="mbx")
    from repro.machine import APOLLO
    bed.machine("lonely", APOLLO, networks=["ring9"])
    client = bed.module("client", "vax1")
    # The lonely module cannot even register (no path to the NS) —
    # build its record by hand to test the client-side routing error.
    record = bed.name_server_instance.db.register(
        "lonely.mod", {}, [("ring9", "mbx:ring9://lonely/mbx/x")], "Apollo")
    with pytest.raises((RouteNotFound, DestinationUnavailable)):
        client.ali.call(record.uadd, "echo", {"n": 1, "text": "x"}, timeout=1.0)


def test_gateway_death_propagates_teardown():
    """Sec. 4.3: killing a middle gateway closes the chained circuit
    hop-by-hop back to the originator."""
    bed = chain_nets(2)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    client.ali.call(uadd, "echo", {"n": 1, "text": "warm"})

    victim = bed.gateways["gwm1"]
    victim.process.kill()
    bed.settle()
    # The surviving gateway propagated the teardown.
    assert bed.gateways["gwm0"].teardowns_propagated >= 1
    # The client's circuit died; a new call fails (no alternate route).
    with pytest.raises(DestinationUnavailable):
        client.ali.call(uadd, "echo", {"n": 2, "text": "x"}, timeout=1.0)


def test_endpoint_death_tears_down_chain():
    """The other direction: the destination dies; gateways unwind."""
    bed = chain_nets(2)
    server = echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    client.ali.call(uadd, "echo", {"n": 1, "text": "warm"})
    gw_splices = bed.gateways["gwm0"].splice_count()
    assert gw_splices >= 1
    server.process.kill()
    bed.settle()
    assert bed.gateways["gwm0"].splice_count() < gw_splices
    assert client.nucleus.counters["lcm_circuit_faults"] >= 1


def test_gateway_restored_circuit_after_reopen():
    """After a teardown the originator can re-establish through the
    same gateways (establishment is autonomous per circuit)."""
    bed = chain_nets(1)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    client.ali.call(uadd, "echo", {"n": 1, "text": "a"})
    # Force-close the client's circuit.
    client.nucleus.lcm._drop_route(uadd)
    bed.settle()
    reply = client.ali.call(uadd, "echo", {"n": 2, "text": "b"})
    assert reply.values["text"] == "B"
    assert bed.gateways["gwm0"].circuits_established >= 2


# One cold contact from each end of sharded_chain(2, 2, 2), after one
# warm-up contact from each end: a newcomer registers, locates the echo
# server at the other end, calls it once and dies.  Pinned: its topology
# queries, and the frames from its creation until the bed settles after
# its death.  A newcomer on mEnd registered through its prime gateway
# gwm1, so its first call into net0 goes out on the route that circuit
# proved (PROTOCOL.md §3) and asks no shard for ns_list_gw: (1, 175)
# before the IP-Layer kept proven first hops.  The m0 newcomer has no
# chained circuit before its call, and still asks once.  The warm-up
# contacts left the gateways' legs parked, so each contact's circuits
# open on them: (0, 151) and (1, 83) before gateways kept their legs.
# Each chained call's request rides its circuit's open and its reply the
# IVC_OPEN_ACK (PROTOCOL.md §3): (0, 121) and (1, 71) before.  Each
# circuit's first frames ride its LVC_HELLO: (0, 104) and (1, 65) before.
COLD_CONTACT = {"mEnd": (0, 101), "m0": (1, 61)}


def test_cold_contact_census_from_each_end():
    bed, _groups = sharded_chain(hops=2, shards=2, replicas=2)
    servers = {"mEnd": "near.echo", "m0": "far.echo"}
    echo_server(bed, "near.echo", "m0")
    echo_server(bed, "far.echo", "mEnd")
    bed.settle()

    def contact(name, machine):
        frames = lambda: sum(net.frames_sent for net in bed.networks.values())
        before = frames()
        newcomer = bed.module(name, machine)
        uadd = newcomer.ali.locate(servers[machine])
        newcomer.ali.call(uadd, "echo", {"n": 1, "text": "x"})
        queries = newcomer.nucleus.counters["topology_queries"]
        newcomer.process.kill()
        bed.settle()
        return queries, frames() - before

    for machine in servers:
        contact(f"warm.{machine}", machine)
    assert {machine: contact(f"new.{machine}", machine)
            for machine in servers} == COLD_CONTACT


@pytest.mark.parametrize("fault, elapsed_ms", [
    ("crash", 22958.8012),
    ("kill", 9927.8012),
])
def test_learned_first_hop_dies(fault, elapsed_ms):
    """A newcomer on mEnd learned net0 through gwm1 at registration;
    then gwm1 fails.  The next call dials the learned hop, evicts it and
    marks gwm1 suspect; naming is behind the same gateway, so the call
    ends in a typed ``NameServerUnreachable`` rather than a replan, and
    does not hang.  (The newcomer that planned from topology failed the
    same way, after 22823.8012 and 9923.8012 virtual ms.)"""
    bed, _groups = sharded_chain(hops=2, shards=2, replicas=2)
    echo_server(bed, "near.echo", "m0")
    bed.settle()
    newcomer = bed.module("newcomer", "mEnd")
    uadd = newcomer.ali.locate("near.echo")
    ip = newcomer.nucleus.ip
    gwm1 = bed.gateways["gwm1"]
    assert ip.route_cache["net0"][0] == gwm1.uadd
    if fault == "crash":
        bed.machines["gwm1"].crash()
    else:
        gwm1.process.kill()
    bed.settle()
    start = bed.now
    with pytest.raises(NameServerUnreachable):
        newcomer.ali.call(uadd, "echo", {"n": 1, "text": "x"}, timeout=5.0)
    assert round((bed.now - start) * 1000, 4) == elapsed_ms
    assert "net0" not in ip.route_cache
    assert gwm1.uadd in ip._suspect_gateways
    assert newcomer.nucleus.counters["topology_queries"] == 0


def test_topology_cached_after_first_route():
    """Sec. 4.2: topology is read from the naming service only at
    establishment; repeated circuits to the same network reuse the
    cached first hop."""
    bed = chain_nets(1)
    echo_server(bed, "far.echo", "mEnd")
    echo_server(bed, "far.echo2", "mEnd")
    client = bed.module("client", "m0")
    uadd1 = client.ali.locate("far.echo")
    client.ali.call(uadd1, "echo", {"n": 1, "text": "x"})
    queries_after_first = client.nucleus.counters["topology_queries"]
    uadd2 = client.ali.locate("far.echo2")
    client.ali.call(uadd2, "echo", {"n": 2, "text": "y"})
    assert client.nucleus.counters["topology_queries"] == queries_after_first


# The final chain hop reads its stack's address cache (PROTOCOL.md §3,
# "IVC through gateways"): the gateway dials the blob the open protocol
# taught it at the destination's last HELLO, and asks the naming service
# only on a miss or when that blob no longer answers.  The hostile cases
# below pin the stale-entry fallbacks, the originator's outcome and the
# virtual time to it, next to the time the naming-first final hop (which
# resolved before every connect) took on the same script.

def _gateway_count(bed, name):
    return sum(nucleus.counters[name] for gateway in bed.gateways.values()
               for nucleus in gateway.stacks.values())


def _call_again(bed, veteran, uadd):
    """The veteran's next call to ``uadd``: (reply or the NtcsError it
    raised, virtual seconds it took, gateway stale-entry fallbacks and
    gateway naming calls it caused)."""
    fallbacks = _gateway_count(bed, GATEWAY_STALE_ADDR_FALLBACKS)
    nsp_calls = _gateway_count(bed, "nsp_calls")
    start = bed.now
    try:
        outcome = veteran.ali.call(uadd, "echo", {"n": 1, "text": "again"},
                                   timeout=5.0)
    except NtcsError as exc:
        outcome = exc
    elapsed = bed.now - start
    bed.settle()
    return (outcome, elapsed,
            _gateway_count(bed, GATEWAY_STALE_ADDR_FALLBACKS) - fallbacks,
            _gateway_count(bed, "nsp_calls") - nsp_calls)


def test_stale_entry_of_a_relocated_destination_forwards():
    """(a) The destination is killed and re-registered as a new process:
    its old blob refuses the connect, the gateway falls back to naming
    and NAKs, and the veteran's LCM follows the forwarding to the
    replacement.  Naming-first: 0.060000000000000026 s, 2 naming calls;
    the repaired circuit now opens on gwm0's parked leg to gwm1, and
    0.052000000000000046 s before the request rode the open, and
    0.04600000000000004 s before the IVC_OPEN rode the LVC_HELLO."""
    bed, _groups = sharded_chain(hops=2, shards=2, replicas=2)
    _server, veteran, uadd = veteran_of_far_echo(bed)

    def rebuild(_old, new):
        new.ali.set_request_handler(lambda request: new.ali.reply(
            request, "echo", {"n": request.values["n"],
                              "text": request.values["text"].upper()}))

    ProcessController(bed).relocate("far.echo", "mEnd", rebuild=rebuild)
    bed.settle()
    reply, elapsed, fallbacks, nsp_calls = _call_again(bed, veteran, uadd)
    assert reply.values["text"] == "AGAIN"
    assert veteran.nucleus.counters["lcm_relocations_followed"] == 1
    assert (elapsed, fallbacks, nsp_calls) == (0.04200000000000004, 1, 2)


def test_stale_entry_of_a_crashed_machine_costs_one_connect_round():
    """(b) The destination's machine crashes: the cached blob times out,
    naming still names the same blob, so the gateway NAKs at once rather
    than dialling it a second time.  The connect attempts on the far
    network and the naming calls equal the naming-first hop's (30
    attempts, 15 calls).  So did the time to the typed failure,
    2.583001646631283 s, before each retry's circuit opened on gwm0's
    parked leg to gwm1, and 2.523001646631289 s before each retry's
    IVC_OPEN rode its LVC_HELLO."""
    bed, _groups = sharded_chain(hops=2, shards=2, replicas=2)
    _server, veteran, uadd = veteran_of_far_echo(bed)
    far_stack = bed.gateways["gwm1"].stacks["net2"]
    bed.machines["mEnd"].crash()
    bed.settle()
    outcome, elapsed, fallbacks, nsp_calls = _call_again(bed, veteran, uadd)
    assert isinstance(outcome, DestinationUnavailable)
    assert (elapsed, fallbacks, nsp_calls) == (2.493001646631291, 1, 15)
    assert far_stack.counters["nd_open_retries"] == 30


def test_cached_blob_of_another_live_module_is_refused_by_the_endpoint():
    """(c) The cached blob now belongs to a different live module (a
    reused port; netsim never reuses one, so the entry is planted).  The
    impostor's IP-Layer refuses the chained open with its
    not-a-gateway NAK, which the originator sees as the same typed
    failure the naming-first hop gave (0.9640016466313124 s, 5 naming
    calls; 0.9440016466313128 s before the retries opened on gwm0's
    parked leg to gwm1; 0.9240016466313135 s before each IVC_OPEN rode
    its LVC_HELLO).  No hang, no untyped exception.  The request
    that rode each refused open is dropped at the impostor, never handed
    to its application (PROTOCOL.md §3)."""
    bed, _groups = sharded_chain(hops=2, shards=2, replicas=2)
    server, veteran, uadd = veteran_of_far_echo(bed)
    impostor = echo_server(bed, "other.echo", "mEnd")
    impostor_saw = []
    impostor.ali.set_request_handler(impostor_saw.append)
    server.process.kill()
    bed.settle()
    bed.gateways["gwm1"].stacks["net2"].addr_cache.store(
        uadd, impostor.nucleus.nd.listen_blob, impostor.nucleus.mtype.name)
    outcome, elapsed, fallbacks, nsp_calls = _call_again(bed, veteran, uadd)
    assert isinstance(outcome, DestinationUnavailable)
    assert "no replacement module" in str(outcome)
    assert (elapsed, fallbacks, nsp_calls) == (0.9140016466313137, 0, 0)
    assert impostor.nucleus.counters["ivc_open_refused_not_gateway"] == 5
    # Per refused open: the request that rode it, and the IVC_CLOSE
    # that ends the circuit the gateways had spliced toward it.
    assert impostor.nucleus.counters["ivc_frames_without_circuit"] == 10
    assert impostor_saw == []


def test_gateways_ask_naming_once_per_far_destination():
    """Three newcomers in turn make a first call to the same far server.
    Only the first costs the gateways naming calls: 5, where the
    naming-first final hop made 6 and then 1 per later newcomer."""
    bed, _groups = sharded_chain(hops=2, shards=2, replicas=2)
    server = echo_server(bed, "far.echo", "mEnd")
    bed.settle()
    far_stack = bed.gateways["gwm1"].stacks["net2"]
    costs = []
    for i in range(3):
        newcomer = bed.module(f"new.{i}", "m0")
        uadd = newcomer.ali.locate("far.echo")
        before = _gateway_count(bed, "nsp_calls")
        newcomer.ali.call(uadd, "echo", {"n": i, "text": "hi"})
        costs.append(_gateway_count(bed, "nsp_calls") - before)
        entry = far_stack.addr_cache.lookup(uadd)
        assert entry.blob == server.nucleus.nd.listen_blob
    assert costs == [5, 0, 0]
