"""Integration tests for the portable internet scheme (paper Sec. 4):
chained IVCs, gateway autonomy, teardown propagation."""

import pytest

from deployments import chain_nets, echo_server, two_nets
from repro.errors import DestinationUnavailable, RouteNotFound


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
# with old -> new recorded in CHANGES.md.
E5_ND_MESSAGES = {0: 6, 1: 28, 2: 54, 3: 88, 4: 130}
E5_SUBSTRATE_DATAGRAMS = {0: 14, 1: 64, 2: 124, 3: 202, 4: 298}


def _establish(hops):
    """First call across ``hops`` gateways; returns the bed and what
    the call cost in (ND-Layer messages, netsim datagrams)."""
    bed = chain_nets(hops)
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


@pytest.mark.parametrize("hops", sorted(E5_ND_MESSAGES))
def test_e5_establishment_nd_messages(hops):
    bed, (nd_messages, _) = _establish(hops)
    assert nd_messages == E5_ND_MESSAGES[hops]
    assert all(gw.inter_gateway_control_messages == 0
               for gw in bed.gateways.values())


@pytest.mark.parametrize("hops", sorted(E5_SUBSTRATE_DATAGRAMS))
def test_e5_establishment_substrate_datagrams(hops):
    _, (_, datagrams) = _establish(hops)
    assert datagrams == E5_SUBSTRATE_DATAGRAMS[hops]


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
    assert sum(gw.frames_forwarded_zero_copy for gw in gateways) == 113
    assert sum(gw.checksum_verifies_deferred for gw in gateways) == 113


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
    from repro.naming.protocol import NameRecord
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
