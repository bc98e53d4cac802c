"""Tests for the recurring internet shapes: a chain of networks, a star
around a hub, and a full clique of networks."""

from deployments import chain_nets, echo_server, register_app_types
from repro import SUN3, Testbed, VAX


def _star(spokes: int) -> Testbed:
    """A hub network with ``spokes`` leaf networks, one gateway ("g<i>")
    and one leaf machine ("leaf<i>") per spoke; Name Server on the hub."""
    bed = Testbed()
    bed.network("hub", protocol="tcp")
    bed.machine("center", VAX, networks=["hub"])
    bed.name_server("center")
    for i in range(spokes):
        bed.network(f"spoke{i}", protocol="tcp")
        bed.machine(f"g{i}", SUN3, networks=["hub", f"spoke{i}"])
        bed.gateway(f"g{i}", prime_for=[f"spoke{i}"])
        bed.machine(f"leaf{i}", VAX, networks=[f"spoke{i}"])
    register_app_types(bed)
    return bed


def _clique(size: int) -> Testbed:
    """``size`` networks with a gateway ("gw<i>_<j>") between every pair;
    Name Server on net0, one machine ("host<i>") per network."""
    bed = Testbed()
    for i in range(size):
        bed.network(f"net{i}", protocol="tcp")
    bed.machine("host0", VAX, networks=["net0"])
    bed.name_server("host0")
    for i in range(size):
        for j in range(i + 1, size):
            bed.machine(f"gw{i}_{j}", SUN3, networks=[f"net{i}", f"net{j}"])
            # net0-adjacent gateways are primes for their far network.
            bed.gateway(f"gw{i}_{j}", prime_for=[f"net{j}"] if i == 0 else [])
    for i in range(1, size):
        bed.machine(f"host{i}", VAX, networks=[f"net{i}"])
    register_app_types(bed)
    return bed


def test_build_chain_connects_ends():
    bed = chain_nets(hops=2)
    echo_server(bed, "far", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far")
    assert client.ali.call(uadd, "echo",
                           {"n": 1, "text": "x"}).values["text"] == "X"
    assert len(bed.gateways) == 2


def test_build_star_spoke_to_spoke():
    bed = _star(spokes=3)
    echo_server(bed, "svc", "leaf1")
    client = bed.module("client", "leaf2")
    uadd = client.ali.locate("svc")
    assert client.ali.call(uadd, "echo",
                           {"n": 1, "text": "s"}).values["text"] == "S"


def test_build_clique_has_direct_routes():
    bed = _clique(size=3)
    echo_server(bed, "svc", "host2")
    client = bed.module("client", "host1")
    uadd = client.ali.locate("svc")
    assert client.ali.call(uadd, "echo",
                           {"n": 1, "text": "c"}).values["text"] == "C"
    # The direct net1-net2 gateway carried it (one splice), not a
    # two-hop detour via net0.
    assert bed.gateways["gw1_2"].circuits_established >= 1


def test_clique_survives_any_single_gateway_loss():
    bed = _clique(size=3)
    echo_server(bed, "svc", "host2")
    client = bed.module("client", "host1")
    uadd = client.ali.locate("svc")
    client.ali.call(uadd, "echo", {"n": 1, "text": "warm"})
    bed.gateways["gw1_2"].process.kill()  # the direct route dies
    bed.settle()
    reply = client.ali.call(uadd, "echo", {"n": 2, "text": "detour"})
    assert reply.values["text"] == "DETOUR"
