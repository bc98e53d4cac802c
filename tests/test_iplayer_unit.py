"""Focused tests for IP-Layer mechanics: route planning, the BFS over
gateway adjacency, route-cache behaviour."""

import pytest

from deployments import chain_nets, echo_server, sharded_chain, single_net
from repro import Testbed, SUN3, VAX
from repro.errors import AddressFault, NoSuchAddress, RouteNotFound
from repro.machine import SimProcess
from repro.naming.shards import HashRing
from repro.naming.protocol import NameRecord
from repro.ntcs.address import Address, make_uadd
from repro.ntcs.gateway import Gateway


class FakeNsp:
    """An NSP stub serving canned records and gateway lists."""

    def __init__(self, records=(), gateways=()):
        self._records = {r.uadd: r for r in records}
        self.gateways = list(gateways)
        self.resolve_calls = 0

    def resolve_uadd(self, uadd):
        self.resolve_calls += 1
        try:
            return self._records[uadd]
        except KeyError:
            raise NoSuchAddress(str(uadd))

    def list_gateways(self):
        return self.gateways


def _gw_record(n, networks):
    return NameRecord(
        name=f"gw{n}", uadd=make_uadd(100 + n), mtype_name="Apollo",
        attrs={"kind": "gateway"},
        addresses=[(net, f"tcp:{net}:gw{n}:90") for net in networks],
    )


@pytest.fixture
def ip_layer():
    """A client module's IP-Layer with a fake NSP behind it."""
    bed = single_net()
    client = bed.module("client", "vax1")
    return bed, client, client.nucleus.ip


def test_plan_prefers_wellknown_for_ns(ip_layer):
    bed, client, ip = ip_layer
    plan = ip._plan(bed.wellknown.ns_uadd)
    assert plan.direct
    assert plan.blob == "tcp:ether0:vax1:411"


def test_plan_uses_cache_before_nsp(ip_layer):
    bed, client, ip = ip_layer
    target = make_uadd(50)
    client.nucleus.addr_cache.store(target, "tcp:ether0:sun1:7000", "Sun-3")
    fake = FakeNsp()
    client.nucleus.nsp = fake
    plan = ip._plan(target)
    assert plan.direct and plan.blob == "tcp:ether0:sun1:7000"
    assert fake.resolve_calls == 0


def test_plan_temporary_address_faults(ip_layer):
    bed, client, ip = ip_layer
    with pytest.raises(AddressFault, match="temporary"):
        ip._plan(Address(value=3, temporary=True))


def test_plan_never_asks_nsp_about_the_ns(ip_layer):
    """Naming-service addresses with no cache entry must fault, not
    recurse into the NSP (a Sec. 6.3 guard)."""
    bed, client, ip = ip_layer
    fake_ns_addr = make_uadd(77)
    client.nucleus.ns_addresses.add(fake_ns_addr)
    with pytest.raises(AddressFault, match="well-known"):
        ip._plan(fake_ns_addr)


def test_first_hop_bfs_multi_hop():
    """BFS over gateway adjacency picks a first hop on the local
    network even when the destination is several networks away."""
    bed = single_net()
    client = bed.module("client", "vax1")
    ip = client.nucleus.ip
    # Topology: ether0 -gw1- netB -gw2- netC; destination on netC.
    client.nucleus.nsp = FakeNsp(gateways=[
        _gw_record(1, ["ether0", "netB"]),
        _gw_record(2, ["netB", "netC"]),
    ])
    gw_uadd, blob = ip._first_hop("ether0", "netC")
    assert gw_uadd == make_uadd(101)  # gw1: the hop on OUR network
    assert blob == "tcp:ether0:gw1:90"


def test_first_hop_no_route():
    bed = single_net()
    client = bed.module("client", "vax1")
    ip = client.nucleus.ip
    client.nucleus.nsp = FakeNsp(gateways=[_gw_record(1, ["netX", "netY"])])
    with pytest.raises(RouteNotFound):
        ip._first_hop("ether0", "netZ")


def test_first_hop_ignores_gateway_without_local_blob():
    """A gateway chain whose first hop has no blob on the local network
    cannot be used."""
    bed = single_net()
    client = bed.module("client", "vax1")
    ip = client.nucleus.ip
    broken = _gw_record(1, ["netB"])  # no ether0 blob
    client.nucleus.nsp = FakeNsp(gateways=[broken])
    with pytest.raises(RouteNotFound):
        ip._first_hop("ether0", "netB")


def test_route_cache_populated_and_reused():
    bed = single_net()
    client = bed.module("client", "vax1")
    ip = client.nucleus.ip
    fake = FakeNsp(gateways=[_gw_record(1, ["ether0", "netB"])])
    client.nucleus.nsp = fake
    plan1 = ip._gateway_plan(make_uadd(60), "netB")
    plan2 = ip._gateway_plan(make_uadd(61), "netB")
    assert plan1.blob == plan2.blob
    assert client.nucleus.counters["topology_queries"] == 1  # cached


# A chained open that succeeds proves its first hop (PROTOCOL.md §3,
# "The route cache"): the IP-Layer keeps it as the route to the
# circuit's destination network.  On chain_nets(1) a module on net1
# registers through its prime gateway gwm0 to the Name Server on net0.

def _newcomer_behind_gateway():
    bed = chain_nets(1)
    newcomer = bed.module("newcomer", "mEnd")
    return bed, newcomer, bed.gateways["gwm0"]


def test_chained_open_learns_the_gateways_uadd():
    bed, newcomer, gw = _newcomer_behind_gateway()
    learned = newcomer.nucleus.ip.route_cache["net0"]
    assert learned == (gw.uadd, gw.stacks["net1"].nd.listen_blob)
    assert not learned[0].temporary  # the HELLO_ACK's UAdd, not a TAdd
    assert newcomer.nucleus.counters["topology_queries"] == 0


def test_unregistered_gateway_teaches_no_route():
    """A prime gateway that has not registered yet answers the HELLO
    with a TAdd (Sec. 3.4).  The open through it works, but a TAdd is
    no route, so nothing is kept."""
    bed = Testbed()
    bed.network("net0")
    bed.network("net1")
    bed.machine("m0", VAX, networks=["net0"])
    bed.name_server("m0")
    gwm0 = bed.machine("gwm0", SUN3, networks=["net0", "net1"])
    bed.machine("mEnd", VAX, networks=["net1"])
    gw = Gateway(SimProcess(gwm0, "gw.gwm0"), bed.registry, bed.wellknown)
    prime = gw.stacks["net1"]
    bed.wellknown.add_prime_gateway("net1", prime.nd.listen_blob)
    # TAdds are local to each Nucleus: move the gateway's off the one
    # the newcomer will hold, so only the TAdd rule can refuse it.
    prime.self_addr = prime.tadds.allocate()
    newcomer = bed.module("newcomer", "mEnd")
    assert newcomer.nucleus.counters["ivc_chained_opened"] == 1
    assert newcomer.nucleus.ip.route_cache == {}


def test_learned_route_never_overwrites_a_planned_one():
    bed, newcomer, gw = _newcomer_behind_gateway()
    ip = newcomer.nucleus.ip
    ip.route_cache.clear()
    real_nsp = newcomer.nucleus.nsp
    newcomer.nucleus.nsp = FakeNsp(gateways=[_gw_record(1, ["net1", "net0"])])
    ip._gateway_plan(make_uadd(60), "net0")
    newcomer.nucleus.nsp = real_nsp
    planned = (make_uadd(101), "tcp:net1:gw1:90")
    assert ip.route_cache["net0"] == planned
    ivc = ip.open_ivc(bed.wellknown.ns_uadd)  # chained, via the prime
    assert not ivc.direct and ivc.lvc.peer_addr == gw.uadd
    assert ip.route_cache["net0"] == planned


@pytest.mark.parametrize("victim", ["gateway", "destination"])
def test_failed_or_naked_chained_open_learns_nothing(victim):
    """The first hop refuses the connect, or the gateway NAKs the open
    because the Name Server is gone: no route is learned either way."""
    bed, newcomer, gw = _newcomer_behind_gateway()
    ip = newcomer.nucleus.ip
    ip.route_cache.clear()
    if victim == "gateway":
        gw.process.kill()
    else:
        bed.name_server_instance.nucleus.process.kill()
    bed.settle()
    with pytest.raises(AddressFault):
        ip.open_ivc(bed.wellknown.ns_uadd)
    assert ip.route_cache == {}


def test_gateway_stack_never_learns_itself_as_first_hop():
    """On chain_nets(2) the far stack of each gateway is its own
    network's prime, so its naming traffic opens chained circuits
    through its own gateway.  Those circuits work, and teach nothing."""
    bed = chain_nets(2)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    client.ali.call(client.ali.locate("far.echo"), "echo",
                    {"n": 1, "text": "x"})
    for name, far in (("gwm0", "net1"), ("gwm1", "net2")):
        stack = bed.gateways[name].stacks[far]
        assert stack.counters["ivc_chained_opened"] >= 1
        assert "net0" not in stack.ip.route_cache


# A failed prime plan moves on to the next prime gateway whatever
# naming-fleet member it was for (IpLayer.forget_route).  On
# sharded_chain(hops=1) a second prime gwm0b serves net1, and the first
# prime gwm0 is dead.

def _second_prime_first_dead():
    bed, groups = sharded_chain(hops=1)
    bed.machine("gwm0b", SUN3, networks=["net0", "net1"])
    bed.gateway("gwm0b", prime_for=["net1"])
    bed.gateways["gwm0"].process.kill()
    bed.settle()
    return bed, groups


def test_failed_prime_plan_to_a_shard_member_rotates_primes():
    bed, groups = _second_prime_first_dead()
    member = groups[1][0].directory_entry[0]
    assert member != bed.wellknown.ns_uadd
    ip = bed.module("probe", "mEnd", register=False).nucleus.ip
    with pytest.raises(AddressFault, match="first-hop gateway unreachable"):
        ip.open_ivc(member)
    ivc = ip.open_ivc(member)
    assert ivc.open and not ivc.direct
    assert ivc.lvc.peer_addr == bed.gateways["gwm0b"].uadd


def test_registration_on_a_far_shard_survives_a_dead_prime():
    bed, groups = _second_prime_first_dead()
    ring = HashRing(sorted(groups))
    name = next(f"late.{i}" for i in range(100)
                if ring.owner(f"late.{i}") == 1)
    newcomer = bed.module(name, "mEnd")
    assert not newcomer.ali.uadd.temporary
    assert bed.module("finder", "m0").ali.locate(name) == newcomer.ali.uadd


def test_plan_resolves_remote_entry_and_caches(ip_layer):
    bed, client, ip = ip_layer
    target = make_uadd(70)
    record = NameRecord(
        name="remote", uadd=target, mtype_name="Sun-3",
        addresses=[("netB", "tcp:netB:far:70")],
    )
    client.nucleus.nsp = FakeNsp(
        records=[record], gateways=[_gw_record(1, ["ether0", "netB"])])
    plan = ip._plan(target)
    assert not plan.direct
    assert plan.dst_network == "netB"
    # The remote blob was cached so the next plan skips resolution.
    assert client.nucleus.addr_cache.lookup(target) is not None


def test_plan_entry_without_addresses(ip_layer):
    bed, client, ip = ip_layer
    target = make_uadd(71)
    record = NameRecord(name="ghost", uadd=target, mtype_name="VAX",
                        addresses=[])
    client.nucleus.nsp = FakeNsp(records=[record])
    with pytest.raises(NoSuchAddress):
        ip._plan(target)
