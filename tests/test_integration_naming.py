"""Integration tests for the recursive naming service: bootstrap,
TAdds, caching, and removal of the Name Server (paper Secs. 3.2–3.4)."""

import pytest

from deployments import echo_server, single_net, two_nets
from repro.errors import NameServerUnreachable, NoSuchAddress
from repro.ntcs.nucleus import NucleusConfig


@pytest.fixture
def bed():
    return single_net()


# -- bootstrap and TAdds ------------------------------------------------------

def test_module_starts_with_self_assigned_tadd(bed):
    commod = bed.module("late.registrar", "sun1", register=False)
    assert commod.address.temporary


def test_registration_switches_identity_to_uadd(bed):
    commod = bed.module("worker", "sun1", register=False)
    tadd = commod.address
    uadd = commod.ali.register("worker")
    assert commod.address == uadd
    assert not uadd.temporary
    assert commod.nucleus.is_self(tadd)  # old identity still recognized


def test_ns_assigns_local_alias_for_tadd_sources(bed):
    """Sec. 3.4: the receiver assigns its own TAdd to an inbound
    connection from a TAdd source."""
    ns_nucleus = bed.name_server_instance.nucleus
    before = ns_nucleus.counters["tadds_assigned_for_inbound"]
    bed.module("newcomer", "sun1")
    assert ns_nucleus.counters["tadds_assigned_for_inbound"] == before + 1


def test_tadds_purged_within_two_ns_communications(bed):
    """Sec. 3.4: "TAdds for any given module will be purged from all
    layers within the first two communications with the Name Server"."""
    ns_nucleus = bed.name_server_instance.nucleus
    commod = bed.module("worker", "sun1", register=False)
    # Communication 1: registration (module is still a TAdd source).
    commod.ali.register("worker")
    # Communication 2: any naming call now carries the real UAdd.
    commod.ali.ping_name_server()
    assert ns_nucleus.lcm.temporary_route_keys() == 0
    assert ns_nucleus.counters["tadds_purged"] >= 1
    assert ns_nucleus.addr_cache.temporary_entries() == 0


def test_purge_rekeys_reply_route(bed):
    """After the purge the Name Server reaches the module by its real
    UAdd over the existing circuit."""
    commod = bed.module("worker", "sun1")
    commod.ali.ping_name_server()
    ns_lcm = bed.name_server_instance.nucleus.lcm
    assert commod.ali.uadd in ns_lcm._routes


# -- two-level resolution and caching -------------------------------------------

def test_open_protocol_fills_address_cache(bed):
    """Sec. 3.3: UAdd→physical mappings are cached from information
    exchanged during the channel open protocol."""
    echo_server(bed, "echo.server", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("echo.server")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    entry = client.nucleus.addr_cache.lookup(uadd)
    assert entry is not None
    assert entry.mtype_name == "Sun-3"
    assert "sun1" in entry.blob


@pytest.mark.parametrize("cache_enabled", [True, False])
def test_locate_brings_the_location_with_it(cache_enabled):
    """Sec. 3.3: the ND-Layer learns a UAdd's location "through the
    NSP-layer services".  The locate's reply carries the record, so the
    first call asks the naming service nothing more.  This is the
    paper's address cache, not the §9 resolution cache: it works with
    that cache off, and leaves its record map empty when it is on."""
    bed = single_net(NucleusConfig(nsp_cache_enabled=cache_enabled))
    server = echo_server(bed, "echo.server", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("echo.server")
    entry = client.nucleus.addr_cache.lookup(uadd)
    assert (entry.blob, entry.mtype_name) == (
        server.nucleus.nd.listen_blob, "Sun-3")
    if cache_enabled:
        assert client.nsp.cache.lookup_record(uadd) is None
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    assert reply.values["text"] == "X"
    assert bed.name_server_instance.counters["ns_resolve_uadd"] == 0


def test_name_server_removable_after_warmup(bed):
    """Sec. 3.3: "once all necessary addresses have been resolved ...
    the Name Server can be removed with no consequence, unless the
    system is reconfigured"."""
    echo_server(bed, "echo.server", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("echo.server")
    client.ali.call(uadd, "echo", {"n": 1, "text": "warm"})

    bed.name_server_instance.kill()
    bed.settle()

    # Existing circuit: works.
    reply = client.ali.call(uadd, "echo", {"n": 2, "text": "no-ns"})
    assert reply.values["text"] == "NO-NS"
    # Even a *reopen* works from the cache alone.
    client.nucleus.lcm._drop_route(uadd)
    reply = client.ali.call(uadd, "echo", {"n": 3, "text": "reopen"})
    assert reply.values["text"] == "REOPEN"


def test_reconfiguration_after_ns_removal_fails(bed):
    """...but reconfiguration *does* need the Name Server ("unless the
    system is reconfigured")."""
    echo_server(bed, "echo.server", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("echo.server")
    client.ali.call(uadd, "echo", {"n": 1, "text": "warm"})
    bed.name_server_instance.kill()
    bed.settle()
    # A *new* resolution cannot be satisfied.
    with pytest.raises(NameServerUnreachable):
        client.ali.locate("anything.else")


def test_resolve_uadd_of_unknown_address(bed):
    client = bed.module("client", "vax1")
    from repro.ntcs.address import make_uadd
    with pytest.raises(NoSuchAddress):
        client.nsp.resolve_uadd(make_uadd(4242))


def test_attribute_based_location(bed):
    """The Sec. 7 attribute-value naming scheme."""
    bed.module("idx.1", "sun1", attrs={"kind": "index", "shard": "1"})
    bed.module("idx.2", "vax1", attrs={"kind": "index", "shard": "2"})
    bed.module("search.1", "sun1", attrs={"kind": "search"})
    client = bed.module("client", "vax1")
    records = client.ali.locate_by_attrs({"kind": "index"})
    assert {r.name for r in records} == {"idx.1", "idx.2"}
    records = client.ali.locate_by_attrs({"kind": "index", "shard": "2"})
    assert [r.name for r in records] == ["idx.2"]


def test_deregistered_module_not_resolvable(bed):
    """Deregistration is visible immediately to fresh resolvers; a
    module holding a cached resolution sees it at its next Name-Server
    contact, when the reply's newer database generation flushes the
    stale entry (PROTOCOL.md §9: caches may lie, briefly)."""
    worker = bed.module("worker", "sun1")
    client = bed.module("client", "vax1")
    stale = client.ali.locate("worker")
    worker.ali.deregister()
    from repro.errors import NoSuchName
    fresh = bed.module("fresh", "vax1")
    with pytest.raises(NoSuchName):
        fresh.ali.locate("worker")
    # The cached client still serves the optimistic entry...
    assert client.ali.locate("worker") == stale
    # ...until any Name-Server reply carries the post-write generation.
    client.nucleus.nsp.resolve_uadd(stale)
    with pytest.raises(NoSuchName):
        client.ali.locate("worker")


def test_graceful_kill_deregisters(bed):
    worker = bed.module("worker", "sun1")
    worker.process.kill()
    bed.settle()
    db = bed.name_server_instance.db
    assert db.resolve_uadd(worker.ali.uadd).alive is False


def test_crash_does_not_deregister(bed):
    """An abrupt machine crash cannot send the farewell datagram; the
    naming service still believes the module is alive (until
    supersession)."""
    worker = bed.module("worker", "sun1")
    bed.machines["sun1"].crash()
    bed.settle()
    db = bed.name_server_instance.db
    assert db.resolve_uadd(worker.ali.uadd).alive is True


# -- recursion across networks -----------------------------------------------

def test_registration_across_gateway():
    """The NSP-layers "talk across multiple networks in the identical
    manner as application modules do" (Sec. 3.1): a module on the ring
    registers with the Name Server on the ethernet, through the prime
    gateway, while still a TAdd source."""
    bed = two_nets()
    commod = bed.module("ring.worker", "apollo1")
    assert not commod.address.temporary
    assert commod.ali.ping_name_server()
