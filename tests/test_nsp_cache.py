"""Tests for the control-plane fast path (PROTOCOL.md §9): the NSP
resolution cache, generation coherence, single-flight coalescing,
batched resolution, and the LCM's forwarding-path compression."""

import pytest

from deployments import echo_server, single_net
from repro import SUN3, VAX
from repro.drts.proctl import ProcessController
from repro.errors import NoSuchAddress, NoSuchName
from repro.naming.cache import NEGATIVE_TTL, ResolutionCache
from repro.naming.protocol import NameRecord
from repro.ntcs.address import Address
from repro.ntcs.nucleus import NucleusConfig
from repro.util.counters import NUCLEUS, Counters


def _ns_requests(bed, type_name):
    return bed.name_server_instance.counters[type_name]


def _echo_rebuild(old, new):
    def handle(request):
        if request.reply_expected:
            new.ali.reply(request, "echo", {
                "n": request.values["n"],
                "text": request.values["text"].upper(),
            })
    new.ali.set_request_handler(handle)


# -- the cache itself (unit level) -------------------------------------------

def test_cache_unit_tadds_never_stored():
    clock = [0.0]
    cache = ResolutionCache(clock=lambda: clock[0], counters=Counters(NUCLEUS))
    tadd = Address(value=5, temporary=True)
    record = NameRecord(name="x", uadd=tadd, mtype_name="VAX")
    cache.store_name("x", tadd, gen=1)
    cache.store_record(tadd, record, gen=1)
    cache.store_forward(Address(value=9), tadd, gen=1)
    assert len(cache) == 0


def test_cache_unit_negative_ttl_expires():
    clock = [0.0]
    counters = Counters(NUCLEUS)
    cache = ResolutionCache(clock=lambda: clock[0], counters=counters)
    cache.store_missing_name("ghost", gen=1)
    with pytest.raises(NoSuchName):
        cache.lookup_name("ghost")
    clock[0] = NEGATIVE_TTL  # the negative entry has now expired
    assert cache.lookup_name("ghost") is None
    assert counters["nsp_cache_hits"] == 1
    assert counters["nsp_cache_misses"] == 1


def test_cache_unit_generation_flush():
    counters = Counters(NUCLEUS)
    cache = ResolutionCache(clock=lambda: 0.0, counters=counters)
    old = Address(value=7)
    cache.store_name("a", old, gen=3)
    cache.observe_generation(3)   # same generation: nothing to do
    assert cache.lookup_name("a") == old
    cache.observe_generation(4)   # a newer write: flush older entries
    assert cache.lookup_name("a") is None
    assert counters["nsp_cache_invalidations"] == 1


def test_cache_unit_evict_address_drops_all_routes_to_it():
    counters = Counters(NUCLEUS)
    cache = ResolutionCache(clock=lambda: 0.0, counters=counters)
    uadd = Address(value=7)
    record = NameRecord(name="a", uadd=uadd, mtype_name="VAX")
    cache.store_name("a", uadd, gen=1)
    cache.store_record(uadd, record, gen=1)
    cache.store_forward(Address(value=3), uadd, gen=1)
    cache.evict_address(uadd)
    assert len(cache) == 0
    assert counters["nsp_cache_invalidations"] == 3


# -- hot resolution ----------------------------------------------------------

def test_repeated_resolution_is_served_from_cache():
    bed = single_net()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    first = client.ali.locate("dest")
    for _ in range(3):
        assert client.ali.locate("dest") == first
    assert _ns_requests(bed, "ns_resolve_name") == 1
    assert client.nucleus.counters["nsp_cache_hits"] >= 3


def test_cache_disabled_reproduces_per_resolution_traffic():
    bed = single_net(config=NucleusConfig(nsp_cache_enabled=False))
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    assert client.nsp.cache is None
    for _ in range(5):
        client.ali.locate("dest")
    assert _ns_requests(bed, "ns_resolve_name") == 5
    assert client.nucleus.counters["nsp_cache_hits"] == 0


def test_negative_cache_expires_in_virtual_time():
    bed = single_net()
    client = bed.module("client", "vax1")
    with pytest.raises(NoSuchName):
        client.ali.locate("ghost")
    asked = _ns_requests(bed, "ns_resolve_name")
    with pytest.raises(NoSuchName):
        client.ali.locate("ghost")   # served by the cached negative
    assert _ns_requests(bed, "ns_resolve_name") == asked
    bed.scheduler.run_for(NEGATIVE_TTL + 0.1)  # let the negative TTL lapse
    with pytest.raises(NoSuchName):
        client.ali.locate("ghost")   # re-asks the Name Server
    assert _ns_requests(bed, "ns_resolve_name") == asked + 1


def test_tadd_resolution_bypasses_cache():
    bed = single_net()
    client = bed.module("client", "vax1")
    size_before = len(client.nsp.cache)
    tadd = Address(value=424242, temporary=True)
    with pytest.raises(NoSuchAddress):
        client.nsp.resolve_uadd(tadd)
    # Not even the negative result is cached for a TAdd.
    assert len(client.nsp.cache) == size_before


# -- coherence ---------------------------------------------------------------

def test_relocation_coherence_fault_evicts_then_refreshes():
    """A stale cached UAdd costs one faulted send: the fault path evicts
    it, forwarding resumes the call, and the next resolution asks the
    naming service for the fresh mapping (Sec. 3.5 meets §9)."""
    bed = single_net()
    bed.machine("sun2", SUN3, networks=["ether0"])
    echo_server(bed, "server", "sun1")
    client = bed.module("client", "vax1")
    old_uadd = client.ali.locate("server")
    client.ali.call(old_uadd, "echo", {"n": 1, "text": "a"})

    ProcessController(bed).relocate("server", "sun2",
                                    rebuild=_echo_rebuild)
    reply = client.ali.call(old_uadd, "echo", {"n": 2, "text": "b"})
    assert reply.values["text"] == "B"
    assert client.nucleus.counters["nsp_cache_invalidations"] >= 1
    assert old_uadd in client.nucleus.lcm.forwarding
    # The cached name entry died with the fault: a fresh resolution
    # reaches the naming service and returns the new UAdd.
    assert client.ali.locate("server") != old_uadd


def test_any_ns_reply_with_newer_generation_flushes_stale_entries():
    bed = single_net()
    client = bed.module("client", "vax1")
    worker_a = bed.module("worker.a", "sun1")
    client.ali.locate("worker.a")
    assert _ns_requests(bed, "ns_resolve_name") == 1
    bed.module("worker.b", "sun1")   # a write: bumps the generation
    client.ali.locate("worker.b")    # reply carries the newer generation
    assert client.nucleus.counters["nsp_cache_invalidations"] >= 1
    client.ali.locate("worker.a")    # must re-ask: its entry was flushed
    assert _ns_requests(bed, "ns_resolve_name") == 3
    assert worker_a.ali.uadd == client.ali.locate("worker.a")


# -- single-flight coalescing ------------------------------------------------

def test_nested_pump_resolutions_share_one_ns_call():
    """A resolution issued from an event that fires inside another
    resolution's pump frame joins the in-flight call instead of issuing
    its own (single-flight, §9)."""
    bed = single_net()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    follower_results = []

    def follower():
        follower_results.append(client.nsp.resolve_name("dest"))

    client.nucleus.scheduler.call_soon(follower)
    leader_result = client.nsp.resolve_name("dest")
    assert follower_results == [leader_result]
    assert client.nucleus.counters["nsp_calls_coalesced"] == 1
    assert _ns_requests(bed, "ns_resolve_name") == 1


# -- batched resolution ------------------------------------------------------

def test_resolve_batch_primes_both_cache_maps():
    bed = single_net()
    worker_a = bed.module("worker.a", "sun1")
    worker_b = bed.module("worker.b", "sun1")
    client = bed.module("client", "vax1")
    out = client.nsp.resolve_batch(["worker.a", "worker.b", "ghost"])
    assert out["worker.a"].uadd == worker_a.ali.uadd
    assert out["worker.b"].uadd == worker_b.ali.uadd
    assert out["ghost"] is None
    assert client.nucleus.counters["nsp_batch_resolves"] == 1
    assert _ns_requests(bed, "ns_resolve_batch") == 1
    # Both maps are warm now: no further Name-Server traffic for the
    # names, the records, or the cached negative.
    assert client.ali.locate("worker.a") == worker_a.ali.uadd
    assert client.nsp.resolve_uadd(worker_b.ali.uadd).name == "worker.b"
    with pytest.raises(NoSuchName):
        client.ali.locate("ghost")
    assert _ns_requests(bed, "ns_resolve_name") == 0
    assert _ns_requests(bed, "ns_resolve_uadd") == 0


def test_resolve_batch_works_with_cache_disabled():
    bed = single_net(config=NucleusConfig(nsp_cache_enabled=False))
    worker = bed.module("worker", "sun1")
    client = bed.module("client", "vax1")
    out = client.nsp.resolve_batch(["worker", "ghost"])
    assert out["worker"].uadd == worker.ali.uadd
    assert out["ghost"] is None


# -- forwarding-path compression ---------------------------------------------

def test_forwarding_chain_is_path_compressed():
    """After following a multi-hop forwarding chain, every address on
    the walked path points directly at the final target."""
    bed = single_net()
    bed.machine("sun2", SUN3, networks=["ether0"])
    bed.machine("vax2", VAX, networks=["ether0"])
    echo_server(bed, "server", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("server")
    controller = ProcessController(bed)
    for target in ("sun2", "vax2"):
        controller.relocate("server", target, rebuild=_echo_rebuild)
        client.ali.call(uadd, "echo", {"n": 0, "text": "t"})
    # The chain uadd -> u2 -> u3 existed once the second fault resolved;
    # the next send walks it and collapses every hop onto the target.
    client.ali.call(uadd, "echo", {"n": 1, "text": "t"})
    lcm = client.nucleus.lcm
    assert client.nucleus.counters["lcm_forwarding_compressions"] >= 1
    targets = {lcm.forwarding[addr] for addr in lcm.forwarding}
    assert len(targets) == 1   # every entry points at the final UAdd
