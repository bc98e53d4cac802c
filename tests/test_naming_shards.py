"""The shard-aware test battery for the sharded, replicated Name
Service (paper Sec. 7, PROTOCOL.md §14).

Three layers of assurance:

* Hypothesis properties over the consistent-hash ring — ownership is a
  pure, process-stable function of the name (CRC-32, not Python's
  salted ``hash``), remapping on join/leave is monotone, and load
  stays within a stated bound of the mean;
* integration tests on live sharded deployments — registrations land
  on exactly one owning shard, misrouted requests redirect, replica
  failover stays inside the shard, rebalancing hands ownership over
  while stale clients are steered by redirects;
* chaos tests — a shard server killed mid-lookup or mid-registration
  heals through the repair loop with zero inter-gateway control
  traffic and zero lost accepted registrations.  A failing scripted
  schedule is persisted under ``chaos-failures/`` for replay.
"""

import os
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deployments import (
    echo_server,
    heal_naming_shards,
    sharded_chain,
    sharded_single_net,
)
from repro import VAX
from repro.drts.proctl import ProcessController
from repro.errors import NtcsError
from repro.naming.shards import HashRing, add_naming_shard
from repro.netsim import ChaosSchedule
from repro.ntcs.message import FLAG_INTERNAL
from repro.ntcs.nucleus import NucleusConfig

# Every trace these tests put on a simulated wire steps the declared
# wire machines (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("wire_conformance")

# CI sweeps the chaos scenarios across seeds; exact-pin tests use
# literal seeds and ignore the offset (same convention as test_chaos).
SEED_OFFSET = int(os.environ.get("NTCS_CHAOS_SEED", "0"))


# ---------------------------------------------------------------------------
# The ring: pinned constants
# ---------------------------------------------------------------------------

def test_ring_hash_is_crc32_pinned():
    """The ring hashes with CRC-32 — stable across processes, platforms
    and Python releases, unlike the salted builtin ``hash``.  Pinning
    the raw value makes an accidental hash swap a test failure, not a
    silent fleet-wide remap."""
    assert HashRing._hash("paper.module") == 3798539447
    assert HashRing._hash("") == 0


def test_ring_owner_pinned_across_processes():
    """Every client must compute the same owner: these literals were
    produced by a *different* process run."""
    ring = HashRing([0, 1, 2, 3])
    assert ring.owner("paper.module") == 0
    assert ring.owner("gw.gwm0") == 3
    assert ring.owner("far.echo") == 2
    assert ring.owner("mod.42") == 3


@pytest.mark.parametrize("shards, lightest, heaviest", [
    (2, 36_697, 63_303),
    (4, 20_787, 28_048),
])
def test_ring_placement_of_1e5_names_pinned(shards, lightest, heaviest):
    """Where the 10^5-name population of the §14 scale contract lands:
    every name placed once, the lightest and heaviest shard pinned."""
    ring = HashRing(range(shards))
    loads = sorted(Counter(
        ring.owner(f"mod.{i}") for i in range(100_000)).values())
    assert len(loads) == shards and sum(loads) == 100_000
    assert (loads[0], loads[-1]) == (lightest, heaviest)


def test_ring_empty_refuses_to_route():
    with pytest.raises(NtcsError):
        HashRing().owner("anything")


def test_ring_membership_bookkeeping():
    ring = HashRing([3, 1])
    assert ring.shards == [1, 3]
    assert len(ring) == 2
    assert 3 in ring and 0 not in ring
    assert HashRing([1, 3, 3]).shards == [1, 3]


# ---------------------------------------------------------------------------
# The ring: Hypothesis properties
# ---------------------------------------------------------------------------

_NAMES = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=24,
)
_SHARD_SETS = st.sets(st.integers(min_value=0, max_value=63),
                      min_size=2, max_size=8)
_BALANCE_CORPUS = [f"mod.{i}" for i in range(1000)]


@given(shard_ids=_SHARD_SETS, name=_NAMES)
def test_ring_owner_deterministic_and_a_member(shard_ids, name):
    """Two independently built rings over the same shards agree on
    every name, and the owner is always a live shard — the
    "exactly one owner" routing invariant at its root."""
    a, b = HashRing(shard_ids), HashRing(shard_ids)
    assert a.owner(name) == b.owner(name)
    assert a.owner(name) in shard_ids


@given(shard_ids=_SHARD_SETS, names=st.lists(_NAMES, max_size=40))
def test_ring_join_moves_names_only_to_the_newcomer(shard_ids, names):
    """Monotone remapping: adding a shard never shuffles a name
    between two old shards — it either stays put or moves to the
    newcomer.  Only the moved suffix needs a handoff, and it is about
    1/n of the names (at most the balance bound's 3x that)."""
    ids = sorted(shard_ids)
    newcomer, base = ids[-1], ids[:-1]
    before = HashRing(base)
    after = HashRing(ids)
    for name in names:
        old, new = before.owner(name), after.owner(name)
        assert new == old or new == newcomer
    moved = sum(before.owner(name) != after.owner(name)
                for name in _BALANCE_CORPUS)
    assert moved <= 3.0 * len(_BALANCE_CORPUS) / len(ids)


@given(shard_ids=_SHARD_SETS, names=st.lists(_NAMES, max_size=40))
def test_ring_leave_moves_only_the_leavers_names(shard_ids, names):
    """The mirror property: removing a shard only relocates names it
    owned; everyone else's routing is untouched."""
    ids = sorted(shard_ids)
    leaver = ids[0]
    before = HashRing(ids)
    after = HashRing(ids[1:])
    for name in names:
        old, new = before.owner(name), after.owner(name)
        if old != leaver:
            assert new == old
        else:
            assert new != leaver


@settings(max_examples=25, deadline=None)
@given(shard_ids=_SHARD_SETS)
def test_ring_balance_within_stated_bound(shard_ids):
    """With 128 virtual points per shard, no shard's share of a
    1000-name corpus strays past [0.2×, 3×] the mean — the bound the
    capacity planning in PROTOCOL.md §14 states."""
    ring = HashRing(shard_ids)
    loads = {sid: 0 for sid in shard_ids}
    for name in _BALANCE_CORPUS:
        loads[ring.owner(name)] += 1
    mean = len(_BALANCE_CORPUS) / len(shard_ids)
    assert max(loads.values()) <= 3.0 * mean, loads
    assert min(loads.values()) >= 0.2 * mean, loads


# ---------------------------------------------------------------------------
# Live deployments: routing invariants
# ---------------------------------------------------------------------------

def _owning_group(bed, name):
    """(shard_id, [servers]) for the shard the deployment ring assigns
    ``name`` to."""
    ring = HashRing(bed.shard_directory)
    sid = ring.owner(name)
    return sid, bed.shard_groups[sid]


def test_registrations_land_on_the_owning_shard_only():
    bed, groups = sharded_single_net()
    names = [f"prop.{i}" for i in range(20)]
    for i, name in enumerate(names):
        bed.module(name, "app1" if i % 2 == 0 else "app2")
    bed.settle()
    for name in names:
        owner, owning = _owning_group(bed, name)
        holders = set()
        for sid, group in groups.items():
            for server in group:
                record = server.db.get(bed.modules[name].ali.uadd)
                if record is not None:
                    holders.add(sid)
        # Exactly one shard holds the record — every replica of it.
        assert holders == {owner}, (name, holders, owner)
        for server in owning:
            assert server.db.resolve_name(name).uadd == \
                bed.modules[name].ali.uadd


def test_steady_state_routing_is_direct():
    """A client whose ring matches the deployment never sees a
    redirect — pinned to exactly zero."""
    bed, _groups = sharded_single_net()
    echo_server(bed, "dest", "app1")          # shard 0 owns "dest"
    echo_server(bed, "idx.b", "app2")         # shard 1 owns "idx.b"
    client = bed.module("client", "app2")
    bed.settle()
    for name in ("dest", "idx.b"):
        uadd = client.ali.locate(name)
        reply = client.ali.call(uadd, "echo", {"n": 1, "text": "hi"})
        assert reply.values["text"] == "HI"
    assert client.nucleus.counters["nsp_shard_redirects"] == 0
    assert client.nucleus.counters["ns_failovers"] == 0


def test_shard_server_uadds_are_namespaced_fleet_wide():
    bed, groups = sharded_single_net(shards=2, replicas=2)
    servers = [s for group in groups.values() for s in group]
    assert {s.uadd.value >> 48 for s in servers} == {0, 1, 2, 3}


def test_replica_failover_stays_inside_the_shard():
    bed, groups = sharded_single_net()
    echo_server(bed, "dest", "app1")          # shard 0 owns "dest"
    client = bed.module("client", "app2")
    bed.settle()
    groups[0][0].process.kill()
    bed.settle()
    uadd = client.ali.locate("dest")
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    assert reply.values["text"] == "X"
    assert client.nsp.failovers >= 1
    # The surviving replica serves writes for its shard too.
    late = bed.module("late.worker", "app1")  # shard 0 owns it
    assert groups[0][1].db.resolve_name("late.worker").uadd == late.ali.uadd


def test_deregistration_replicates_within_the_shard():
    bed, groups = sharded_single_net()
    worker = bed.module("worker", "app1")     # shard 0 owns "worker"
    bed.settle()
    worker.ali.deregister()
    bed.settle()
    for server in groups[0]:
        assert server.db.resolve_uadd(worker.ali.uadd).alive is False


def test_batch_resolve_groups_by_shard_and_reports_missing():
    bed, _groups = sharded_single_net()
    for name in ("dest", "worker", "idx.b", "idx.c"):
        bed.module(name, "app1")
    client = bed.module("client", "app2")
    bed.settle()
    out = client.nsp.resolve_batch(
        ["dest", "idx.b", "idx.c", "worker", "no.such"])
    assert out["no.such"] is None
    for name in ("dest", "worker", "idx.b", "idx.c"):
        assert out[name].uadd == bed.modules[name].ali.uadd
    assert client.nucleus.counters["nsp_shard_redirects"] == 0


def test_attribute_queries_fan_out_across_shards():
    bed, _groups = sharded_single_net()
    bed.module("dest", "app1", attrs={"kind": "index"})    # shard 0
    bed.module("idx.b", "app2", attrs={"kind": "index"})   # shard 1
    bed.module("other", "app1", attrs={"kind": "search"})
    client = bed.module("client", "app2")
    bed.settle()
    hits = client.nsp.query_attrs({"kind": "index"})
    assert {r.name for r in hits} == {"dest", "idx.b"}


# ---------------------------------------------------------------------------
# Anti-entropy: crash, miss writes, heal
# ---------------------------------------------------------------------------

def test_restarted_replica_heals_through_antientropy():
    """A replica that was down while its shard accepted writes pulls
    exactly the missed records on restart — pinned counts."""
    bed, groups = sharded_single_net()
    bed.settle()
    bed.machines["ns01"].crash()              # shard 0, replica 1
    bed.settle()
    worker = bed.module("worker", "app1")     # shard 0 owns "worker"
    late = bed.module("late.worker", "app1")  # shard 0 owns it too
    bed.settle()
    healed = bed.restart_name_server("ns01")
    bed.settle()
    assert healed.db.resolve_name("worker").uadd == worker.ali.uadd
    assert healed.db.resolve_name("late.worker").uadd == late.ali.uadd
    # Exactly the two missed origin writes were applied, in one round
    # with the single in-shard peer.
    assert healed.counters["antientropy_records_applied"] == 2
    assert healed.counters["antientropy_rounds"] == 1
    assert healed.counters["antientropy_skipped"] == 0


def test_antientropy_skips_a_dead_peer_without_failing():
    bed, groups = sharded_single_net()
    bed.settle()
    bed.machines["ns01"].crash()
    bed.settle()
    survivor = groups[0][0]
    assert survivor.run_antientropy() == 0
    assert survivor.counters["antientropy_skipped"] == 1
    assert survivor.counters["antientropy_rounds"] == 0
    # Once the peer is back, the next round completes normally.
    bed.restart_name_server("ns01")
    bed.settle()
    assert survivor.run_antientropy() == 0   # nothing to pull
    assert survivor.counters["antientropy_rounds"] == 1


def test_heal_helper_converges_the_whole_fleet():
    bed, groups = sharded_single_net()
    bed.settle()
    bed.machines["ns01"].crash()
    bed.settle()
    bed.module("worker", "app1")
    bed.settle()
    bed.restart_name_server("ns01")
    bed.settle()
    # A second fleet-wide round finds nothing left to move.
    assert heal_naming_shards(bed) == 0


# ---------------------------------------------------------------------------
# Rebalance: grow the fleet, steer stale clients by redirect
# ---------------------------------------------------------------------------

def test_rebalance_hands_over_records_and_redirects_stale_clients():
    bed, groups = sharded_single_net()
    moved_mod = bed.module("mod.16", "app1")  # shard 0 now, shard 2 later
    stale = bed.module("client", "app2")      # built against 2 shards
    bed.settle()
    assert _owning_group(bed, "mod.16")[0] == 0

    bed.machine("ns20", VAX, networks=["ether0"])
    group, moved = add_naming_shard(bed, ["ns20"])
    bed.settle()
    assert moved >= 1                          # at least mod.16 moved
    assert _owning_group(bed, "mod.16")[0] == 2
    assert group[0].db.resolve_name("mod.16").uadd == moved_mod.ali.uadd

    # The stale client still routes "mod.3" to an old shard; the old
    # owner answers with a redirect carrying shard 2's directory, the
    # client folds it into its ring, and the *next* request goes
    # direct — exactly one redirect, exactly one ring update.
    registered = bed.module("mod.3", "app1", register=False)
    registered.ali.register("mod.3")
    bed.settle()
    uadd = stale.ali.locate("mod.3")
    assert uadd == registered.ali.uadd
    assert stale.nucleus.counters["nsp_shard_redirects"] == 1
    assert stale.nucleus.counters["nsp_shard_ring_updates"] == 1
    stale.ali.locate("mod.3")
    assert stale.nucleus.counters["nsp_shard_redirects"] == 1

    # A UAdd-keyed lookup for the *moved* record: minted by shard 0,
    # owned by shard 2 — the redirect chain resolves it either way.
    record = stale.nsp.resolve_uadd(moved_mod.ali.uadd)
    assert record.name == "mod.16"

    # Fresh clients see the grown directory immediately: no redirects.
    fresh = bed.module("fresh", "app1")
    bed.settle()
    assert fresh.ali.locate("mod.16") == moved_mod.ali.uadd
    assert fresh.nucleus.counters["nsp_shard_redirects"] == 0

    # The old owner's redirect counter proves who did the steering.
    served = sum(s.counters["shard_redirects_served"]
                 for g in groups.values() for s in g)
    assert served >= 1


def test_rebalance_reaches_the_new_shard_across_gateways():
    """Regression: a module on the far side of two gateways must reach
    a shard added after deployment.  The final-hop gateway resolves the
    new server's *own* UAdd through the naming service (its blob is not
    in the well-known table), so fleet self-registrations must be
    served by their minting shard — hashing ``name.shard.N.R`` like
    application data bounced a redirect between the minting shard and
    the ring owner of the name until the hop limit."""
    bed, groups = sharded_chain(hops=2, shards=2, replicas=1)
    client = bed.module("client.m0", "m0")
    far = echo_server(bed, "far.echo", "mEnd")
    bed.settle()
    dst = client.ali.locate("far.echo")

    bed.machine("ns20", VAX, networks=["net0"])
    group, moved = add_naming_shard(bed, ["ns20"])
    bed.settle()
    ns20 = group[0]
    # The handoff shipped application records only — the old servers'
    # self-registrations stay pinned where they were minted.
    assert all(r.attrs.get("kind") != "nameserver"
               for r in ns20.db.all_records() if r.uadd != ns20.uadd)

    # The new server answers for its own address instead of
    # redirecting it to the hash owner of its name.
    record = client.nsp.resolve_uadd(ns20.uadd)
    assert record.uadd == ns20.uadd
    assert record.attrs["kind"] == "nameserver"

    # A fresh far-network module: its resolve of far.echo's UAdd is
    # steered to shard 2, and the chained circuit's final hop must
    # locate ns20 itself — end to end through both gateways.
    svc = bed.module("svc.far", "mEnd")
    bed.settle()
    reply = svc.ali.call(dst, "echo", {"n": 7, "text": "across"})
    assert reply.values["text"] == "ACROSS"
    assert far.ali.uadd == dst
    for gw in bed.gateways.values():
        assert gw.inter_gateway_control_messages == 0


def _list_gw_acks(bed, groups, client):
    """{server name: (count, records bytes)} of ``ns_list_gw_ack``, asked
    of every fleet member over the wire."""
    acks = {}
    for group in groups.values():
        for server in group:
            reply = client.nucleus.lcm.call(
                server.uadd, "ns_list_gw", {}, flags=FLAG_INTERNAL)
            assert reply.type_name == "ns_list_gw_ack"
            acks[server.name] = (reply.values["count"],
                                 reply.values["records"])
    return acks


def test_list_gw_ack_bytes_pinned_on_the_sharded_chain():
    """The topology answer is served from the database's gateway index
    (PROTOCOL.md §9); its wire bytes are pinned to what the record scan
    it replaced produced on this deployment — before and after a
    crashed gateway's restart supersedes its dead registration."""
    bed, groups = sharded_chain(hops=2, shards=2, replicas=2)
    client = bed.module("client", "m0")
    bed.settle()
    gwm0 = (1, b"gateway.gw.gwm0\n2\nSun-3\n"
               b"kind=gateway;networks=net0%2Cnet1\n"
               b"net0|tcp:net0:gwm0:32768,net1|tcp:net1:gwm0:32768\n"
               b"1\n0.005")
    gwm1 = (1, b"gateway.gw.gwm1\n562949953421314\nSun-3\n"
               b"kind=gateway;networks=net1%2Cnet2\n"
               b"net1|tcp:net1:gwm1:32768,net2|tcp:net2:gwm1:32768\n"
               b"1\n0.02000000000000001")
    assert _list_gw_acks(bed, groups, client) == {
        "name.shard.0.0": gwm0, "name.shard.0.1": gwm0,
        "name.shard.1.0": gwm1, "name.shard.1.1": gwm1,
    }

    bed.machines["gwm1"].crash()
    bed.settle()
    bed.restart_gateway("gwm1")
    bed.settle()
    # Two gwm1 records now sit in shard 1's databases; only the fresh
    # one is active.  (Its registration time read 2.2908491989173556
    # while the crashed gateway's farewell datagram was aimed at the
    # anchor server: 2.21 virtual seconds of connect retries from a
    # dead machine.  Routed to the shard that minted the UAdd it rides
    # the circuit the registration opened and costs no time.)
    restarted = (1, b"gateway.gw.gwm1\n562949953421315\nSun-3\n"
                    b"kind=gateway;networks=net1%2Cnet2\n"
                    b"net1|tcp:net1:gwm1:32768,net2|tcp:net2:gwm1:32768\n"
                    b"1\n0.06400000000000004")
    assert _list_gw_acks(bed, groups, client) == {
        "name.shard.0.0": gwm0, "name.shard.0.1": gwm0,
        "name.shard.1.0": restarted, "name.shard.1.1": restarted,
    }


@pytest.mark.parametrize("graceful", [True, False],
                         ids=["graceful", "crash-style"])
def test_process_control_relocates_on_sharded_naming(graceful):
    """Regression: ``ProcessController.relocate`` built the replacement
    with the single-server NSP and read the old attributes out of one
    server's database, so on a sharded fleet the re-registration died
    with ``expected ns_register_ack, naming service sent
    ns_shard_redirect``.  The move must work across both gateways, keep
    the registered attributes, and stay transparent to a client holding
    the pre-move UAdd — whether the old module deregisters or just
    vanishes (supersession)."""
    bed, groups = sharded_chain(hops=2, shards=2, replicas=2)
    # A name the anchor shard does *not* own: registering it through
    # the wrong server is what drew the redirect.
    assert _owning_group(bed, "idx.b")[0] == 1
    old = echo_server(bed, "idx.b", "mEnd", attrs={"role": "echo"})
    client = bed.module("client.m0", "m0")
    bed.settle()
    dst = client.ali.locate("idx.b")
    assert client.ali.call(dst, "echo", {"n": 1, "text": "a"}) \
        .values["text"] == "A"

    def rebuild(_old, new):
        def handle(request):
            new.ali.reply(request, "echo", {
                "n": request.values["n"],
                "text": request.values["text"].upper() + "@m0"})
        new.ali.set_request_handler(handle)

    new = ProcessController(bed).relocate(
        "idx.b", "m0", rebuild=rebuild, graceful=graceful)
    bed.settle()
    assert bed.modules["idx.b"] is new and not old.process.alive
    assert new.ali.uadd != dst

    reply = client.ali.call(dst, "echo", {"n": 2, "text": "b"})
    assert reply.values["text"] == "B@m0"
    assert dst in client.nucleus.lcm.forwarding
    # Every replica of the owning shard serves the new record, with
    # the attributes carried over; the old one is tombstoned only when
    # the old module got to say goodbye.
    _sid, owning = _owning_group(bed, "idx.b")
    for server in owning:
        record = server.db.resolve_name("idx.b")
        assert record.uadd == new.ali.uadd
        assert record.attrs == {"role": "echo"}
    old_records = [server.db.get(dst)
                   for group in groups.values() for server in group]
    assert any(record is not None for record in old_records)
    if not graceful:
        assert all(record.alive for record in old_records if record)
    for gw in bed.gateways.values():
        assert gw.inter_gateway_control_messages == 0


# ---------------------------------------------------------------------------
# Chaos: shard servers die mid-flight and the service heals
# ---------------------------------------------------------------------------

def _persist_on_failure(schedule, run):
    """Run a scripted chaos scenario; on any failure persist the
    schedule JSON under ``chaos-failures/`` (CI uploads it) so the
    exact run replays with ``ChaosSchedule.from_json``."""
    try:
        return run()
    except Exception:
        out_dir = Path("chaos-failures")
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"shard-schedule-{schedule.seed}.json"
        path.write_text(schedule.to_json(indent=2) + "\n")
        print("failing shard chaos schedule persisted:", path)
        raise


def _shard_kill_mid_lookup_run(victim: str, seed: int):
    """Warm a 2-gateway internet with sharded naming on net0, crash
    ``victim`` (one shard server) with a scheduled restart, and keep
    locating and calling far modules through the outage."""
    bed, groups = sharded_chain(
        hops=2, config=NucleusConfig(chaos_seed=seed, repair_max_attempts=8))
    servers = {}
    for i in range(4):
        servers[i] = echo_server(bed, f"svc.{i}", "mEnd")
    client = bed.module("client", "m0")
    bed.settle()

    schedule = (ChaosSchedule(seed=seed)
                .crash(bed.now + 0.005, victim)
                .restart(bed.now + 0.6, victim))
    engine = bed.chaos(schedule)
    bed.run_for(0.01)   # the crash fired; the restart is pending

    def run():
        answered = []
        for i in range(4):
            # Fresh lookups mid-outage: the shard's surviving replica
            # (or an untouched shard) must answer.
            uadd = client.ali.locate(f"svc.{i}")
            reply = client.ali.call(uadd, "echo",
                                    {"n": i, "text": "mid"}, timeout=120.0)
            assert reply.values["text"] == "MID"
            answered.append(reply.values["n"])
        bed.settle()
        assert engine.remaining() == 0
        assert answered == [0, 1, 2, 3]
        # E5 invariant under naming-shard failure: the gateways carry
        # the traffic but never talk to each other on a control plane.
        for gw in bed.gateways.values():
            assert gw.inter_gateway_control_messages == 0
        assert [(op, target) for _, op, target in engine.applied] == [
            ("crash", victim), ("restart", victim),
        ]
        # No lost accepted registrations: after the heal, every
        # registration is on every live replica of its owning shard.
        heal_naming_shards(bed)
        for i in range(4):
            _sid, owning = _owning_group(bed, f"svc.{i}")
            for server in owning:
                assert server.process.alive
                record = server.db.resolve_name(f"svc.{i}")
                assert record.uadd == servers[i].ali.uadd
        return bed, client, engine

    return _persist_on_failure(schedule, run)


@pytest.mark.parametrize("victim", ["ns00", "ns01", "ns10", "ns11"])
def test_kill_any_shard_server_mid_lookup_heals(victim):
    bed, client, engine = _shard_kill_mid_lookup_run(victim,
                                                     seed=11 + SEED_OFFSET)


@pytest.mark.parametrize("victim", ["ns00", "ns10"])
def test_shard_kill_run_is_bit_deterministic(victim):
    """Same seed, same schedule → identical counters, service order and
    virtual end time across two full runs."""
    runs = []
    for _ in range(2):
        bed, client, engine = _shard_kill_mid_lookup_run(
            victim, seed=13 + SEED_OFFSET)
        runs.append((
            dict(client.nucleus.counters.snapshot()),
            [tuple(entry) for entry in engine.applied],
            bed.now,
        ))
    assert runs[0] == runs[1]


def test_shard_crash_mid_registration_loses_no_accepted_write():
    """A replica crashes mid-registration-burst and every accepted
    write is on every replica after the scheduled restart.  ``svc.0``
    replicates live (pre-crash); ``svc.1``–``svc.3`` are accepted while
    the replica is down, so their replication datagrams die on the
    broken circuit — the restart's anti-entropy pull recovers exactly
    those three writes."""
    seed = 17 + SEED_OFFSET
    bed, groups = sharded_single_net(
        config=NucleusConfig(chaos_seed=seed, repair_max_attempts=8))
    mods = {"svc.0": bed.module("svc.0", "app1")}   # shard 0 owns svc.*
    bed.settle()
    schedule = (ChaosSchedule(seed=seed)
                .crash(bed.now + 0.005, "ns01")
                .restart(bed.now + 0.6, "ns01"))
    engine = bed.chaos(schedule)
    bed.run_for(0.01)

    def run():
        for name in ("svc.1", "svc.2", "svc.3"):
            mods[name] = bed.module(name, "app1")
        bed.run_for(1.0)
        bed.settle()
        assert engine.remaining() == 0
        healed = bed.name_shard_servers["ns01"]
        for name, mod in mods.items():
            _sid, owning = _owning_group(bed, name)
            for server in owning:
                assert server.db.resolve_name(name).uadd == mod.ali.uadd
        # Exactly the writes accepted during the outage came back
        # through anti-entropy, in the restart's single pull round.
        assert healed.counters["antientropy_records_applied"] == 3
        assert healed.counters["antientropy_rounds"] == 1
        # And the fleet is converged: another round moves nothing.
        assert heal_naming_shards(bed) == 0
        return engine

    _persist_on_failure(schedule, run)
