"""One naming tier (paper Secs. 2.4 / 7, PROTOCOL.md §14): every shape
of naming service is a *value* handed to one ``deploy_naming`` — the
lone Name Server is the 1 × 1 fleet — served by one ``NameServer``
class and reached through one ``NspLayer``.

* graceful death reaches the shard that minted the dying UAdd (the
  farewell ``ns_deregister`` takes the NSP route, not the anchor);
* the degenerate configurations 1×1, 1×2, 2×1, 2×2 as one table: when
  the §9 cache is on, how a lone server grows, that every restart is
  the same restart, and that relocation needs no plumbing.
"""

import pytest

from deployments import echo_server, sharded_chain, sharded_single_net
from repro import VAX
from repro.drts.proctl import ProcessController
from repro.naming import NameServer, NspLayer
from repro.naming.shards import HashRing, add_naming_shard
from repro.netsim import ChaosSchedule
from repro.ntcs.nucleus import NucleusConfig

SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2)]
_ids = [f"{s}x{r}" for s, r in SHAPES]


def _fleet(bed):
    return [server for group in bed.shard_groups.values() for server in group]


# ---------------------------------------------------------------------------
# Graceful death goes where every other UAdd-keyed request goes
# ---------------------------------------------------------------------------

def test_graceful_death_is_tombstoned_on_the_minting_shard():
    bed, groups = sharded_chain(hops=2, shards=2, replicas=2)
    module = bed.module("idx.b", "mEnd")      # shard 1 owns "idx.b"
    bed.settle()
    uadd = module.ali.uadd
    assert uadd.value >> 48 in {2, 3}         # minted by a shard-1 server
    module.process.kill()
    bed.settle()
    for server in groups[1]:                  # both replicas, via repl_update
        assert server.db.get(uadd).alive is False
    assert all(server.db.get(uadd) is None for server in groups[0])


def test_gracefully_killed_gateway_leaves_the_topology():
    bed, groups = sharded_chain(hops=2, shards=2, replicas=2)
    client = bed.module("client", "m0")
    bed.settle()
    gwm1 = bed.gateways["gwm1"]
    assert gwm1.uadd.value >> 48 in {2, 3}    # "gateway.gw.gwm1": shard 1
    assert gwm1.uadd in {r.uadd for r in client.nsp.list_gateways()}
    gwm1.process.kill()
    bed.settle()
    for server in groups[1]:
        assert server.db.get(gwm1.uadd).alive is False
    assert gwm1.uadd not in {r.uadd for r in client.nsp.list_gateways()}


def test_crash_style_death_still_sends_nothing():
    bed, groups = sharded_chain(hops=2, shards=2, replicas=2)
    module = bed.module("idx.b", "mEnd")
    bed.settle()
    uadd = module.ali.uadd
    module.ali.uadd = None                    # ProcessController's crash style
    module.process.kill()
    bed.settle()
    assert sum(s.counters["ns_deregister"] for s in _fleet(bed)) == 0
    for server in groups[1]:
        assert server.db.get(uadd).alive is True


# ---------------------------------------------------------------------------
# The degenerate configurations, one table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", SHAPES, ids=_ids)
def test_one_server_class_one_client_class(shape):
    bed, groups = sharded_single_net(*shape)
    client = bed.module("client", "app1")
    assert {type(server) for server in _fleet(bed)} == {NameServer}
    assert type(client.nsp) is NspLayer
    assert sorted(groups) == list(range(shape[0]))
    assert all(len(group) == shape[1] for group in groups.values())
    # Every server by machine, the lone one included; the primary owns
    # the well-known UAdd and, alone, keeps the paper's name.
    assert set(bed.name_shard_servers.values()) == set(_fleet(bed))
    assert bed.name_server_instance is groups[0][0]
    assert groups[0][0].uadd == bed.wellknown.ns_uadd
    assert (groups[0][0].name == "name.server") == (shape == (1, 1))
    assert groups[0][0].listen_blob == "tcp:ether0:ns00:411"


@pytest.mark.parametrize("shape", SHAPES, ids=_ids)
def test_cache_and_single_flight_are_on_only_for_a_fleet_of_one(shape):
    """Not a setting: a fact computed from the directory.  Generation
    stamps of different servers are not comparable, so the §9 fast path
    needs exactly one authority."""
    bed, _groups = sharded_single_net(*shape)
    echo_server(bed, "dest", "app1")
    client = bed.module("client", "app2")
    bed.settle()
    lone = shape == (1, 1)
    assert (client.nsp.cache is not None) == lone
    assert client.nsp._coalesce == lone
    before = client.nucleus.counters["nsp_calls"]
    for _ in range(3):
        client.ali.locate("dest")
    assert client.nucleus.counters["nsp_calls"] - before == (1 if lone else 3)


def test_cache_off_at_one_by_one_is_still_the_ablation():
    bed, _groups = sharded_single_net(
        1, 1, config=NucleusConfig(nsp_cache_enabled=False))
    echo_server(bed, "dest", "app1")
    client = bed.module("client", "app2")
    assert client.nsp.cache is None and not client.nsp._coalesce
    for _ in range(3):
        client.ali.locate("dest")
    assert bed.name_server_instance.counters["ns_resolve_name"] == 3


def test_lone_server_grows_into_a_fleet_and_redirects_its_old_client():
    bed, groups = sharded_single_net(1, 1)
    moved = bed.module("idx.b", "app1")       # shard 1 will own "idx.b"
    stays = bed.module("dest", "app1")        # shard 0 keeps "dest"
    old = bed.module("client", "app2")        # built against one server
    bed.settle()
    assert old.ali.locate("dest") == stays.ali.uadd        # now cached
    assert old.nsp.cache is not None and old.nsp._ring is None

    bed.machine("ns10", VAX, networks=["ether0"])
    group, handed_over = add_naming_shard(bed, ["ns10"])
    bed.settle()
    assert HashRing(bed.shard_directory).owner("idx.b") == 1
    assert handed_over >= 1
    assert group[0].db.resolve_name("idx.b").uadd == moved.ali.uadd

    # The old owner redirects; the client builds its ring, drops the
    # cache for good, and the next request goes direct.
    assert old.ali.locate("idx.b") == moved.ali.uadd
    counters = old.nucleus.counters
    assert counters["nsp_shard_redirects"] == 1
    assert counters["nsp_shard_ring_updates"] == 1
    assert old.nsp.cache is None and not old.nsp._coalesce
    assert old.nsp._ring.shards == [0, 1]
    assert old.ali.locate("idx.b") == moved.ali.uadd
    assert old.ali.locate("dest") == stays.ali.uadd
    assert old.nsp.resolve_uadd(moved.ali.uadd).name == "idx.b"
    assert counters["nsp_shard_redirects"] == 2            # UAdd minted by 0
    batch = old.nsp.resolve_batch(["dest", "idx.b", "no.such"])
    assert batch["idx.b"].uadd == moved.ali.uadd
    assert batch["dest"].uadd == stays.ali.uadd and batch["no.such"] is None

    # Fresh modules read the grown directory from the well-known table.
    fresh = bed.module("fresh", "app1")
    assert fresh.nsp.cache is None and fresh.nsp._ring.shards == [0, 1]
    assert fresh.ali.locate("idx.b") == moved.ali.uadd
    assert fresh.nucleus.counters["nsp_shard_redirects"] == 0


@pytest.mark.parametrize("shape,victim", [((1, 1), "ns00"), ((2, 2), "ns11")],
                         ids=["lone-server", "shard-replica"])
def test_chaos_restart_is_one_function_for_every_server(shape, victim):
    bed, _groups = sharded_single_net(
        *shape, config=NucleusConfig(chaos_seed=5, repair_max_attempts=8))
    before = bed.name_shard_servers[victim]
    engine = bed.chaos(ChaosSchedule(seed=5)
                       .crash(bed.now + 0.005, victim)
                       .restart(bed.now + 0.3, victim))
    bed.run_for(0.01)
    assert not before.process.alive
    late = bed.module("late.worker", "app1")  # registers through the outage
    bed.run_for(1.0)
    bed.settle()
    assert engine.remaining() == 0
    after = bed.name_shard_servers[victim]
    assert after is not before and after.process.alive
    assert (after.uadd, after.listen_blob, after.name, after.shard_id) == \
        (before.uadd, before.listen_blob, before.name, before.shard_id)
    assert after in bed.shard_groups[after.shard_id]
    assert before not in bed.shard_groups[after.shard_id]
    assert bed.module("probe", "app2").ali.locate("late.worker") \
        == late.ali.uadd
    # Restarting a machine that is already up is a no-op.
    bed._restarter(victim)()
    assert bed.name_shard_servers[victim] is after


@pytest.mark.parametrize("graceful", [True, False],
                         ids=["graceful", "crash-style"])
@pytest.mark.parametrize("shape", [(1, 1), (2, 2)], ids=["1x1", "2x2"])
def test_relocation_needs_no_naming_plumbing(shape, graceful):
    bed, _groups = sharded_single_net(*shape)
    echo_server(bed, "idx.b", "app1", attrs={"role": "echo"})
    client = bed.module("client", "app2")
    bed.settle()
    dst = client.ali.locate("idx.b")

    def rebuild(_old, new):
        new.ali.set_request_handler(lambda request: new.ali.reply(
            request, "echo", {"n": request.values["n"], "text": "moved"}))

    new = ProcessController(bed).relocate(
        "idx.b", "app2", rebuild=rebuild, graceful=graceful)
    bed.settle()
    assert type(new.nsp) is NspLayer
    assert (new.nsp.cache is not None) == (shape == (1, 1))
    reply = client.ali.call(dst, "echo", {"n": 1, "text": "x"})
    assert reply.values["text"] == "moved"
    owner = (HashRing(bed.shard_directory).owner("idx.b")
             if shape[0] > 1 else 0)
    for server in bed.shard_groups[owner]:
        record = server.db.resolve_name("idx.b")
        assert record.uadd == new.ali.uadd
        assert record.attrs == {"role": "echo"}
        assert server.db.get(dst).alive is (not graceful)
