"""Tests for the Sec. 7 naming extensions: attribute-value naming and
the replicated naming service."""

import pytest

from deployments import echo_server, register_app_types
from repro import SUN3, Testbed, VAX
from repro.errors import (
    ModuleStillAlive,
    NoForwardingAddress,
    NameServerUnreachable,
    ProtocolError,
)
from repro.naming.attributes import (
    AttributeNameDatabase,
    Predicate,
    match_all,
    parse_query,
    similarity,
)
from repro.naming.shards import deploy_naming


# -- predicates ------------------------------------------------------------

def test_predicate_parse_and_encode():
    pred = Predicate.parse("shard<=3")
    assert (pred.key, pred.op, pred.value) == ("shard", "<=", "3")
    assert pred.encode() == "shard<=3"
    assert Predicate.parse("kind=index").op == "="
    assert Predicate.parse("gpu*").op == "*"
    with pytest.raises(ProtocolError):
        Predicate.parse("nonsense")
    with pytest.raises(ProtocolError):
        Predicate.parse("gpu*yes")


@pytest.mark.parametrize("text,attrs,expected", [
    ("kind=index", {"kind": "index"}, True),
    ("kind=index", {"kind": "search"}, False),
    ("kind!=index", {"kind": "search"}, True),
    ("shard<3", {"shard": "2"}, True),
    ("shard<3", {"shard": "3"}, False),
    ("shard>=3", {"shard": "3"}, True),
    ("shard<5", {"shard": "not-a-number"}, False),
    ("name~serv", {"name": "index.server"}, True),
    ("name~serv", {"name": "host"}, False),
    ("gpu*", {"gpu": ""}, True),
    ("gpu*", {}, False),
    ("missing=x", {}, False),
])
def test_predicate_matching(text, attrs, expected):
    assert Predicate.parse(text).matches(attrs) is expected


def test_parse_query_and_match_all():
    predicates = parse_query("kind=index;shard<=3")
    assert len(predicates) == 2
    assert match_all(predicates, {"kind": "index", "shard": "2"})
    assert not match_all(predicates, {"kind": "index", "shard": "9"})
    assert parse_query("") == []


def test_similarity_scores():
    assert similarity({}, {}) == 1.0
    assert similarity({"a": "1"}, {"a": "1"}) == 1.0
    assert similarity({"a": "1"}, {"b": "2"}) == 0.0
    assert 0.0 < similarity({"a": "1", "b": "2"}, {"a": "1", "b": "3"}) < 1.0


# -- attribute database ------------------------------------------------------

def _attr_db():
    db = AttributeNameDatabase()
    db.register("idx.1", {"kind": "index", "shard": "1"}, [], "VAX")
    db.register("idx.2", {"kind": "index", "shard": "2"}, [], "VAX")
    db.register("srch", {"kind": "search"}, [], "VAX")
    return db


def test_query_predicates():
    db = _attr_db()
    hits = db.query_predicates(parse_query("kind=index;shard<=1"))
    assert [r.name for r in hits] == ["idx.1"]
    hits = db.query_predicates(parse_query("kind*"))
    assert len(hits) == 3


def test_attribute_forwarding_fallback():
    """Sec. 3.5/7: with attribute naming, forwarding can match a
    *similar* module when no same-name replacement exists."""
    db = AttributeNameDatabase()
    old = db.register("idx.old", {"kind": "index", "shard": "1"}, [], "VAX")
    db.deregister(old.uadd)
    replacement = db.register("idx.new", {"kind": "index", "shard": "1"}, [], "VAX")
    db.register("unrelated", {"kind": "search"}, [], "VAX")
    assert db.lookup_forwarding(old.uadd).uadd == replacement.uadd


def test_attribute_forwarding_respects_threshold():
    db = AttributeNameDatabase()
    old = db.register("a", {"kind": "index", "shard": "1"}, [], "VAX")
    db.deregister(old.uadd)
    db.register("b", {"kind": "search"}, [], "VAX")  # dissimilar
    with pytest.raises(NoForwardingAddress):
        db.lookup_forwarding(old.uadd)


def test_attribute_forwarding_still_prefers_same_name():
    db = AttributeNameDatabase()
    old = db.register("svc", {"kind": "index"}, [], "VAX")
    db.deregister(old.uadd)
    same_name = db.register("svc", {"kind": "other"}, [], "VAX")
    db.register("twin", {"kind": "index"}, [], "VAX")
    assert db.lookup_forwarding(old.uadd).uadd == same_name.uadd


def test_attribute_db_alive_check_unchanged():
    db = _attr_db()
    record = db.resolve_name("srch")
    with pytest.raises(ModuleStillAlive):
        db.lookup_forwarding(record.uadd)


# -- replicated naming service --------------------------------------------------

def _replicated_bed(replicas=2):
    bed = Testbed()
    bed.network("ether0", protocol="tcp")
    machines = []
    for i in range(replicas):
        name = f"ns{i}"
        bed.machine(name, VAX if i % 2 == 0 else SUN3, networks=["ether0"])
        machines.append(name)
    bed.machine("app1", SUN3, networks=["ether0"])
    bed.machine("app2", VAX, networks=["ether0"])
    servers = deploy_naming(bed, [machines])[0]
    register_app_types(bed)
    return bed, servers


def test_replication_propagates_registrations():
    bed, servers = _replicated_bed()
    worker = bed.module("worker", "app1")
    bed.settle()
    for server in servers:
        record = server.db.resolve_uadd(worker.ali.uadd)
        assert record.name == "worker"
        assert record.alive


def test_replica_uadds_are_namespaced():
    bed, servers = _replicated_bed(replicas=3)
    values = {s.uadd.value >> 48 for s in servers}
    assert values == {0, 1, 2}


def test_failover_on_primary_death():
    bed, servers = _replicated_bed()
    echo_server(bed, "dest", "app1")
    client = bed.module("client", "app2")
    bed.settle()
    servers[0].process.kill()
    bed.settle()
    # Resolution still works through the replica.
    uadd = client.ali.locate("dest")
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    assert reply.values["text"] == "X"
    assert client.nsp.failovers >= 1


def test_writes_accepted_by_replica_after_failover():
    bed, servers = _replicated_bed()
    bed.settle()
    servers[0].process.kill()
    bed.settle()
    commod = bed.module("late.worker", "app1")
    assert not commod.address.temporary
    assert servers[1].db.resolve_name("late.worker").uadd == commod.ali.uadd


def test_all_servers_dead_is_fatal():
    bed, servers = _replicated_bed()
    client = bed.module("client", "app2")
    for server in servers:
        server.process.kill()
    bed.settle()
    with pytest.raises(NameServerUnreachable):
        client.ali.locate("anything")


def test_three_replicas_survive_double_failure():
    """With three servers, killing the primary AND the first replica
    still leaves a working naming service."""
    bed, servers = _replicated_bed(replicas=3)
    echo_server(bed, "dest", "app1")
    client = bed.module("client", "app2")
    bed.settle()
    servers[0].process.kill()
    servers[1].process.kill()
    bed.settle()
    uadd = client.ali.locate("dest")
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    assert reply.values["text"] == "X"
    assert client.nsp.failovers >= 1
    # Writes keep working on the last survivor.
    late = bed.module("late", "app1")
    assert servers[2].db.resolve_name("late").uadd == late.ali.uadd


def test_deregistration_replicates():
    bed, servers = _replicated_bed()
    worker = bed.module("worker", "app1")
    bed.settle()
    worker.ali.deregister()
    bed.settle()
    for server in servers:
        assert server.db.resolve_uadd(worker.ali.uadd).alive is False
