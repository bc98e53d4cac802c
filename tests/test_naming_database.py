"""Unit tests for the name/address database (Secs. 3.2, 3.5)."""

import itertools
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ModuleStillAlive,
    NoForwardingAddress,
    NoSuchAddress,
    NoSuchName,
)
from repro.analysis import Project
from repro.analysis.rules.sole_site import SOLE_SITES, row_sites
from repro.naming.database import NameDatabase
from repro.naming.protocol import NO_ATTRS, NameRecord
from repro.ntcs.address import make_uadd


def _register(db, name, net="ether0", blob="tcp:ether0:m:1", **attrs):
    return db.register(name, attrs, [(net, blob)], "VAX")


def test_register_generates_monotonic_uadds():
    db = NameDatabase()
    r1 = _register(db, "a")
    r2 = _register(db, "b")
    assert r1.uadd.value == 1
    assert r2.uadd.value == 2
    assert not r1.uadd.temporary


def test_server_id_prepended():
    db = NameDatabase(server_id=3)
    record = _register(db, "a")
    assert record.uadd.value >> 48 == 3


def test_two_level_resolution():
    db = NameDatabase()
    record = _register(db, "index.server", blob="tcp:ether0:sun1:4000")
    # name -> UAdd
    assert db.resolve_name("index.server").uadd == record.uadd
    # UAdd -> physical location
    located = db.resolve_uadd(record.uadd)
    assert located.blob_on("ether0") == "tcp:ether0:sun1:4000"


def test_resolution_errors():
    db = NameDatabase()
    with pytest.raises(NoSuchName):
        db.resolve_name("ghost")
    record = _register(db, "a")
    from repro.ntcs.address import make_uadd
    with pytest.raises(NoSuchAddress):
        db.resolve_uadd(make_uadd(999))


def test_resolve_name_returns_newest_alive():
    db = NameDatabase()
    old = _register(db, "server")
    new = _register(db, "server")
    assert db.resolve_name("server").uadd == new.uadd


def test_deregister_tombstones():
    db = NameDatabase()
    record = _register(db, "a")
    assert db.deregister(record.uadd) is True
    assert db.deregister(record.uadd) is False  # idempotent
    # The tombstone is still resolvable by UAdd (needed for forwarding).
    assert db.resolve_uadd(record.uadd).alive is False
    with pytest.raises(NoSuchName):
        db.resolve_name("a")


def test_forwarding_after_deregistration():
    db = NameDatabase()
    old = _register(db, "server")
    db.deregister(old.uadd)
    replacement = _register(db, "server")
    assert db.lookup_forwarding(old.uadd).uadd == replacement.uadd


def test_forwarding_by_supersession_without_deregistration():
    """A crashed module cannot deregister; a newer registration with
    the same name supersedes it."""
    db = NameDatabase()
    old = _register(db, "server")
    replacement = _register(db, "server")
    assert db.lookup_forwarding(old.uadd).uadd == replacement.uadd


def test_forwarding_module_still_alive():
    db = NameDatabase()
    record = _register(db, "server")
    with pytest.raises(ModuleStillAlive):
        db.lookup_forwarding(record.uadd)


def test_forwarding_no_replacement():
    db = NameDatabase()
    record = _register(db, "server")
    db.deregister(record.uadd)
    with pytest.raises(NoForwardingAddress):
        db.lookup_forwarding(record.uadd)


def test_forwarding_chain_via_repeated_relocation():
    db = NameDatabase()
    first = _register(db, "server")
    db.deregister(first.uadd)
    second = _register(db, "server")
    db.deregister(second.uadd)
    third = _register(db, "server")
    # Both stale UAdds forward to the newest.
    assert db.lookup_forwarding(first.uadd).uadd == third.uadd
    assert db.lookup_forwarding(second.uadd).uadd == third.uadd


def test_list_gateways():
    db = NameDatabase()
    gw = db.register("gw.a", {"kind": "gateway"}, [("ether0", "b1")], "Apollo")
    _register(db, "app")
    dead_gw = db.register("gw.b", {"kind": "gateway"}, [("ring0", "b2")], "Apollo")
    db.deregister(dead_gw.uadd)
    gateways = db.list_gateways()
    assert [g.uadd for g in gateways] == [gw.uadd]


def test_query_attrs_exact_match():
    db = NameDatabase()
    a = db.register("a", {"kind": "index", "shard": "1"}, [], "VAX")
    b = db.register("b", {"kind": "index", "shard": "2"}, [], "VAX")
    db.register("c", {"kind": "search"}, [], "VAX")
    assert {r.uadd for r in db.query_attrs({"kind": "index"})} == {a.uadd, b.uadd}
    assert [r.uadd for r in db.query_attrs({"kind": "index", "shard": "2"})] == [b.uadd]
    assert db.query_attrs({"kind": "nothing"}) == []


def test_len_counts_alive_only():
    db = NameDatabase()
    r1 = _register(db, "a")
    _register(db, "b")
    db.deregister(r1.uadd)
    assert len(db) == 1


# ---------------------------------------------------------------------------
# The topology index (PROTOCOL.md §9): list_gateways ≡ the record scan
# ---------------------------------------------------------------------------

def _scan_gateways(db):
    """What ``list_gateways`` was before the index: every record, in
    ``_by_uadd`` insertion order.  The oracle lives here, not in src/."""
    return [record for record in db._by_uadd.values()
            if record.is_gateway and db.is_active(record)]


class _CountGatewayChecks:
    """Count ``NameRecord.is_gateway`` evaluations inside the block."""

    def __enter__(self):
        self.calls = 0
        self._original = NameRecord.is_gateway
        getter = self._original.fget

        def counting(record):
            self.calls += 1
            return getter(record)

        NameRecord.is_gateway = property(counting)
        return self

    def __exit__(self, *exc):
        NameRecord.is_gateway = self._original


_NAMES = ["gw.a", "gw.b", "mod.c", "mod.d"]
_KINDS = st.sampled_from(["gateway", "index", None])
_OPS = st.one_of(
    # A fresh local registration (same-name ones supersede).
    st.tuples(st.just("register"), st.sampled_from(_NAMES), _KINDS),
    # A record minted by another server arriving by replication,
    # anti-entropy or handoff — possibly already tombstoned.
    st.tuples(st.just("adopt"), st.sampled_from(_NAMES), _KINDS,
              st.booleans()),
    st.tuples(st.just("merge"), st.sampled_from(_NAMES), _KINDS,
              st.booleans()),
    # A known UAdd written again: last write wins, and it may flip
    # ``kind`` (the in-place attrs update) or the tombstone.
    st.tuples(st.just("readopt"), st.integers(0, 63), _KINDS, st.booleans()),
    st.tuples(st.just("remerge"), st.integers(0, 63), _KINDS, st.booleans()),
    st.tuples(st.just("deregister"), st.integers(0, 63)),
)


def _attrs(kind):
    return {} if kind is None else {"kind": kind}


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=40))
def test_gateway_index_equals_the_record_scan(ops):
    db = NameDatabase()
    remote = NameDatabase(server_id=7)   # mints the foreign UAdds
    for op in ops:
        known = db.all_records()
        if op[0] == "register":
            db.register(op[1], _attrs(op[2]), [("n0", "tcp:n0:h:1")], "VAX")
        elif op[0] in ("adopt", "merge"):
            record = remote.register(
                op[1], _attrs(op[2]), [("n0", "tcp:n0:h:2")], "VAX")
            getattr(db, op[0])(NameRecord.decode(
                replace(record, alive=op[3]).encode()))
        elif op[0] in ("readopt", "remerge") and known:
            record = replace(known[op[1] % len(known)],
                             attrs=_attrs(op[2]), alive=op[3])
            getattr(db, op[0][2:])(record)
        elif op[0] == "deregister" and known:
            db.deregister(known[op[1] % len(known)].uadd)
        listed = db.list_gateways()
        oracle = _scan_gateways(db)
        assert [id(r) for r in listed] == [id(r) for r in oracle]
        assert len(db) == sum(1 for r in db.all_records() if r.alive)
    # Served from the index: answering never inspects the population.
    with _CountGatewayChecks() as checks:
        db.list_gateways()
    assert checks.calls <= len(_scan_gateways(db))


def test_list_gateways_cost_is_independent_of_the_name_population():
    db = NameDatabase()
    first = db.register("gw.a", {"kind": "gateway"}, [], "VAX")
    for i in range(2_000):
        db.register(f"mod.{i}", {}, [], "VAX")
    second = db.register("gw.b", {"kind": "gateway"}, [], "VAX")
    with _CountGatewayChecks() as checks:
        listed = db.list_gateways()
    assert [r.uadd for r in listed] == [first.uadd, second.uadd]
    assert checks.calls <= 2
    assert len(db) == 2_002


def test_known_uadd_turning_gateway_keeps_its_first_adoption_place():
    db = NameDatabase()
    late = db.register("late", {}, [], "VAX")
    gw = db.register("gw", {"kind": "gateway"}, [], "VAX")
    db.adopt(replace(late, attrs={"kind": "gateway"}))
    assert [r.uadd for r in db.list_gateways()] == [late.uadd, gw.uadd]
    db.adopt(replace(gw, attrs={"kind": "retired"}))
    assert [r.uadd for r in db.list_gateways()] == [late.uadd]


# ---------------------------------------------------------------------------
# One compact record per name (PROTOCOL.md §9)
# ---------------------------------------------------------------------------

def test_a_name_costs_at_most_500_bytes_in_two_replicas():
    """10,000 names registered on one database and adopted by a second,
    as ``cold_contact_sharded`` builds its fleet: what the two stores
    allocate, per name, with each registration's inputs (its name and
    its address list) built before tracing starts.  Measured 433 / 356
    / 348 B on Python 3.9 / 3.11 / 3.12; a list per name, a dict-backed
    record and private copies of ``attrs`` and ``addresses`` cost 961 /
    668 / 652 B."""
    count = 10_000
    origin, replica = NameDatabase(), NameDatabase(server_id=1)
    inputs = [(f"bg.{i:06d}", [("net0", f"tcp:net0:bg:{i}")])
              for i in range(count)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for name, addresses in inputs:
            replica.adopt(origin.register(name, {}, addresses, "VAX"))
        per_name = (tracemalloc.get_traced_memory()[0] - before) / count
    finally:
        tracemalloc.stop()
    assert len(origin) == len(replica) == count
    assert per_name <= 500


def _history_answers(db, uadds, name):
    """What the database answers about a name's history: its newest
    alive UAdd, each UAdd's activity and forwarding outcome."""
    try:
        newest = db.resolve_name(name).uadd
    except NoSuchName:
        newest = None
    forwarding = []
    for uadd in uadds:
        try:
            forwarding.append(db.lookup_forwarding(uadd).uadd)
        except (ModuleStillAlive, NoForwardingAddress) as exc:
            forwarding.append(type(exc).__name__)
    return (newest, [db.is_active(db.get(uadd)) for uadd in uadds],
            forwarding)


def _oracle_answers(alive, uadds):
    """The same answers from a plain list of (UAdd, alive) in
    registration order: the newest alive registration is the module."""
    living = [uadd for uadd in uadds if alive[uadd]]
    newest = living[-1] if living else None
    forwarding = ["ModuleStillAlive" if uadd == newest
                  else newest or "NoForwardingAddress" for uadd in uadds]
    return newest, [uadd == newest for uadd in uadds], forwarding


@pytest.mark.parametrize("registrations", [1, 2, 3])
def test_name_history_answers_with_tombstones_in_between(registrations):
    """One name registered 1, 2 or 3 times, each registration followed
    by any mix of deregistering an earlier one, a replicated tombstone
    merged in, or nothing: every answer equals the list oracle's, and a
    merge reports exactly the writes that changed the database."""
    steps = ("none", "deregister-newest", "deregister-oldest",
             "merge-tombstone-newest")
    for plan in itertools.product(steps, repeat=registrations):
        db = NameDatabase()
        uadds, alive = [], {}
        for step in plan:
            record = _register(db, "svc")
            uadds.append(record.uadd)
            alive[record.uadd] = True
            living = [uadd for uadd in uadds if alive[uadd]]
            if step == "none" or not living:
                pass
            elif step.startswith("deregister"):
                target = living[-1] if step.endswith("newest") else living[0]
                assert db.deregister(target) is True
                alive[target] = False
            else:
                tombstone = replace(db.get(living[-1]), alive=False)
                assert db.merge(tombstone) is True
                assert db.merge(tombstone) is False
                alive[living[-1]] = False
            assert _history_answers(db, uadds, "svc") == \
                _oracle_answers(alive, uadds), plan
        assert len(db) == sum(alive.values())


def test_a_name_adopted_from_a_replica_joins_its_history():
    db, remote = NameDatabase(), NameDatabase(server_id=7)
    local = _register(db, "svc")
    assert db.merge(NameRecord.decode(_register(remote, "svc").encode()))
    newer = db.resolve_name("svc")
    assert newer.uadd.value >> 48 == 7
    assert not db.is_active(local)
    assert db.lookup_forwarding(local.uadd) is newer


def test_a_logged_snapshot_keeps_alive_after_a_later_deregister():
    db = NameDatabase()
    record = _register(db, "a", kind="echo")
    db.log_write(record)
    assert db.deregister(record.uadd)
    (stamp, snapshot), = db.oplog
    assert stamp == db.generation - 1
    assert snapshot is not record
    assert snapshot.alive and not record.alive
    assert snapshot == replace(record, alive=True)
    assert snapshot.attrs is record.attrs
    assert snapshot.addresses is record.addresses


@pytest.mark.parametrize("attrs", [{}, {"kind": "echo"}])
def test_writing_into_a_records_attrs_raises(attrs):
    db = NameDatabase()
    caller = dict(attrs)
    record = db.register("a", caller, [("ether0", "b1")], "VAX")
    caller["late"] = "x"
    assert record.attrs == attrs
    for held in (record, NameRecord.decode(record.encode())):
        with pytest.raises(TypeError):
            held.attrs["kind"] = "gateway"
        assert held.attrs == attrs
        assert isinstance(held.addresses, tuple)
    assert (record.attrs is NO_ATTRS) == (not attrs)
    assert NameRecord(name="x", uadd=make_uadd(9), mtype_name="VAX",
                      attrs={}).attrs is NO_ATTRS


def test_only_the_database_writes_a_record_after_construction():
    # ONE009's matches over src/repro: the record's constructor, and
    # the database's tombstone and last-write-wins update.
    [row] = [row for row in SOLE_SITES if row.id == "ONE009"]
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    assert {(module.name, function) for module, function, _
            in row_sites(Project.load([src]), row)} == {
        ("repro.naming.protocol", "NameRecord.__init__"),
        ("repro.naming.database", "NameDatabase.adopt"),
        ("repro.naming.database", "NameDatabase.adopt_tombstone"),
        ("repro.naming.database", "NameDatabase.deregister"),
    }
