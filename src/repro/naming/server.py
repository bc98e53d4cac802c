"""The Name Server module (paper Secs. 3, 3.2).

"For all practical purposes, the naming service is nothing more than an
application built on the Nucleus; however, it is also used by the
Nucleus, forcing the Nucleus to operate recursively."

The Name Server is an ordinary process with an ordinary Nucleus; its
single special property is that it listens at a *well-known* physical
address and assigns itself the first UAdd its database generates —
which every module's well-known table knows by convention
(:data:`~repro.ntcs.address.NAME_SERVER_UADD`).

The same class is every member of a naming *fleet* (paper Sec. 7,
PROTOCOL.md §14): "[the naming service] will be replicated for failure
resiliency ... The database could also be partially distributed across
two or more such modules ... without affecting the rest of the NTCS."
A server replicates its writes to the other replicas of its shard
(last write wins, over the NTCS's own connectionless protocol), serves
and pulls generation-stamped anti-entropy, and answers requests the
consistent-hash ring assigns to another shard with
``ns_shard_redirect``.  The lone Name Server is the fleet of one: no
peers, no ring, every name its own.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import (
    DestinationUnavailable,
    ModuleStillAlive,
    NameServerUnreachable,
    NoForwardingAddress,
    NoSuchAddress,
    NoSuchName,
    NtcsError,
    ProtocolError,
    ReplyTimeout,
)
from repro.machine.process import SimProcess
from repro.naming import protocol as p
from repro.naming.database import NameDatabase
from repro.naming.protocol import NameRecord
from repro.naming.shards import HashRing, ShardEntry, load_name_servers
from repro.ntcs.address import Address, SERVER_ID_SHIFT, blob_network
from repro.ntcs.lcm import IncomingMessage
from repro.ntcs.message import FLAG_INTERNAL
from repro.ntcs.nucleus import Nucleus, NucleusConfig
from repro.ntcs.wellknown import WellKnownTable
from repro.util.counters import (
    NAME_SERVER, NS_ANTIENTROPY_APPLIED, NS_ANTIENTROPY_ROUNDS, NS_ANTIENTROPY_SERVED,
    NS_ANTIENTROPY_SKIPPED, NS_HANDOFF_RECORDS_IN, NS_HANDOFF_RECORDS_OUT,
    NS_REDIRECTS_SERVED, NS_UNKNOWN_REQUESTS, Counters, declare)


class _LocalNsp:
    """The Name Server's own Nucleus resolves against the local
    database directly — it cannot very well ask itself over the wire."""

    def __init__(self, db: NameDatabase):
        self._db = db

    def resolve_uadd(self, uadd: Address) -> NameRecord:
        return self._db.resolve_uadd(uadd)

    def resolve_name(self, name: str) -> Address:
        return self._db.resolve_name(name).uadd

    def lookup_forwarding(self, uadd: Address) -> Address:
        return self._db.lookup_forwarding(uadd).uadd

    def list_gateways(self):
        return self._db.list_gateways()

    def evict_address(self, uadd: Address) -> None:
        """No-op: the local database is authoritative, never stale."""


class NameServer:
    """One Name Server module: the lone server of a small deployment,
    or one replica of one shard of a fleet.

    ``shard_id`` says which shard of the fleet directory this server
    belongs to; until :meth:`set_shard_map` installs a directory naming
    other servers it has no replica peers and owns every name.
    """

    DEFAULT_NAME = "name.server"

    def __init__(
        self,
        process: SimProcess,
        registry,
        wellknown: WellKnownTable,
        network: Optional[str] = None,
        binding: Optional[str] = None,
        config: Optional[NucleusConfig] = None,
        db: Optional[NameDatabase] = None,
        name: str = None,
        shard_id: int = 0,
    ):
        self.process = process
        self.name = name or self.DEFAULT_NAME
        self.shard_id = shard_id
        self.peer_uadds: List[Address] = []
        self.shard_directory: Dict[int, List[ShardEntry]] = {}
        self._ring: Optional[HashRing] = None
        self._minted: Dict[int, int] = {}
        # Per-peer anti-entropy watermark: the peer's generation tip as
        # of the last completed pull.  Deliberately *not* persisted on
        # the database: a restarted replica starts at zero and replays
        # the peer's whole oplog (the merge is idempotent).
        self._applied_gen: Dict[Address, int] = {}
        network = network or process.machine.networks[0]
        self.nucleus = Nucleus(process, network, registry, wellknown,
                               config=config)
        scheduler = process.scheduler
        self.db = db if db is not None else NameDatabase(clock=lambda: scheduler.now)
        self.listen_blob = self.nucleus.nd.create_resource(binding)
        # Self-registration is purely local — this is the base case that
        # terminates the naming recursion.  A *restarted* Name Server
        # handed its surviving database must keep its original UAdd:
        # every module's well-known table knows that address by
        # convention, and endpoints of chained opens check it with
        # is_self.  Reuse the existing record — refreshing its physical
        # address — instead of registering a second identity.
        try:
            record = self.db.resolve_name(self.name)
            self.db.readdress(record, [(network, self.listen_blob)])
        except NoSuchName:
            # First boot: nothing to take over — register fresh.
            record = self.db.register(
                self.name,
                attrs={"kind": "nameserver"},
                addresses=[(network, self.listen_blob)],
                mtype_name=process.machine.mtype.name,
            )
        self.uadd = record.uadd
        self.nucleus.set_identity(self.uadd)
        self.nucleus.nsp = _LocalNsp(self.db)
        self.nucleus.lcm.set_handler(self._on_request)
        self.counters = Counters(NAME_SERVER)
        # Each server dispatches through its own bound copy of the table.
        self._handlers = {name: handler.__get__(self)
                          for name, handler in NameServer._handlers.items()}

    # Reply types that carry the database generation (PROTOCOL.md §9);
    # _on_request stamps it centrally so no handler can forget.
    _GEN_REPLIES = frozenset({
        "ns_register_ack", "ns_resolve_name_ack", "ns_record_ack",
        "ns_forward_ack", "ns_list_gw_ack", "ns_query_attrs_ack",
        "ns_resolve_batch_ack",
    })

    # -- dispatch -----------------------------------------------------------

    def _on_request(self, request: IncomingMessage) -> None:
        handler = self._handlers.get(request.type_name)
        if handler is None:
            self.counters[NS_UNKNOWN_REQUESTS] += 1
            return
        self.counters[NS_REQUESTS[request.type_name]] += 1
        try:
            # Ownership is checked here, once, for the request types
            # that have an owner — and only once a ring exists.
            owner = None
            if self._ring is not None and request.type_name in p.SHARD_KEYED:
                owner = self._misrouted(request)
            if owner is None:
                reply_type, values = handler(request)
            else:
                reply_type, values = self._redirect(owner)
        except NtcsError as exc:
            self.nucleus.log_error(f"{request.type_name} failed: {exc}")
            reply_type, values = "ns_ack", {"ok": 0, "detail": str(exc)[:90]}
        if reply_type in self._GEN_REPLIES:
            values.setdefault("gen", self.db.generation)
        if request.reply_expected:
            self.nucleus.lcm.reply(request, reply_type, values,
                                   flags=FLAG_INTERNAL)

    # -- handlers ----------------------------------------------------------------

    def _handle_register(self, request: IncomingMessage):
        attrs, addresses = p.decode_register_payload(request.values["payload"])
        record = self.db.register(
            name=request.values["name"],
            attrs=attrs,
            addresses=addresses,
            mtype_name=request.values["mtype"],
        )
        self._replicate("register", record)
        return "ns_register_ack", {"uadd": record.uadd.value}

    def _handle_resolve_name(self, request: IncomingMessage):
        """The answer carries the record too, so the locating module
        learns where the module is without an ``ns_resolve_uadd``."""
        try:
            record = self.db.resolve_name(request.values["name"])
        except NoSuchName:
            return "ns_resolve_name_ack", {"found": 0, "uadd": 0, "record": b""}
        return "ns_resolve_name_ack", {
            "found": 1, "uadd": record.uadd.value,
            "record": p.encode_records([record]),
        }

    def _handle_resolve_uadd(self, request: IncomingMessage):
        try:
            record = self.db.resolve_uadd(Address(value=request.values["uadd"]))
        except NoSuchAddress:
            return "ns_record_ack", {"found": 0, "record": b""}
        return "ns_record_ack", {
            "found": 1, "record": p.encode_records([record]),
        }

    def _handle_forward(self, request: IncomingMessage):
        old = Address(value=request.values["uadd"])
        try:
            replacement = self.db.lookup_forwarding(old)
        except NoSuchAddress:
            return "ns_forward_ack", {"status": p.FWD_NONE, "new_uadd": 0}
        except NoForwardingAddress:
            return "ns_forward_ack", {"status": p.FWD_NONE, "new_uadd": 0}
        except ModuleStillAlive:
            return "ns_forward_ack", {"status": p.FWD_ALIVE, "new_uadd": 0}
        return "ns_forward_ack", {
            "status": p.FWD_FOUND, "new_uadd": replacement.uadd.value,
        }

    def _handle_deregister(self, request: IncomingMessage):
        uadd = Address(value=request.values["uadd"])
        ok = self.db.deregister(uadd)
        if ok:
            self._replicate("deregister", self.db.resolve_uadd(uadd))
        return "ns_ack", {"ok": 1 if ok else 0, "detail": ""}

    def _handle_list_gw(self, request: IncomingMessage):
        gateways = self.db.list_gateways()
        return "ns_list_gw_ack", {
            "count": len(gateways), "records": p.encode_records(gateways),
        }

    def _handle_ping(self, request: IncomingMessage):
        return "ns_ack", {"ok": 1, "detail": "pong"}

    def _handle_resolve_batch(self, request: IncomingMessage):
        """Resolve many names in one round trip (PROTOCOL.md §9): the
        found records ride back whole, so one reply primes both the
        name→UAdd and UAdd→record caches."""
        names = p.decode_name_list(p.decode_text(request.values["names"]))
        records, missing = [], []
        for name in names:
            try:
                records.append(self.db.resolve_name(name))
            except NoSuchName:
                missing.append(name)
        return "ns_resolve_batch_ack", {
            "count": len(records),
            "payload": p.encode_batch_payload(missing, records),
        }

    def _handle_query_attrs(self, request: IncomingMessage):
        query_text = p.decode_text(request.values["query"])
        # Rich predicate syntax ("shard<=3") is served when the database
        # implements it (the Sec. 7 attribute-naming extension); plain
        # "k=v;k=v" exact matching otherwise.
        if hasattr(self.db, "query_predicates") and any(
            op in query_text for op in ("<", ">", "!", "~", "*")
        ):
            from repro.naming.attributes import parse_query
            matches = self.db.query_predicates(parse_query(query_text))
        else:
            matches = self.db.query_attrs(p.decode_attrs(query_text))
        return "ns_query_attrs_ack", {
            "count": len(matches), "records": p.encode_records(matches),
        }

    # -- the fleet: shard map, ownership, redirects (PROTOCOL.md §14) -----------

    @property
    def directory_entry(self) -> ShardEntry:
        """This server's line in the fleet directory."""
        return (self.uadd, self.listen_blob, self.process.machine.mtype.name)

    def set_shard_map(self, shard_directory: Dict[int, List[ShardEntry]]) -> None:
        """Install (or refresh, after a rebalance or restart) the
        shard→replicas directory: the other entries of this server's
        own shard become its replication peers, the ring is drawn once
        a second shard exists, and every fleet member's well-known
        address is loaded into this module's tables (the Sec. 3.4
        bootstrap, extended to the fleet)."""
        self.shard_directory = {
            sid: list(entries) for sid, entries in shard_directory.items()
        }
        self.peer_uadds = [
            uadd for uadd, _, _ in self.shard_directory.get(self.shard_id, [])
            if uadd != self.uadd
        ]
        self._ring = (HashRing(self.shard_directory)
                      if len(self.shard_directory) > 1 else None)
        self._minted = load_name_servers(
            self.nucleus, self.shard_directory, own=self.uadd)

    def _misrouted(self, request: IncomingMessage) -> Optional[int]:
        """The shard that should serve a name- or UAdd-keyed request,
        when the ring says it is not this one.

        A record we hold is owned by whoever owns its name (it may
        have moved in a rebalance); an unknown UAdd routes by the
        server id that minted it.  Fleet self-registrations are exempt
        from ring ownership: a server is always the authority for its
        own address, and hashing ``name.shard.N.R`` like application
        data would bounce a redirect between the minting shard and the
        hash owner forever."""
        values = request.values
        if request.type_name in p.UADD_KEYED:
            uadd = Address(value=values["uadd"])
            record = self.db.get(uadd)
            if record is None:
                owner = self._minted.get(uadd.value >> SERVER_ID_SHIFT,
                                         self.shard_id)
            elif record.attrs.get("kind") == "nameserver":
                return None
            else:
                owner = self._ring.owner(record.name)
            return owner if owner != self.shard_id else None
        if request.type_name in p.NAME_KEYED:
            names = [values["name"]]
        else:
            names = p.decode_name_list(p.decode_text(values["names"]))
        for name in names:
            owner = self._ring.owner(name)
            if owner != self.shard_id:
                return owner
        return None

    def _redirect(self, shard_id: int):
        """A redirect reply carrying the owning shard's replica
        directory as name records, so the client can follow it without
        any further resolution."""
        self.counters[NS_REDIRECTS_SERVED] += 1
        records = [
            NameRecord(
                name=f"name.shard.{shard_id}",
                uadd=uadd,
                mtype_name=mtype_name,
                attrs={"kind": "nameserver", "shard": str(shard_id)},
                addresses=[(blob_network(blob), blob)] if blob else [],
            )
            for uadd, blob, mtype_name in self.shard_directory.get(shard_id, [])
        ]
        return "ns_shard_redirect", {
            "shard_id": shard_id,
            "count": len(records),
            "records": p.encode_records(records),
        }

    # -- replication + anti-entropy ---------------------------------------------

    def _replicate(self, op: str, record: NameRecord) -> None:
        """Fan an origin write out to the shard's other replicas, best
        effort.  It first enters the anti-entropy log under its
        generation stamp, so a peer that missed the datagram can pull
        it later; with no peers there is nobody to pull and no log."""
        if not self.peer_uadds:
            return
        self.db.log_write(record)
        for peer in self.peer_uadds:
            self.nucleus.lcm.datagram(peer, "ns_repl_update", {
                "op": op,
                "record": p.encode_records([record]),
            }, flags=FLAG_INTERNAL)

    def _handle_repl_update(self, request: IncomingMessage):
        adopt = (self.db.adopt_tombstone
                 if request.values["op"] == "deregister" else self.db.adopt)
        for record in p.decode_records(request.values["record"]):
            adopt(record)
        return "ns_ack", {"ok": 1, "detail": ""}

    def _handle_antientropy(self, request: IncomingMessage):
        watermark = request.values["gen"]
        entries = [(stamp, record) for stamp, record in self.db.oplog
                   if stamp > watermark]
        self.counters[NS_ANTIENTROPY_SERVED] += 1
        return "ns_antientropy_ack", {
            "gen": self.db.generation,
            "count": len(entries),
            "records": p.encode_stamped_records(entries),
        }

    def run_antientropy(self) -> int:
        """Pull every in-shard peer's origin writes past our watermark
        and merge them (tombstone-wins).  Returns how many records
        changed this database.  Called after a restart — and callable
        any time; the exchange is idempotent."""
        applied = 0
        for peer in list(self.peer_uadds):
            try:
                reply = self.nucleus.lcm.call(peer, "ns_antientropy", {
                    "shard_id": self.shard_id,
                    "gen": self._applied_gen.get(peer, 0),
                    "digest": str(self.db.generation).encode("ascii"),
                }, flags=FLAG_INTERNAL)
            except (NameServerUnreachable, DestinationUnavailable,
                    ReplyTimeout):
                self.counters[NS_ANTIENTROPY_SKIPPED] += 1
                continue
            if reply.type_name != "ns_antientropy_ack":
                self.counters[NS_ANTIENTROPY_SKIPPED] += 1
                continue
            for _stamp, record in p.decode_stamped_records(
                    reply.values["records"]):
                if self.db.merge(record):
                    applied += 1
            self._applied_gen[peer] = reply.values["gen"]
            self.counters[NS_ANTIENTROPY_ROUNDS] += 1
        self.counters[NS_ANTIENTROPY_APPLIED] += applied
        return applied

    # -- ownership transfer ------------------------------------------------------

    def _handle_handoff(self, request: IncomingMessage):
        if request.values["shard_id"] != self.shard_id:
            return "ns_shard_handoff_ack", {"ok": 0, "count": 0}
        pairs = p.decode_stamped_records(request.values["records"])
        applied = 0
        for _stamp, record in pairs:
            if self.db.merge(record):
                applied += 1
                # The moved record becomes an origin write of the new
                # owner: logged for anti-entropy and fanned out to the
                # shard's replicas.
                self._replicate(
                    "register" if record.alive else "deregister", record)
        self.counters[NS_HANDOFF_RECORDS_IN] += len(pairs)
        return "ns_shard_handoff_ack", {"ok": 1, "count": applied}

    def handoff_to(self, new_shard_id: int, target: Address) -> int:
        """Push every record the (re-drawn) ring assigns to
        ``new_shard_id`` to that shard's replica at ``target``.  The
        records stay in this database as stale copies — the ownership
        check redirects every future request for them."""
        moved = [
            (self.db.generation, record)
            for record in self.db.all_records()
            if self._ring.owner(record.name) == new_shard_id
            # Fleet self-registrations stay pinned to the shard that
            # minted them (see _misrouted); shipping a copy could
            # serve a stale address after the server re-binds.
            and record.attrs.get("kind") != "nameserver"
        ]
        if not moved:
            return 0
        reply = self.nucleus.lcm.call(target, "ns_shard_handoff", {
            "shard_id": new_shard_id,
            "count": len(moved),
            "records": p.encode_stamped_records(moved),
        }, flags=FLAG_INTERNAL)
        if reply.type_name != "ns_shard_handoff_ack" \
                or not reply.values["ok"]:
            raise ProtocolError(
                f"shard {new_shard_id} rejected the ownership handoff")
        self.counters[NS_HANDOFF_RECORDS_OUT] += len(moved)
        return len(moved)

    def kill(self) -> None:
        """Take the Name Server down (E2's removal experiment)."""
        self.process.kill()

    # The dispatch table: request type -> handler.
    _handlers = {
        "ns_register": _handle_register,
        "ns_resolve_name": _handle_resolve_name,
        "ns_resolve_uadd": _handle_resolve_uadd,
        "ns_forward": _handle_forward,
        "ns_deregister": _handle_deregister,
        "ns_list_gw": _handle_list_gw,
        "ns_ping": _handle_ping,
        "ns_query_attrs": _handle_query_attrs,
        "ns_resolve_batch": _handle_resolve_batch,
        "ns_repl_update": _handle_repl_update,
        "ns_antientropy": _handle_antientropy,
        "ns_shard_handoff": _handle_handoff,
    }


# One count per served request type, declared from the dispatch table.
NS_REQUESTS = {name: declare(NAME_SERVER, name, f"{name} requests served")
               for name in NameServer._handlers}
