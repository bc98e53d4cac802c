"""The Name Service Protocol Layer (paper Sec. 2.4).

"The NSP-Layer is the single naming service access point for all layers
within the ComMod.  Its purpose is to fully isolate the ComMod from the
naming service implementation."

Everything here is a thin client over ordinary Nucleus communication —
"the NSP-layers talk across multiple networks in the identical manner
as application modules do" (Sec. 3.1).  The service behind it may be
one server, a replicated group or a sharded fleet (Sec. 7, PROTOCOL.md
§14): that is the *directory* the layer reads from the well-known
table when it is built, never a different class.  Every
request takes one path: route to the owning shard, fail over inside
its replica group, follow a bounded number of ``ns_shard_redirect``
hops and fold newly learned shards into the ring.

The control-plane fast path (PROTOCOL.md §9) lives here too:

* a generation-stamped :class:`~repro.naming.cache.ResolutionCache`
  answers repeated resolutions without a round trip,
* *single-flight coalescing* lets concurrent identical resolutions —
  issued from nested ``pump_until`` frames — share one in-flight
  Name-Server call,
* :meth:`resolve_batch` resolves many names in one ``ns_resolve_batch``
  round trip, priming the cache with the returned records.

All three are disabled by ``NucleusConfig.nsp_cache_enabled = False``,
which reproduces the uncached control plane message-for-message — and
whenever the directory holds more than one server: generation stamps
of different servers are not comparable (each database counts its own
writes), and a coalesced call bypasses the failover loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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
from repro.naming import protocol as p
from repro.naming.cache import ResolutionCache
from repro.naming.protocol import NameRecord
from repro.naming.shards import HashRing, ShardEntry, load_name_servers
from repro.ntcs.address import Address, SERVER_ID_SHIFT
from repro.ntcs.lcm import CALL_RETRIES, CallHandle, IncomingMessage
from repro.ntcs.message import FLAG_INTERNAL


@dataclass
class _Flight:
    """One in-flight, shareable Name-Server call (single-flight)."""

    handle: Optional[CallHandle] = None


class NspLayer:
    """Client stub for the naming service, whatever its shape.

    The fleet — {shard id: [(uadd, listen blob, machine type name)]} —
    is read from the deployment's well-known table when the module is
    initialized (Sec. 3.4); with none published that is the one
    conventional Name Server.
    """

    LAYER = "NSP"
    _MAX_HOPS = 4

    def __init__(self, nucleus):
        self.nucleus = nucleus
        self._directory: Dict[int, List[ShardEntry]] = {
            sid: list(entries)
            for sid, entries in nucleus.wellknown.name_servers().items()
        }
        self._anchor = min(self._directory)
        self.ns_uadd = self._directory[self._anchor][0][0]
        self._minted = load_name_servers(nucleus, self._directory)
        self._ring = (HashRing(self._directory)
                      if len(self._directory) > 1 else None)
        # Per shard, the replica that answered last.
        self._current: Dict[int, int] = {}
        self.failovers = 0
        # The §9 fast path needs one authority to stamp generations:
        # it is on exactly when the directory holds one server.
        config = nucleus.config
        servers = sum(len(entries) for entries in self._directory.values())
        self.cache: Optional[ResolutionCache] = None
        self._coalesce = bool(config.nsp_cache_enabled) and servers == 1
        if self._coalesce:
            scheduler = nucleus.scheduler
            self.cache = ResolutionCache(
                clock=lambda: scheduler.now,
                counters=nucleus.counters,
                negative_ttl=config.nsp_negative_ttl,
            )
        self._flights: Dict[tuple, _Flight] = {}

    # -- transport: route, fail over, follow redirects ----------------------------

    def _route(self, type_name: str, values: dict) -> int:
        if self._ring is not None:
            if type_name in p.NAME_KEYED:
                return self._ring.owner(values["name"])
            if type_name in p.UADD_KEYED:
                shard = self._minted.get(values["uadd"] >> SERVER_ID_SHIFT)
                if shard is not None:
                    return shard
        return self._anchor

    def _learn_redirect(self, reply: IncomingMessage) -> int:
        """Absorb a redirect: count it, and if it names a shard we have
        never seen (a rebalance happened behind our back), fold its
        replica directory into the ring — shard-level path compression.
        Learning a second server ends the §9 fast path for good."""
        shard_id = reply.values["shard_id"]
        nucleus = self.nucleus
        nucleus.counters.incr("nsp_shard_redirects")
        if shard_id not in self._directory:
            entries: List[ShardEntry] = []
            for record in p.decode_records(reply.values["records"]):
                blob = record.addresses[0][1] if record.addresses else ""
                entries.append((record.uadd, blob, record.mtype_name))
            if not entries:
                raise ProtocolError(
                    f"redirect to unknown shard {shard_id} without a directory")
            self._directory[shard_id] = entries
            self._minted.update(
                load_name_servers(nucleus, {shard_id: entries}))
            self._ring = HashRing(self._directory)
            self.cache = None
            self._coalesce = False
            nucleus.counters.incr("nsp_shard_ring_updates")
        return shard_id

    def _call_replicas(self, shard: int, type_name: str, values: dict,
                       timeout: Optional[float]) -> IncomingMessage:
        nucleus = self.nucleus
        servers = self._directory[shard]
        start = self._current.get(shard, 0)
        last_error: Optional[Exception] = None
        for i in range(len(servers)):
            index = (start + i) % len(servers)
            try:
                reply = nucleus.lcm.call(
                    servers[index][0], type_name, values,
                    timeout=timeout, flags=FLAG_INTERNAL,
                )
            except (NameServerUnreachable, DestinationUnavailable,
                    ReplyTimeout) as exc:
                if len(servers) == 1:
                    raise  # nobody to fail over to: the error as it is
                last_error = exc
                if i + 1 < len(servers):
                    self.failovers += 1
                    nucleus.counters.incr("ns_failovers")
                continue
            self._current[shard] = index
            return reply
        raise NameServerUnreachable(
            f"all {len(servers)} servers of naming shard {shard} "
            f"failed: {last_error}"
        )

    def _call_shard(self, shard: int, type_name: str, values: dict,
                    reason: str, timeout: Optional[float] = None,
                    follow: bool = True) -> IncomingMessage:
        nucleus = self.nucleus
        with nucleus.enter(self.LAYER, type_name, reason=reason):
            nucleus.counters.incr("nsp_calls")
            for _hop in range(1 + self._MAX_HOPS):
                reply = self._call_replicas(shard, type_name, values, timeout)
                if reply.type_name != "ns_shard_redirect":
                    return reply
                target = self._learn_redirect(reply)
                if not follow:
                    return reply
                if target == shard:
                    break
                shard = target
            raise ProtocolError(
                f"sharded naming: redirect loop for {type_name}")

    def _call(self, type_name: str, values: dict, reason: str,
              timeout: Optional[float] = None) -> IncomingMessage:
        return self._call_shard(self._route(type_name, values),
                                type_name, values, reason, timeout=timeout)

    def _resolve(self, type_name: str, values: dict, reason: str,
                 key: Optional[tuple] = None,
                 timeout: Optional[float] = None) -> IncomingMessage:
        """One resolution round trip, coalesced with any identical
        in-flight one.  ``key`` identifies the resolution; None (or
        coalescing disabled) degrades to a plain :meth:`_call`."""
        if key is None or not self._coalesce:
            return self._call(type_name, values, reason, timeout=timeout)
        flight = self._flights.get(key)
        if flight is not None and flight.handle is not None:
            self.nucleus.counters.incr("nsp_calls_coalesced")
            reply = self._join(flight, type_name, values, reason, timeout)
        else:
            reply = self._lead(key, type_name, values, reason, timeout)
        if reply.type_name == "ns_shard_redirect":
            # The lone server grew into a fleet behind our back: learn
            # the shard it names and ask again down the routed path.
            return self._call_shard(self._learn_redirect(reply), type_name,
                                    values, reason, timeout=timeout)
        return reply

    def _lead(self, key: tuple, type_name: str, values: dict, reason: str,
              timeout: Optional[float]) -> IncomingMessage:
        """Issue the shared call; mirrors :meth:`LcmLayer.call`'s retry
        discipline (circuit deaths retried, reply timeouts not) but
        exposes the in-flight handle for followers to pump on."""
        nucleus = self.nucleus
        flight = _Flight()
        try:
            with nucleus.enter(self.LAYER, type_name, reason=reason):
                nucleus.counters.incr("nsp_calls")
                attempts = 1 + CALL_RETRIES
                last_error = ""
                for _ in range(attempts):
                    handle = nucleus.lcm.call_async(
                        self.ns_uadd, type_name, values, flags=FLAG_INTERNAL,
                    )
                    # Register (or refresh) the flight only after the
                    # send completed: nested frames running inside the
                    # send itself must not join a handle-less flight.
                    flight.handle = handle
                    self._flights[key] = flight
                    try:
                        return handle.result(timeout=timeout)
                    except DestinationUnavailable as exc:
                        last_error = str(exc)
                        nucleus.counters.incr("lcm_call_retries")
                raise DestinationUnavailable(
                    f"call to {self.ns_uadd}: {last_error}"
                )
        finally:
            if self._flights.get(key) is flight:
                del self._flights[key]

    def _join(self, flight: _Flight, type_name: str, values: dict,
              reason: str, timeout: Optional[float]) -> IncomingMessage:
        """Wait on the leader's in-flight call.  A follower runs in a
        pump frame *above* the leader's, so it sees the shared reply
        (or circuit death) first; on death it falls back to a private
        call — the leader cannot retry while we are on its stack."""
        try:
            return flight.handle.result(timeout=timeout)
        except DestinationUnavailable:
            return self._call(type_name, values, reason, timeout=timeout)

    def _observe(self, gen: int) -> None:
        """Feed a reply's generation stamp to the cache, if any."""
        if self.cache is not None:
            self.cache.observe_generation(gen)

    # -- the naming-service operations ----------------------------------------

    def register(
        self,
        name: str,
        attrs: Dict[str, str],
        addresses: List[Tuple[str, str]],
        mtype_name: str,
    ) -> Address:
        """Register a module; returns its freshly generated UAdd."""
        reply = self._call("ns_register", {
            "name": name,
            "mtype": mtype_name,
            "payload": p.encode_register_payload(attrs or {}, addresses),
        }, reason=f"register {name!r}")
        self._expect(reply, "ns_register_ack")
        self._observe(reply.values.get("gen", 0))
        return Address(value=reply.values["uadd"])

    def resolve_name(self, name: str) -> Address:
        """Logical name → UAdd (the first of the two mappings,
        Sec. 3.3)."""
        if self.cache is not None:
            cached = self.cache.lookup_name(name)
            if cached is not None:
                return cached
        reply = self._resolve("ns_resolve_name", {"name": name},
                              reason=f"resolve {name!r}",
                              key=("name", name))
        self._expect(reply, "ns_resolve_name_ack")
        gen = reply.values.get("gen", 0)
        self._observe(gen)
        if not reply.values["found"]:
            if self.cache is not None:
                self.cache.store_missing_name(name, gen)
            raise NoSuchName(f"no module registered as {name!r}")
        uadd = Address(value=reply.values["uadd"])
        if self.cache is not None:
            self.cache.store_name(name, uadd, gen)
        return uadd

    def resolve_uadd(self, uadd: Address) -> NameRecord:
        """UAdd → physical location record (the second mapping).
        TAdds bypass the cache entirely: "they purge within two NS
        communications" (Sec. 3.3)."""
        cacheable = self.cache is not None and not uadd.temporary
        if cacheable:
            cached = self.cache.lookup_record(uadd)
            if cached is not None:
                return cached
        reply = self._resolve("ns_resolve_uadd", {"uadd": uadd.value},
                              reason=f"locate {uadd}",
                              key=("uadd", uadd))
        self._expect(reply, "ns_record_ack")
        # A redirect learned on the way may have dropped the cache.
        cacheable = cacheable and self.cache is not None
        gen = reply.values.get("gen", 0)
        self._observe(gen)
        if not reply.values["found"]:
            if cacheable:
                self.cache.store_missing_record(uadd, gen)
            raise NoSuchAddress(f"naming service has no entry for {uadd}")
        records = p.decode_records(reply.values["record"])
        if len(records) != 1:
            raise ProtocolError("ns_record_ack carried != 1 record")
        if cacheable:
            self.cache.store_record(uadd, records[0], gen)
        return records[0]

    def lookup_forwarding(self, old_uadd: Address) -> Address:
        """Ask for a forwarding UAdd after an address fault (Sec. 3.5)."""
        cacheable = self.cache is not None and not old_uadd.temporary
        if cacheable:
            cached = self.cache.lookup_forward(old_uadd)
            if cached is not None:
                return cached
        reply = self._resolve("ns_forward", {"uadd": old_uadd.value},
                              reason=f"forwarding for {old_uadd}",
                              key=("fwd", old_uadd))
        self._expect(reply, "ns_forward_ack")
        cacheable = cacheable and self.cache is not None
        gen = reply.values.get("gen", 0)
        self._observe(gen)
        status = reply.values["status"]
        if status == p.FWD_FOUND:
            new_uadd = Address(value=reply.values["new_uadd"])
            if cacheable:
                self.cache.store_forward(old_uadd, new_uadd, gen)
            return new_uadd
        if status == p.FWD_ALIVE:
            # Not cached: "still alive" is a statement about the link,
            # not the mapping — the next fault must re-ask.
            raise ModuleStillAlive(f"{old_uadd} is still active")
        if cacheable:
            self.cache.store_no_forward(old_uadd, gen)
        raise NoForwardingAddress(f"no replacement module for {old_uadd}")

    def resolve_batch(self, names: List[str]) -> Dict[str, Optional[NameRecord]]:
        """Resolve many logical names in one ``ns_resolve_batch`` round
        trip per owning shard; returns {name: record or None}.  The
        returned records prime both cache maps, so deployment warm-up
        replaces one round trip per peer with one per module.  A
        redirect (stale ring during a rebalance) folds in the learned
        shard and regroups the affected names."""
        out: Dict[str, Optional[NameRecord]] = {}
        pending = sorted(set(names))
        for _attempt in range(1 + self._MAX_HOPS):
            if not pending:
                return out
            groups: Dict[int, List[str]] = {}
            for name in pending:
                shard = (self._ring.owner(name) if self._ring is not None
                         else self._anchor)
                groups.setdefault(shard, []).append(name)
            pending = []
            for shard in sorted(groups):
                batch = groups[shard]
                reply = self._call_shard(shard, "ns_resolve_batch", {
                    "count": len(batch),
                    "names": p.encode_name_list(batch).encode("ascii"),
                }, reason=f"batch resolve {len(batch)} names", follow=False)
                if reply.type_name == "ns_shard_redirect":
                    pending.extend(batch)
                    continue
                self._expect(reply, "ns_resolve_batch_ack")
                gen = reply.values.get("gen", 0)
                self._observe(gen)
                self.nucleus.counters.incr("nsp_batch_resolves")
                missing, records = p.decode_batch_payload(
                    reply.values["payload"])
                for record in records:
                    out[record.name] = record
                    if self.cache is not None:
                        self.cache.store_name(record.name, record.uadd, gen)
                        self.cache.store_record(record.uadd, record, gen)
                for name in missing:
                    out[name] = None
                    if self.cache is not None:
                        self.cache.store_missing_name(name, gen)
        raise ProtocolError("sharded naming: batch resolve redirect loop")

    def evict_address(self, uadd: Address) -> None:
        """Address-fault hook (Sec. 3.5 meets §9): drop any cached
        resolution that could steer traffic back to a faulted UAdd, so
        the re-resolution asks the naming service."""
        if self.cache is not None:
            self.cache.evict_address(uadd)

    def deregister(self, uadd: Address) -> bool:
        """Tombstone a UAdd in the naming service; True on success."""
        reply = self._call("ns_deregister", {"uadd": uadd.value},
                           reason=f"deregister {uadd}")
        self._expect(reply, "ns_ack")
        self.evict_address(uadd)
        return bool(reply.values["ok"])

    def deregister_on_death(self, uadd: Address) -> bool:
        """A dying module's goodbye (PROTOCOL.md §10): one best-effort
        ``ns_deregister`` datagram to the current replica of the shard
        that minted ``uadd`` — the routing every UAdd-keyed request
        takes.  Nobody waits for an answer; False when it was not sent."""
        values = {"uadd": uadd.value}
        shard = self._route("ns_deregister", values)
        servers = self._directory[shard]
        target = servers[self._current.get(shard, 0)][0]
        return self.nucleus.lcm.datagram(target, "ns_deregister", values)

    def _fan_out(self, type_name: str, values: dict,
                 reason: str) -> List[NameRecord]:
        """Ask every known shard and merge the record lists: one
        shard's answer in the server's own order, several deduplicated
        by UAdd and sorted by UAdd value for determinism."""
        ack_type = type_name + "_ack"
        merged: Dict[Address, NameRecord] = {}
        for shard in sorted(self._directory):
            reply = self._call_shard(shard, type_name, dict(values), reason)
            self._expect(reply, ack_type)
            records = p.decode_records(reply.values["records"])
            if len(self._directory) == 1:
                self._observe(reply.values.get("gen", 0))
                return records
            for record in records:
                merged[record.uadd] = record
        return sorted(merged.values(), key=lambda r: r.uadd.value)

    def list_gateways(self) -> List[NameRecord]:
        """The registered gateway records (routing topology, Sec. 4.2)."""
        return self._fan_out("ns_list_gw", {}, "topology")

    def query_attrs(self, required: Dict[str, str]) -> List[NameRecord]:
        """Attribute-based resource location (Sec. 7's new scheme)."""
        return self._fan_out("ns_query_attrs", {
            "query": p.encode_attrs(required).encode("ascii"),
        }, "attribute query")

    def query_predicates(self, query_text: str) -> List[NameRecord]:
        """Predicate-based location ("kind=index;shard<=3") — served by
        Name Servers running the attribute database extension."""
        return self._fan_out("ns_query_attrs", {
            "query": query_text.encode("ascii"),
        }, "predicate query")

    def ping(self, timeout: float = 2.0) -> bool:
        """Is the naming service answering?"""
        try:
            reply = self._call("ns_ping", {}, reason="ping", timeout=timeout)
        except NtcsError:
            return False
        return reply.type_name == "ns_ack" and bool(reply.values["ok"])

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _expect(reply: IncomingMessage, type_name: str) -> None:
        if reply.type_name == type_name:
            return
        if reply.type_name == "ns_ack" and not reply.values.get("ok", 1):
            raise ProtocolError(
                f"naming service error: {reply.values.get('detail', '')}"
            )
        raise ProtocolError(
            f"expected {type_name}, naming service sent {reply.type_name}"
        )
