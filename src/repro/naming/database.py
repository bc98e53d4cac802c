"""The name/address database behind the Name Server (paper Sec. 3.2).

Maintains, per module: logical name, UAdd, uninterpreted physical
addresses with their network ids, machine type and free-form attributes.
"Thus, module names can be resolved to UAdds, and UAdds can be resolved
to the physical address (location) information necessary for
communication."

Forwarding lookups implement Sec. 3.5's "some intelligence in the
naming service: first determining whether the old UAdd is really
inactive, mapping the old UAdd to its name, and then looking for a
similar name in a newer module."  A UAdd is considered inactive when it
was deregistered *or* a newer registration with the same name exists
(supersession — how a crash-and-replace is discovered without liveness
probes).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.errors import (
    ModuleStillAlive,
    NoForwardingAddress,
    NoSuchAddress,
    NoSuchName,
)
from repro.naming.protocol import NameRecord
from repro.ntcs.address import Address, make_uadd
from repro.util.idgen import SequenceGenerator


class NameDatabase:
    """The authoritative name↔address store.

    Args:
        server_id: prepended to generated UAdds, "in a distributed
            implementation, a unique Name Server identifier would be
            appended" (Sec. 3.2) — one id per member of a naming fleet.
        clock: source of registration timestamps.
    """

    def __init__(self, server_id: int = 0, clock=lambda: 0.0):
        self._server_id = server_id
        self._clock = clock
        self._counter = SequenceGenerator()
        self._by_uadd: Dict[Address, NameRecord] = {}
        # Name -> its record, or its records oldest first once the name
        # has been registered again (PROTOCOL.md §9): the common name,
        # registered once, costs one dict slot and no container.
        self._by_name: Dict[str, Union[NameRecord, List[NameRecord]]] = {}
        # Topology index (PROTOCOL.md §9): the gateway records, in
        # ``_by_uadd`` insertion order, and the alive-record count —
        # both kept by the write paths so ``ns_list_gw`` and ``len()``
        # cost O(gateways) and O(1) whatever the name population.
        self._gateways: Dict[Address, NameRecord] = {}
        self._alive = 0
        self.registrations = 0
        self.lookups = 0
        # Monotonic database generation (PROTOCOL.md §9): bumped by
        # every mutation, stamped onto Name-Server replies so clients
        # can invalidate resolution caches that predate a write.
        self.generation = 1
        # Origin write log (PROTOCOL.md §14): (generation stamp, record
        # snapshot) per write this database *originated* — appended by
        # the serving Name Server, never by replication — so a peer can
        # pull exactly the writes past its watermark during
        # anti-entropy.  Lives on the database because the database is
        # what survives a crash/restart.
        self.oplog: List[Tuple[int, NameRecord]] = []

    # -- registration ------------------------------------------------------------

    def register(
        self,
        name: str,
        attrs: Mapping[str, str],
        addresses: Iterable[Tuple[str, str]],
        mtype_name: str,
    ) -> NameRecord:
        """Create a new entry; "the naming service generates a UAdd for
        the module" (Sec. 3.2).  The record's constructor takes its own
        read-only copy of ``attrs`` and a tuple of ``addresses``."""
        uadd = make_uadd(self._counter.next(), self._server_id)
        record = NameRecord(name, uadd, mtype_name, attrs, addresses,
                            True, self._clock())
        self.adopt(record)
        return record

    def adopt(self, record: NameRecord) -> None:
        """Install a record created elsewhere (replication path).
        Idempotent: re-adopting a known UAdd updates the stored record
        in place (last write wins).  Every write funnels through here
        (or :meth:`deregister`), which is what keeps the topology index
        exact.  A record's fields other than ``alive`` never change, so
        the stored record shares them with ``record``: nothing is
        copied."""
        self.generation += 1
        existing = self._by_uadd.get(record.uadd)
        if existing is not None:
            was_alive, was_gateway = existing.alive, existing.is_gateway
            existing.alive = record.alive
            existing.attrs = record.attrs
            existing.addresses = record.addresses
            existing.mtype_name = record.mtype_name
            self._alive += existing.alive - was_alive
            if was_gateway and not existing.is_gateway:
                del self._gateways[existing.uadd]
            elif existing.is_gateway and not was_gateway:
                # A known UAdd turned gateway: it takes the place its
                # first adoption gave it, not the end of the index.
                self._gateways = {
                    uadd: rec for uadd, rec in self._by_uadd.items()
                    if rec.is_gateway
                }
            return
        self._by_uadd[record.uadd] = record
        held = self._by_name.get(record.name)
        if held is None:
            self._by_name[record.name] = record
        elif isinstance(held, list):
            held.append(record)
        else:
            self._by_name[record.name] = [held, record]
        self.registrations += 1
        self._alive += record.alive
        if record.is_gateway:
            self._gateways[record.uadd] = record

    def log_write(self, record: NameRecord) -> None:
        """Append an origin write to the anti-entropy log, stamped with
        the current generation.  The entry is a field copy: a stored
        record's ``alive`` changes in place on deregister, its other
        fields never do, so the copy shares them."""
        self.oplog.append((self.generation, NameRecord(
            record.name, record.uadd, record.mtype_name, record.attrs,
            record.addresses, record.alive, record.registered_at)))

    def readdress(self, record: NameRecord,
                  addresses: Iterable[Tuple[str, str]]) -> None:
        """The stored ``record`` alive at new physical ``addresses``,
        under its old UAdd: how a restarted Name Server keeps the
        identity every well-known table knows (last write wins, as
        :meth:`adopt`)."""
        self.adopt(replace(record, addresses=addresses, alive=True))

    def adopt_tombstone(self, record: NameRecord) -> None:
        """Adopt a replicated deregistration: ``record`` as a
        tombstone, whatever its ``alive`` says."""
        record.alive = False
        self.adopt(record)

    def merge(self, record: NameRecord) -> bool:
        """Anti-entropy merge (PROTOCOL.md §14): adopt a record pulled
        from a replica, tombstone-wins.  UAdd records are write-once
        plus tombstone, so the merge is idempotent and order-
        insensitive; True when the database changed."""
        existing = self._by_uadd.get(record.uadd)
        if existing is None:
            self.adopt(record)
            return True
        if existing.alive and not record.alive:
            self.adopt(record)
            return True
        return False

    def deregister(self, uadd: Address) -> bool:
        """Tombstone an entry (kept for forwarding lookups)."""
        record = self._by_uadd.get(uadd)
        if record is None or not record.alive:
            return False
        record.alive = False
        self._alive -= 1
        self.generation += 1
        return True

    # -- resolution -----------------------------------------------------------

    def _newest_alive(self, name: str) -> Optional[NameRecord]:
        held = self._by_name.get(name)
        if not isinstance(held, list):
            return held if held is not None and held.alive else None
        for record in reversed(held):
            if record.alive:
                return record
        return None

    def resolve_name(self, name: str) -> NameRecord:
        """Logical name → newest alive entry."""
        self.lookups += 1
        record = self._newest_alive(name)
        if record is None:
            raise NoSuchName(f"no module registered as {name!r}")
        return record

    def get(self, uadd: Address) -> Optional[NameRecord]:
        """The record for a UAdd, or None — no lookup accounting (used
        by ownership checks that precede the real resolution)."""
        return self._by_uadd.get(uadd)

    def resolve_uadd(self, uadd: Address) -> NameRecord:
        """UAdd → full record (physical location information)."""
        self.lookups += 1
        record = self._by_uadd.get(uadd)
        if record is None:
            raise NoSuchAddress(f"unknown UAdd {uadd}")
        return record

    # -- forwarding (Sec. 3.5) -------------------------------------------------

    def is_active(self, record: NameRecord) -> bool:
        """Alive and not superseded by a newer same-name registration."""
        if not record.alive:
            return False
        newest = self._newest_alive(record.name)
        return newest is record

    def lookup_forwarding(self, old_uadd: Address) -> NameRecord:
        """Forwarding UAdd for a faulted address.

        Raises:
            NoSuchAddress: the old UAdd was never registered.
            ModuleStillAlive: the old module looks active — the fault
                was a broken link, not a relocation.
            NoForwardingAddress: the module is gone and nothing similar
                replaced it.
        """
        record = self.resolve_uadd(old_uadd)
        if self.is_active(record):
            raise ModuleStillAlive(f"{old_uadd} ({record.name!r}) is still active")
        replacement = self._newest_alive(record.name)
        if replacement is None:
            raise NoForwardingAddress(
                f"no replacement for {old_uadd} ({record.name!r})"
            )
        return replacement

    # -- directory queries -------------------------------------------------------

    def list_gateways(self) -> List[NameRecord]:
        """Active gateway records: alive *and* not superseded by a newer
        same-name registration — so a restarted gateway's fresh record
        replaces its predecessor in everyone's route planning.  Served
        from the gateway index: the cost of a topology query does not
        grow with the registered population."""
        return [
            record for record in self._gateways.values()
            if self.is_active(record)
        ]

    def query_attrs(self, required: Dict[str, str]) -> List[NameRecord]:
        """Exact-match attribute query (the richer matcher lives in
        :mod:`repro.naming.attributes`)."""
        return [
            record for record in self._by_uadd.values()
            if record.alive and all(
                record.attrs.get(k) == v for k, v in required.items()
            )
        ]

    def all_records(self) -> List[NameRecord]:
        """Every record, tombstones included."""
        return list(self._by_uadd.values())

    def __len__(self) -> int:
        return self._alive
