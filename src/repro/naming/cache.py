"""The NSP-layer resolution cache (PROTOCOL.md §9).

The paper centralizes all topology knowledge in the naming service
(Sec. 3) and already tolerates stale addresses: a send to a relocated
module faults, the LCM consults the forwarding machinery, and the
conversation resumes (Sec. 3.5).  Because *caches may lie and
forwarding fixes it*, the NSP-Layer can keep an optimistic client-side
cache of its three resolution maps without changing any visible
semantics:

* logical name → UAdd,
* UAdd → :class:`~repro.naming.protocol.NameRecord`,
* faulted UAdd → forwarding UAdd.

Coherence comes from two mechanisms:

* **generation stamps** — every Name-Server reply carries the database
  generation (a monotonic write counter); a reply newer than a cached
  entry's stamp evicts every entry that predates the write,
* **fault eviction** — the LCM's address-fault path evicts the faulted
  address before re-resolving, so a stale entry costs exactly one
  failed send.

Negative results (``NoSuchName`` / ``NoSuchAddress`` /
``NoForwardingAddress``) are cached only under a short *virtual-time*
TTL, ``NEGATIVE_TTL``: absence is not protected by forwarding, so it
must expire on its own.  Temporary addresses (TAdds) are never cached —
"they purge within two NS communications" (Sec. 3.3), so any cached
TAdd mapping would be born stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Type

from repro.errors import (
    NoForwardingAddress,
    NoSuchAddress,
    NoSuchName,
    NtcsError,
)
from repro.naming.protocol import NameRecord
from repro.ntcs.address import Address
from repro.util.counters import (
    NSP_CACHE_HITS, NSP_CACHE_INVALIDATIONS, NSP_CACHE_MISSES)

# Virtual seconds a cached negative resolution (no such name / address
# / forwarding) stays valid.
NEGATIVE_TTL = 2.0


@dataclass
class _Entry:
    """One cached resolution: a value or a remembered negative."""

    value: object
    gen: int
    error: Optional[Type[NtcsError]] = None
    detail: str = ""
    expires_at: Optional[float] = None


class ResolutionCache:
    """Generation-stamped cache for the NSP-Layer's resolution maps.

    Args:
        clock: virtual-time source (``scheduler.now``) for negative TTLs.
        counters: the owning Nucleus's :class:`~repro.util.counters.Counters`.
    """

    def __init__(self, clock: Callable[[], float], counters):
        self._clock = clock
        self._counters = counters
        self._names: Dict[str, _Entry] = {}
        self._records: Dict[Address, _Entry] = {}
        self._forwards: Dict[Address, _Entry] = {}
        self._seen_gen = 0

    # -- generic machinery -----------------------------------------------------

    def _get(self, table: Dict, key) -> Optional[_Entry]:
        entry = table.get(key)
        if entry is not None and entry.expires_at is not None \
                and self._clock() >= entry.expires_at:
            del table[key]
            entry = None
        if entry is None:
            self._counters[NSP_CACHE_MISSES] += 1
            return None
        self._counters[NSP_CACHE_HITS] += 1
        if entry.error is not None:
            raise entry.error(entry.detail)
        return entry

    def _put(self, table: Dict, key, value, gen: int,
             error: Optional[Type[NtcsError]] = None,
             detail: str = "") -> None:
        expires_at = None
        if error is not None:
            expires_at = self._clock() + NEGATIVE_TTL
        table[key] = _Entry(value=value, gen=gen, error=error,
                            detail=detail, expires_at=expires_at)

    def observe_generation(self, gen: Optional[int]) -> None:
        """Note the generation a Name-Server reply carried; a newer one
        evicts every entry stamped before it (the write it reports may
        have changed any mapping)."""
        if not gen or gen <= self._seen_gen:
            return
        self._seen_gen = gen
        for table in (self._names, self._records, self._forwards):
            stale = [key for key, entry in table.items() if entry.gen < gen]
            for key in stale:
                del table[key]
                self._counters[NSP_CACHE_INVALIDATIONS] += 1

    # -- name → UAdd -----------------------------------------------------------

    def lookup_name(self, name: str) -> Optional[Address]:
        """Cached UAdd for a name; None on miss; raises a cached
        :class:`NoSuchName` while the negative entry is fresh."""
        entry = self._get(self._names, name)
        return None if entry is None else entry.value

    def store_name(self, name: str, uadd: Address, gen: int) -> None:
        """Remember a name→UAdd resolution (TAdds are never cached)."""
        if uadd.temporary:
            return
        self._put(self._names, name, uadd, gen)

    def store_missing_name(self, name: str, gen: int) -> None:
        """Remember that a name did not resolve (short virtual-time TTL)."""
        self._put(self._names, name, None, gen, error=NoSuchName,
                  detail=f"no module registered as {name!r} (cached)")

    # -- UAdd → record ---------------------------------------------------------

    def lookup_record(self, uadd: Address) -> Optional[NameRecord]:
        """Cached record for a UAdd; None on miss; raises a cached
        :class:`NoSuchAddress` while the negative entry is fresh."""
        entry = self._get(self._records, uadd)
        return None if entry is None else entry.value

    def store_record(self, uadd: Address, record: NameRecord,
                     gen: int) -> None:
        """Remember a UAdd→record resolution (TAdds are never cached)."""
        if uadd.temporary:
            return
        self._put(self._records, uadd, record, gen)

    def store_missing_record(self, uadd: Address, gen: int) -> None:
        """Remember that a UAdd is unknown (short virtual-time TTL)."""
        self._put(self._records, uadd, None, gen, error=NoSuchAddress,
                  detail=f"naming service has no entry for {uadd} (cached)")

    # -- faulted UAdd → forwarding UAdd ---------------------------------------

    def lookup_forward(self, old_uadd: Address) -> Optional[Address]:
        """Cached forwarding UAdd; None on miss; raises a cached
        :class:`NoForwardingAddress` while the negative entry is fresh."""
        entry = self._get(self._forwards, old_uadd)
        return None if entry is None else entry.value

    def store_forward(self, old_uadd: Address, new_uadd: Address,
                      gen: int) -> None:
        """Remember a forwarding resolution (TAdds are never cached)."""
        if old_uadd.temporary or new_uadd.temporary:
            return
        self._put(self._forwards, old_uadd, new_uadd, gen)

    def store_no_forward(self, old_uadd: Address, gen: int) -> None:
        """Remember a forwarding dead end (short virtual-time TTL)."""
        self._put(self._forwards, old_uadd, None, gen,
                  error=NoForwardingAddress,
                  detail=f"no replacement module for {old_uadd} (cached)")

    # -- fault eviction --------------------------------------------------------

    def evict_address(self, uadd: Address) -> None:
        """Drop everything that could re-route traffic to ``uadd`` —
        the LCM's address-fault recovery (a cache lied; make the next
        resolution ask the naming service)."""
        evicted = 0
        if self._records.pop(uadd, None) is not None:
            evicted += 1
        if self._forwards.pop(uadd, None) is not None:
            evicted += 1
        stale_names = [
            name for name, entry in self._names.items()
            if entry.error is None and entry.value == uadd
        ]
        for name in stale_names:
            del self._names[name]
            evicted += 1
        stale_forwards = [
            old for old, entry in self._forwards.items()
            if entry.error is None and entry.value == uadd
        ]
        for old in stale_forwards:
            del self._forwards[old]
            evicted += 1
        self._counters[NSP_CACHE_INVALIDATIONS] += evicted

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._names) + len(self._records) + len(self._forwards)
