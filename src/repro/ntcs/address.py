"""NTCS addressing (paper Secs. 2.3 and 3.4).

Three levels:

* **physical addresses** — network-dependent blobs
  ("tcp:ether0:vax1:5001", "mbx:ring0://apollo2/mbx/ns") that the naming
  service stores *uninterpreted*; only the matching ND-Layer driver
  parses them,
* **UAdds** — the flat, network- and location-independent unique
  addresses everything above the ND-Layer runs on, generated by the
  Name Server's monotonically increasing counter (a Name-Server
  identifier is prepended in the replicated implementation, exactly as
  Sec. 3.2 anticipates),
* **TAdds** — temporary addresses "identical to UAdds, except they are
  only unique locally to the module that assigned them", used to
  bootstrap communication with the Name Server before a real UAdd
  exists, and purged as soon as one does.

Logical *names* sit above all three and live in :mod:`repro.naming`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.conversion.shiftmode import join_u64, split_u64
from repro.errors import NtcsError
from repro.util.idgen import SequenceGenerator

# Bit 63 of the 64-bit wire form distinguishes TAdds from UAdds.
_TEMP_BIT = 1 << 63
_VALUE_MASK = _TEMP_BIT - 1

# How many low bits hold the per-server counter when a Name-Server id
# is prepended (replicated naming service, Sec. 7).
SERVER_ID_SHIFT = 48


@dataclass(frozen=True, order=True)
class Address:
    """A UAdd or TAdd.  Immutable and hashable: addresses are table keys
    throughout the NTCS."""

    value: int
    temporary: bool = False

    def __post_init__(self):
        if not 0 < self.value <= _VALUE_MASK:
            raise NtcsError(f"address value {self.value} out of range")

    # -- wire form --------------------------------------------------------

    def to_u32_pair(self) -> Tuple[int, int]:
        """(high, low) 32-bit halves for shift-mode headers."""
        wire = self.value | (_TEMP_BIT if self.temporary else 0)
        return split_u64(wire)

    @classmethod
    def from_u32_pair(cls, high: int, low: int) -> "Address":
        wire = join_u64(high, low)
        return cls(value=wire & _VALUE_MASK, temporary=bool(wire & _TEMP_BIT))

    def __str__(self) -> str:
        prefix = "T" if self.temporary else "U"
        return f"{prefix}#{self.value}"

    __repr__ = __str__


def make_uadd(counter: int, server_id: int = 0) -> Address:
    """A real unique address, optionally namespaced by a Name-Server id
    (used by the replicated naming service)."""
    return Address(value=(server_id << SERVER_ID_SHIFT) | counter, temporary=False)


# The Name Server assigns itself the first UAdd its counter produces.
# Every module's well-known table relies on this convention (Sec. 3.4).
NAME_SERVER_UADD = make_uadd(1)


class TAddAllocator:
    """Per-module TAdd source.  "Each module assigns itself one
    initially, and each Nucleus layer assigns its own TAdd to each
    incoming connection from a TAdd source" (Sec. 3.4)."""

    def __init__(self):
        self._seq = SequenceGenerator()

    def allocate(self) -> Address:
        """A fresh locally-unique temporary address."""
        return Address(value=self._seq.next(), temporary=True)


# ---------------------------------------------------------------------------
# Physical-address blob helpers
# ---------------------------------------------------------------------------

def blob_network(blob: str) -> str:
    """The network a blob is reachable on (second blob component by
    convention across all drivers)."""
    parts = blob.split(":", 2)
    if len(parts) < 2:
        raise NtcsError(f"malformed physical address blob {blob!r}")
    return parts[1]


# ---------------------------------------------------------------------------
# The Nucleus's address cache (Sec. 3.3)
# ---------------------------------------------------------------------------

@dataclass
class CacheEntry:
    blob: str
    mtype_name: str


class AddressCache:
    """UAdd → (physical blob, machine type), filled from naming-service
    lookups and from information "exchanged between modules during the
    channel open protocol" (Sec. 3.3).

    TAdds are "only unique locally to the module that assigned them"
    (Sec. 3.4), so they are never keys here: :meth:`store` refuses
    them, and a TAdd purge has nothing to replace."""

    def __init__(self):
        self._entries: Dict[Address, CacheEntry] = {}

    def store(self, addr: Address, blob: str, mtype_name: str) -> None:
        """Cache the physical blob and machine type for a UAdd; a TAdd
        is not stored."""
        if not addr.temporary:
            self._entries[addr] = CacheEntry(blob=blob, mtype_name=mtype_name)

    def lookup(self, addr: Address) -> Optional[CacheEntry]:
        """The cached entry for an address, or None."""
        return self._entries.get(addr)

    def invalidate(self, addr: Address) -> None:
        """Drop the cached entry for an address, if any."""
        self._entries.pop(addr, None)

    def temporary_entries(self) -> int:
        """How many TAdd-keyed entries there are (experiment E3's
        metric; zero, since :meth:`store` refuses TAdds)."""
        return sum(1 for addr in self._entries if addr.temporary)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, addr: Address) -> bool:
        return addr in self._entries
