"""Message-type registry: struct definitions plus their codecs.

Every communicating module in the paper's system is compiled against
the same message structure definitions and links the (generated)
pack/unpack routines for the types it uses.  A
:class:`ConversionRegistry` is this repository's equivalent — one
shared instance per deployment, holding, per type id, the
:class:`StructDef` and its pack/unpack pair.

The transport format "is determined entirely by the application"
(Sec. 5.1): :meth:`register` accepts custom pack/unpack callables that
override the generated character-format codecs, provided only that they
produce/consume bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.conversion.codegen import build_codecs
from repro.conversion.structdef import StructDef
from repro.errors import ConversionError, DuplicateTypeId, UnknownMessageType
from repro.machine.arch import MachineType
from repro.util.counters import (
    CODEC_CACHE_HITS, CODEC_CACHE_MISSES, REGISTRY, Counters)


@dataclass
class RegistryEntry:
    sdef: StructDef
    pack: Callable[[Dict], bytes]
    unpack: Callable[[bytes], Dict]
    generated_source: Optional[str]


class ConversionRegistry:
    """Type id → structure definition + codecs."""

    # Type ids below this value are reserved for NTCS-internal messages.
    FIRST_APPLICATION_TYPE_ID = 64

    def __init__(self):
        self._by_id: Dict[int, RegistryEntry] = {}
        self._by_name: Dict[str, RegistryEntry] = {}
        # (type id, src data format, dst data format) -> (entry, image
        # compatible).  Sec. 5's per-destination-machine-type decision,
        # computed once per peer; safe to cache forever because type ids
        # are registered exactly once and a MachineType's data format is
        # immutable.
        self._route_cache: Dict[Tuple[int, str, str],
                                Tuple[RegistryEntry, bool]] = {}
        self.counters = Counters(REGISTRY)

    def register(
        self,
        sdef: StructDef,
        pack: Optional[Callable[[Dict], bytes]] = None,
        unpack: Optional[Callable[[bytes], Dict]] = None,
    ) -> RegistryEntry:
        """Register a structure.  Without explicit codecs, pack/unpack
        are generated from the definition (the [22] code generator)."""
        if sdef.type_id in self._by_id:
            raise DuplicateTypeId(
                f"type id {sdef.type_id} already registered "
                f"(as {self._by_id[sdef.type_id].sdef.name!r})",
                type_id=sdef.type_id, name=sdef.name,
            )
        if sdef.name in self._by_name:
            raise DuplicateTypeId(
                f"type name {sdef.name!r} already registered",
                type_id=sdef.type_id, name=sdef.name,
            )
        if (pack is None) != (unpack is None):
            raise ConversionError("pack and unpack must be supplied together")
        if pack is None:
            pack, unpack, source = build_codecs(sdef)
        else:
            source = None
        entry = RegistryEntry(sdef=sdef, pack=pack, unpack=unpack,
                              generated_source=source)
        self._by_id[sdef.type_id] = entry
        self._by_name[sdef.name] = entry
        return entry

    def get(self, type_id: int) -> RegistryEntry:
        """The entry for a type id; raises UnknownMessageType if absent."""
        try:
            return self._by_id[type_id]
        except KeyError:
            raise UnknownMessageType(
                f"no registered message type {type_id}", type_id=type_id
            )

    def get_by_name(self, name: str) -> RegistryEntry:
        """The entry for a type name; raises UnknownMessageType if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownMessageType(
                f"no registered message type {name!r}", name=name
            )

    def lookup_route(self, type_id: int, src: MachineType,
                     dst: MachineType) -> Tuple[RegistryEntry, bool]:
        """The cached (codec entry, image-compatible) decision for one
        (type id, source arch, destination arch) triple.

        The cache is keyed by :attr:`MachineType.data_format`, which
        fully determines both the mode rule (image between identical
        layouts, Sec. 5) and the image byte order — so the hot send
        path costs one dictionary probe per peer after warm-up.
        Raises UnknownMessageType for an unregistered type id.
        """
        key = (type_id, src.data_format, dst.data_format)
        hit = self._route_cache.get(key)
        if hit is not None:
            self.counters[CODEC_CACHE_HITS] += 1
            return hit
        decision = (self.get(type_id), src.image_compatible(dst))
        self._route_cache[key] = decision
        self.counters[CODEC_CACHE_MISSES] += 1
        return decision

    def __contains__(self, type_id: int) -> bool:
        return type_id in self._by_id

    def type_ids(self) -> Iterable[int]:
        """All registered type ids, sorted."""
        return sorted(self._by_id)
