"""The naming-service wire protocol.

Requests and replies are ordinary NTCS messages with packed-mode bodies
(control data fields are "built in packed mode", Sec. 5.2).  Variable
structures — attribute sets, address lists, whole name records — ride
in ``bytes`` tail fields using a simple percent-escaped character
encoding, keeping the entire protocol within the paper's character
transport format.

Type ids 10–39 are reserved here (see :mod:`repro.ntcs.protocol` for
the id map).

Replies that report resolution results carry the database *generation*
(``gen``) — a monotonically increasing write counter stamped by the
Name Server — so NSP-layer caches can discard entries that predate a
newer write (PROTOCOL.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.conversion import ConversionRegistry, Field, StructDef
from repro.errors import NtcsError, ProtocolError
from repro.ntcs.address import Address

# -- type ids -----------------------------------------------------------------

T_NS_REGISTER = 10
T_NS_REGISTER_ACK = 11
T_NS_RESOLVE_NAME = 12
T_NS_RESOLVE_NAME_ACK = 13
T_NS_RESOLVE_UADD = 14
T_NS_RECORD_ACK = 15
T_NS_FORWARD = 16
T_NS_FORWARD_ACK = 17
T_NS_DEREGISTER = 18
T_NS_ACK = 19
T_NS_LIST_GW = 20
T_NS_LIST_GW_ACK = 21
T_NS_PING = 22
T_NS_QUERY_ATTRS = 23
T_NS_QUERY_ATTRS_ACK = 24
T_NS_REPL_UPDATE = 25
T_NS_RESOLVE_BATCH = 26
T_NS_RESOLVE_BATCH_ACK = 27
T_NS_SHARD_REDIRECT = 28
T_NS_SHARD_HANDOFF = 29
T_NS_SHARD_HANDOFF_ACK = 30
T_NS_ANTIENTROPY = 31
T_NS_ANTIENTROPY_ACK = 32

# Forward-lookup status codes (ns_forward_ack.status).
FWD_FOUND = 0
FWD_NONE = 1
FWD_ALIVE = 2

# How a request finds its shard (PROTOCOL.md §14): by the ring owner of
# the name it carries, or by the server id that minted its UAdd.
# ``ns_resolve_batch`` carries many names; anything else any server
# answers.  Client routing and server ownership checks read one table.
NAME_KEYED = frozenset({"ns_register", "ns_resolve_name"})
UADD_KEYED = frozenset({"ns_resolve_uadd", "ns_forward", "ns_deregister"})
SHARD_KEYED = NAME_KEYED | UADD_KEYED | {"ns_resolve_batch"}

_STRUCTS = [
    StructDef("ns_register", T_NS_REGISTER, [
        Field("name", "char[64]"),
        Field("mtype", "char[16]"),
        Field("payload", "bytes"),       # encoded attrs + addresses
    ]),
    StructDef("ns_register_ack", T_NS_REGISTER_ACK, [
        Field("uadd", "u64"),
        Field("gen", "u64"),
    ]),
    StructDef("ns_resolve_name", T_NS_RESOLVE_NAME, [
        Field("name", "char[64]"),
    ]),
    StructDef("ns_resolve_name_ack", T_NS_RESOLVE_NAME_ACK, [
        Field("found", "u8"),
        Field("uadd", "u64"),
        Field("gen", "u64"),
        Field("record", "bytes"),        # the answered record; empty on a miss
    ]),
    StructDef("ns_resolve_uadd", T_NS_RESOLVE_UADD, [
        Field("uadd", "u64"),
    ]),
    StructDef("ns_record_ack", T_NS_RECORD_ACK, [
        Field("found", "u8"),
        Field("gen", "u64"),
        Field("record", "bytes"),
    ]),
    StructDef("ns_forward", T_NS_FORWARD, [
        Field("uadd", "u64"),
    ]),
    StructDef("ns_forward_ack", T_NS_FORWARD_ACK, [
        Field("status", "u8"),
        Field("new_uadd", "u64"),
        Field("gen", "u64"),
    ]),
    StructDef("ns_deregister", T_NS_DEREGISTER, [
        Field("uadd", "u64"),
    ]),
    StructDef("ns_ack", T_NS_ACK, [
        Field("ok", "u8"),
        Field("detail", "char[96]"),
    ]),
    StructDef("ns_list_gw", T_NS_LIST_GW, []),
    StructDef("ns_list_gw_ack", T_NS_LIST_GW_ACK, [
        Field("count", "u32"),
        Field("gen", "u64"),
        Field("records", "bytes"),
    ]),
    StructDef("ns_ping", T_NS_PING, []),
    StructDef("ns_query_attrs", T_NS_QUERY_ATTRS, [
        Field("query", "bytes"),
    ]),
    StructDef("ns_query_attrs_ack", T_NS_QUERY_ATTRS_ACK, [
        Field("count", "u32"),
        Field("gen", "u64"),
        Field("records", "bytes"),
    ]),
    StructDef("ns_repl_update", T_NS_REPL_UPDATE, [
        Field("op", "char[16]"),
        Field("record", "bytes"),
    ]),
    StructDef("ns_resolve_batch", T_NS_RESOLVE_BATCH, [
        Field("count", "u32"),
        Field("names", "bytes"),
    ]),
    StructDef("ns_resolve_batch_ack", T_NS_RESOLVE_BATCH_ACK, [
        Field("gen", "u64"),
        Field("count", "u32"),
        Field("payload", "bytes"),       # missing names + found records
    ]),
    # -- sharded naming (PROTOCOL.md §14) ------------------------------------
    StructDef("ns_shard_redirect", T_NS_SHARD_REDIRECT, [
        Field("shard_id", "u32"),
        Field("count", "u32"),
        Field("records", "bytes"),       # the owning shard's server records
    ]),
    StructDef("ns_shard_handoff", T_NS_SHARD_HANDOFF, [
        Field("shard_id", "u32"),
        Field("count", "u32"),
        Field("records", "bytes"),       # stamped records changing owner
    ]),
    StructDef("ns_shard_handoff_ack", T_NS_SHARD_HANDOFF_ACK, [
        Field("ok", "u8"),
        Field("count", "u32"),
    ]),
    StructDef("ns_antientropy", T_NS_ANTIENTROPY, [
        Field("shard_id", "u32"),
        Field("gen", "u64"),             # requester's watermark for the peer
        Field("digest", "bytes"),        # requester's own generation tip
    ]),
    StructDef("ns_antientropy_ack", T_NS_ANTIENTROPY_ACK, [
        Field("gen", "u64"),             # responder's generation tip
        Field("count", "u32"),
        Field("records", "bytes"),       # stamped records past the watermark
    ]),
]


def register_naming_types(registry: ConversionRegistry) -> None:
    """Install the naming-service wire structures into a registry."""
    for sdef in _STRUCTS:
        registry.register(sdef)


# -- character encodings for the variable parts ---------------------------------

_ESCAPES = {"%": "%25", ";": "%3B", "=": "%3D", ",": "%2C", "|": "%7C",
            "\n": "%0A"}


def _escape(text: str) -> str:
    out = text.replace("%", "%25")
    for raw, escaped in _ESCAPES.items():
        if raw != "%":
            out = out.replace(raw, escaped)
    return out


def _unescape(text: str) -> str:
    out = text
    for raw, escaped in _ESCAPES.items():
        if raw != "%":
            out = out.replace(escaped, raw)
    return out.replace("%25", "%")


def encode_attrs(attrs: Dict[str, str]) -> str:
    """attrs dict → "k=v;k=v" with escaping, keys sorted for
    determinism."""
    return ";".join(
        f"{_escape(str(k))}={_escape(str(v))}" for k, v in sorted(attrs.items())
    )


def decode_attrs(text: str) -> Dict[str, str]:
    """Parse a 'k=v;k=v' attribute string (percent-unescaping)."""
    attrs: Dict[str, str] = {}
    if not text:
        return attrs
    for pair in text.split(";"):
        key, sep, value = pair.partition("=")
        if not sep:
            raise ProtocolError(f"malformed attribute pair {pair!r}")
        attrs[_unescape(key)] = _unescape(value)
    return attrs


def encode_addresses(addresses: List[Tuple[str, str]]) -> str:
    """[(network, blob)] → "net|blob,net|blob"."""
    return ",".join(f"{_escape(net)}|{_escape(blob)}" for net, blob in addresses)


def decode_addresses(text: str) -> List[Tuple[str, str]]:
    """Parse a 'net|blob,net|blob' address list."""
    if not text:
        return []
    out = []
    for item in text.split(","):
        net, sep, blob = item.partition("|")
        if not sep:
            raise ProtocolError(f"malformed address entry {item!r}")
        out.append((_unescape(net), _unescape(blob)))
    return out


# -- name records -----------------------------------------------------------

# The attribute set of every record registered without attributes.
NO_ATTRS: Mapping[str, str] = MappingProxyType({})


@dataclass(init=False)
class NameRecord:
    """One naming-service entry, as exchanged on the wire.

    The physical-address blobs are carried and stored *uninterpreted*
    (Sec. 3.2) — this class never parses them beyond the network tag
    every driver places second.

    A record is one slotted object (PROTOCOL.md §9): ``attrs`` is a
    read-only mapping (every record without attributes shares
    :data:`NO_ATTRS`) and ``addresses`` a tuple of ``(network, blob)``
    pairs, so copies share them.  ``alive`` is the one field that
    changes after construction (the tombstone), and only
    :class:`~repro.naming.database.NameDatabase` changes it (ntcslint's
    ONE009).
    """

    __slots__ = ("name", "uadd", "mtype_name", "attrs", "addresses",
                 "alive", "registered_at")

    name: str
    uadd: Address
    mtype_name: str
    attrs: Mapping[str, str]
    addresses: Tuple[Tuple[str, str], ...]
    alive: bool
    registered_at: float

    def __init__(self, name: str, uadd: Address, mtype_name: str,
                 attrs: Mapping[str, str] = NO_ATTRS,
                 addresses: Iterable[Tuple[str, str]] = (),
                 alive: bool = True, registered_at: float = 0.0):
        self.name = name
        self.uadd = uadd
        self.mtype_name = mtype_name
        if type(attrs) is not MappingProxyType:
            attrs = MappingProxyType(dict(attrs)) if attrs else NO_ATTRS
        self.attrs = attrs
        self.addresses = tuple(addresses)
        self.alive = alive
        self.registered_at = registered_at

    def networks(self) -> List[str]:
        """The networks this record has addresses on."""
        return [net for net, _ in self.addresses]

    def blob_on(self, network: str) -> Optional[str]:
        """The record's physical blob on one network, or None."""
        for net, blob in self.addresses:
            if net == network:
                return blob
        return None

    def location(self, network: str) -> Optional[Tuple[str, str]]:
        """The (network, blob) a module on ``network`` keeps in its
        Sec. 3.3 address cache: the address on that network, else the
        record's first; None when it has none."""
        blob = self.blob_on(network)
        if blob is not None:
            return network, blob
        return self.addresses[0] if self.addresses else None

    @property
    def is_gateway(self) -> bool:
        return self.attrs.get("kind") == "gateway"

    # -- wire form (a line of escaped fields) -----------------------------------

    def encode(self) -> str:
        """The record's wire form (escaped, newline-joined fields)."""
        return "\n".join([
            _escape(self.name),
            str(self.uadd.value),
            _escape(self.mtype_name),
            encode_attrs(self.attrs),
            encode_addresses(self.addresses),
            "1" if self.alive else "0",
            repr(self.registered_at),
        ])

    @classmethod
    def decode(cls, text: str) -> "NameRecord":
        parts = text.split("\n")
        if len(parts) != 7:
            raise ProtocolError(f"malformed name record ({len(parts)} fields)")
        try:
            uadd = Address(value=int(parts[1]))
            registered_at = float(parts[6])
        except (ValueError, NtcsError) as exc:
            raise ProtocolError(f"malformed name record: {exc}") from None
        return cls(
            name=_unescape(parts[0]),
            uadd=uadd,
            mtype_name=_unescape(parts[2]),
            attrs=decode_attrs(parts[3]),
            addresses=decode_addresses(parts[4]),
            alive=parts[5] == "1",
            registered_at=registered_at,
        )


def decode_text(data: bytes) -> str:
    """A bytes tail field as text.  Every variable part of the naming
    protocol is ASCII, so anything else is a malformed message."""
    try:
        return data.decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError("non-ASCII bytes in a naming field") from None


_RECORD_SEP = "\x1d"  # ASCII group separator between records


def encode_records(records: List[NameRecord]) -> bytes:
    """Encode a record list for a bytes tail field."""
    return _RECORD_SEP.join(r.encode() for r in records).encode("ascii")


def decode_records(data: bytes) -> List[NameRecord]:
    """Decode a record list from a bytes tail field."""
    text = decode_text(data)
    if not text:
        return []
    return [NameRecord.decode(chunk) for chunk in text.split(_RECORD_SEP)]


_PART_SEP = "\x1e"  # ASCII record separator between payload sections


def encode_register_payload(attrs: Dict[str, str],
                            addresses: List[Tuple[str, str]]) -> bytes:
    """Bundle attrs + addresses for ns_register."""
    return (encode_attrs(attrs) + _PART_SEP + encode_addresses(addresses)).encode("ascii")


def decode_register_payload(data: bytes) -> Tuple[Dict[str, str], List[Tuple[str, str]]]:
    """Split an ns_register payload into (attrs, addresses)."""
    text = decode_text(data)
    attrs_text, sep, addr_text = text.partition(_PART_SEP)
    if not sep:
        raise ProtocolError("malformed register payload")
    return decode_attrs(attrs_text), decode_addresses(addr_text)


# -- batched resolution (ns_resolve_batch / _ack) --------------------------------

def encode_name_list(names: List[str]) -> str:
    """A logical-name list as one escaped ';'-separated string."""
    return ";".join(_escape(name) for name in names)


def decode_name_list(text: str) -> List[str]:
    """Parse an escaped ';'-separated logical-name list."""
    if not text:
        return []
    return [_unescape(item) for item in text.split(";")]


def encode_batch_payload(missing: List[str],
                         records: List[NameRecord]) -> bytes:
    """Bundle an ns_resolve_batch_ack payload: the names that did not
    resolve, then the full records of those that did."""
    return (encode_name_list(missing) + _PART_SEP).encode("ascii") \
        + encode_records(records)


def decode_batch_payload(data: bytes) -> Tuple[List[str], List[NameRecord]]:
    """Split an ns_resolve_batch_ack payload into
    (missing names, resolved records)."""
    head, sep, tail = data.partition(_PART_SEP.encode("ascii"))
    if not sep:
        raise ProtocolError("malformed batch-resolve payload")
    return decode_name_list(decode_text(head)), decode_records(tail)


# -- stamped records (sharded naming, PROTOCOL.md §14) ---------------------------

_STAMP_SEP = "\x1f"  # ASCII unit separator between stamp and record


def encode_stamped_records(pairs: List[Tuple[int, NameRecord]]) -> bytes:
    """Encode (generation stamp, record) pairs for an anti-entropy or
    handoff tail field.  The stamp is the origin database's generation
    at write time (PROTOCOL.md §9), so a receiver can resume a partial
    sync from the highest stamp it applied."""
    return _RECORD_SEP.join(
        f"{stamp}{_STAMP_SEP}{record.encode()}" for stamp, record in pairs
    ).encode("ascii")


def decode_stamped_records(data: bytes) -> List[Tuple[int, NameRecord]]:
    """Decode a stamped-record list from a bytes tail field."""
    text = decode_text(data)
    if not text:
        return []
    out: List[Tuple[int, NameRecord]] = []
    for chunk in text.split(_RECORD_SEP):
        stamp_text, sep, record_text = chunk.partition(_STAMP_SEP)
        if not sep:
            raise ProtocolError("malformed stamped record")
        try:
            stamp = int(stamp_text)
        except ValueError:
            raise ProtocolError(f"bad record stamp {stamp_text!r}") from None
        out.append((stamp, NameRecord.decode(record_text)))
    return out
