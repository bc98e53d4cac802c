"""Message structure definitions.

The paper requires every application message to be "a contiguous block
of memory (e.g., linked lists are not allowed)" — in C terms, a struct
of scalar fields and character arrays.  A :class:`StructDef` is this
repository's equivalent: an ordered list of typed fields, from which
both the image layout and the generated pack/unpack routines follow.

Supported field types:

========  ===========================================  ==============
type      meaning                                      struct code
========  ===========================================  ==============
i8/u8     signed/unsigned byte                         b / B
i16/u16   signed/unsigned 16-bit integer               h / H
i32/u32   signed/unsigned 32-bit integer               i / I
i64/u64   signed/unsigned 64-bit integer               q / Q
f64       IEEE double                                  d
char[N]   fixed-size ASCII text, NUL-padded            Ns
bytes     variable-length trailing byte field          (appended raw)
========  ===========================================  ==============

At most one ``bytes`` field is allowed, and only in last position —
it models the common C idiom of a variable tail on a fixed header.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ConversionError

_SCALAR_CODES = {
    "i8": "b", "u8": "B",
    "i16": "h", "u16": "H",
    "i32": "i", "u32": "I",
    "i64": "q", "u64": "Q",
    "f64": "d",
}
_CHAR_RE = re.compile(r"^char\[(\d+)\]$")


@dataclass(frozen=True)
class Field:
    """One typed field of a message structure."""

    name: str
    ftype: str
    #: Whether this is a ``char[N]`` field: decided once, at definition,
    #: since every pack and unpack of a message asks.
    is_char: bool = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.name.isidentifier():
            raise ConversionError(f"field name {self.name!r} is not an identifier")
        is_char = _CHAR_RE.match(self.ftype) is not None
        if self.ftype not in _SCALAR_CODES and self.ftype != "bytes" \
                and not is_char:
            raise ConversionError(f"unknown field type {self.ftype!r}")
        object.__setattr__(self, "is_char", is_char)

    @property
    def is_scalar(self) -> bool:
        return self.ftype in _SCALAR_CODES

    @property
    def is_bytes(self) -> bool:
        return self.ftype == "bytes"

    @property
    def char_size(self) -> int:
        match = _CHAR_RE.match(self.ftype)
        if not match:
            raise ConversionError(f"{self.ftype} is not a char field")
        return int(match.group(1))

    @property
    def struct_code(self) -> str:
        if self.is_scalar:
            return _SCALAR_CODES[self.ftype]
        if self.is_char:
            return f"{self.char_size}s"
        raise ConversionError("bytes fields have no struct code")


class StructDef:
    """An ordered, named message structure.

    Args:
        name: identifier used for the generated pack/unpack routines.
        type_id: wire type id (registered in a ConversionRegistry).
        fields: the ordered fields.
    """

    def __init__(self, name: str, type_id: int, fields: Sequence[Field]):
        if not name.isidentifier():
            raise ConversionError(f"struct name {name!r} is not an identifier")
        if type_id < 0 or type_id > 0xFFFFFFFF:
            raise ConversionError(f"type_id {type_id} out of u32 range")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ConversionError(f"duplicate field names in {name}")
        for i, field in enumerate(fields):
            if field.is_bytes and i != len(fields) - 1:
                raise ConversionError(
                    f"{name}.{field.name}: bytes field must be last"
                )
        self.name = name
        self.type_id = type_id
        self.fields: Tuple[Field, ...] = tuple(fields)
        self._fixed_fields = [f for f in self.fields if not f.is_bytes]
        self._has_tail = bool(self.fields) and self.fields[-1].is_bytes
        self._fixed_format = "".join(f.struct_code for f in self._fixed_fields)
        self.fixed_size = struct.calcsize("<" + self._fixed_format)
        # Precompiled per-byte-order codecs: struct.pack/unpack with a
        # string format re-parses the format on every message, which
        # shows up on the per-message hot path.  Definitions are static,
        # so compile once per (prefix, format) pair on demand.
        self._codecs: Dict[str, struct.Struct] = {}

    def _codec(self, byte_order_prefix: str) -> struct.Struct:
        codec = self._codecs.get(byte_order_prefix)
        if codec is None:
            codec = struct.Struct(byte_order_prefix + self._fixed_format)
            self._codecs[byte_order_prefix] = codec
        return codec

    @property
    def has_tail(self) -> bool:
        return self._has_tail

    def field_names(self) -> List[str]:
        """The field names, in wire order."""
        return [f.name for f in self.fields]

    # -- image mode ---------------------------------------------------------

    def _coerce(self, values: Dict[str, Any]) -> List[Any]:
        raw = []
        for field in self._fixed_fields:
            try:
                value = values[field.name]
            except KeyError:
                raise ConversionError(f"{self.name}: missing field {field.name!r}")
            if field.is_char:
                if isinstance(value, str):
                    value = value.encode("ascii")
                if len(value) > field.char_size:
                    raise ConversionError(
                        f"{self.name}.{field.name}: {len(value)} bytes exceeds "
                        f"char[{field.char_size}]"
                    )
            raw.append(value)
        return raw

    def image_encode(self, values: Dict[str, Any], byte_order_prefix: str) -> bytes:
        """Lay the structure out as it sits in memory on a machine with
        the given byte order — the paper's "memory image"."""
        try:
            body = self._codec(byte_order_prefix).pack(*self._coerce(values))
        except struct.error as exc:
            raise ConversionError(f"{self.name}: image encode failed: {exc}")
        if self._has_tail:
            tail = values.get(self.fields[-1].name, b"")
            if isinstance(tail, str):
                tail = tail.encode("ascii")
            body += tail
        return body

    def image_decode(self, data: bytes, byte_order_prefix: str) -> Dict[str, Any]:
        """Reinterpret a memory image with the given byte order.  This
        is *deliberately* not validated against the sender's byte order:
        a wrong-mode transfer decodes to corrupted values, as on real
        hardware."""
        if len(data) < self.fixed_size:
            raise ConversionError(
                f"{self.name}: image of {len(data)} bytes shorter than "
                f"fixed size {self.fixed_size}"
            )
        try:
            raw = self._codec(byte_order_prefix).unpack_from(data)
        except struct.error as exc:
            raise ConversionError(f"{self.name}: image decode failed: {exc}")
        values: Dict[str, Any] = {}
        for field, value in zip(self._fixed_fields, raw):
            if field.is_char:
                value = value.rstrip(b"\x00").decode("ascii", errors="replace")
            values[field.name] = value
        if self._has_tail:
            values[self.fields[-1].name] = data[self.fixed_size:]
        return values

    def __repr__(self) -> str:
        inner = ", ".join(f"{f.name}:{f.ftype}" for f in self.fields)
        return f"StructDef({self.name}#{self.type_id}: {inner})"
