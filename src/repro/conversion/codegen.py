"""Automatic pack/unpack code generation (paper Sec. 5.1, ref [22]).

"One member of the URSA project implemented an automatic code generating
mechanism which builds these pack/unpack routines directly from the
message structure definitions."

Given a :class:`~repro.conversion.structdef.StructDef`, this module
emits Python *source text* for a ``pack_<name>`` and ``unpack_<name>``
pair and compiles it.  The transport format is the character
representation the paper's implementation chose:

* scalar integers as decimal ASCII,
* floats as ``repr`` ASCII,
* char/bytes fields as ``<decimal length>:<raw bytes>`` (a character
  format that needs no escaping),
* every field terminated by the ASCII unit separator (0x1F).

The format is deliberately *application-replaceable*: the NTCS only
requires "a packed message ... it can be entirely application
dependent" — a registry may override the generated codecs with custom
ones (see :class:`~repro.conversion.registry.ConversionRegistry`).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.conversion.structdef import StructDef
from repro.errors import ConversionError

_RANGES = {
    "i8": (-0x80, 0x7F),
    "u8": (0, 0xFF),
    "i16": (-0x8000, 0x7FFF),
    "u16": (0, 0xFFFF),
    "i32": (-0x80000000, 0x7FFFFFFF),
    "u32": (0, 0xFFFFFFFF),
    "i64": (-0x8000000000000000, 0x7FFFFFFFFFFFFFFF),
    "u64": (0, 0xFFFFFFFFFFFFFFFF),
}

_PREAMBLE = '''\
from repro.errors import ConversionError


def _check_range(value, low, high, where):
    value = int(value)
    if value < low or value > high:
        raise ConversionError(
            "%s: %d out of range [%d, %d]" % (where, value, low, high))
    return value


def _field(values, name, where):
    try:
        return values[name]
    except KeyError:
        raise ConversionError("%s: missing field" % where)


def _as_bytes(value, where):
    if isinstance(value, str):
        try:
            value = value.encode("ascii")
        except UnicodeEncodeError:
            raise ConversionError("%s: not ASCII" % where)
    return value


def _take_int(data, pos, where):
    end = data.find(b"\\x1f", pos)
    if end < 0:
        raise ConversionError("%s: unterminated field" % where)
    try:
        return int(data[pos:end]), end + 1
    except ValueError:
        raise ConversionError("%s: bad integer %r" % (where, data[pos:end]))


def _take_float(data, pos, where):
    end = data.find(b"\\x1f", pos)
    if end < 0:
        raise ConversionError("%s: unterminated field" % where)
    try:
        return float(data[pos:end]), end + 1
    except ValueError:
        raise ConversionError("%s: bad float %r" % (where, data[pos:end]))


def _take_counted(data, pos, where):
    colon = data.find(b":", pos)
    if colon < 0:
        raise ConversionError("%s: missing length" % where)
    try:
        length = int(data[pos:colon])
    except ValueError:
        raise ConversionError("%s: bad length %r" % (where, data[pos:colon]))
    start = colon + 1
    end = start + length
    if len(data) < end + 1 or data[end] != 0x1F:
        raise ConversionError("%s: truncated counted field" % where)
    return data[start:end], end + 1
'''


def generate_pack_source(sdef: StructDef) -> str:
    """Emit Python source for ``pack_<name>(values) -> bytes``."""
    lines = [
        f"def pack_{sdef.name}(values):",
        f'    """Pack a {sdef.name} message into character transport format.',
        "",
        "    Generated by repro.conversion.codegen; do not edit.",
        '    """',
        "    out = bytearray()",
    ]
    for field in sdef.fields:
        where = f"{sdef.name}.{field.name}"
        if field.is_scalar and field.ftype != "f64":
            low, high = _RANGES[field.ftype]
            lines.append(
                f"    out += str(_check_range(_field(values, {field.name!r}, "
                f"{where!r}), {low}, {high}, {where!r})).encode('ascii')"
            )
        elif field.ftype == "f64":
            lines.append(
                f"    out += repr(float(_field(values, {field.name!r}, "
                f"{where!r}))).encode('ascii')"
            )
        elif field.is_char:
            lines.append(
                f"    _v = _as_bytes(_field(values, {field.name!r}, "
                f"{where!r}), {where!r})"
            )
            lines.append(f"    if len(_v) > {field.char_size}:")
            lines.append(
                f"        raise ConversionError({where!r} + ': too long for "
                f"char[{field.char_size}]')"
            )
            lines.append("    out += str(len(_v)).encode('ascii')")
            lines.append("    out += b':'")
            lines.append("    out += _v")
        else:  # bytes tail
            lines.append(
                f"    _v = _as_bytes(values.get({field.name!r}, b''), {where!r})"
            )
            lines.append("    out += str(len(_v)).encode('ascii')")
            lines.append("    out += b':'")
            lines.append("    out += _v")
        lines.append("    out.append(0x1F)")
    lines.append("    return bytes(out)")
    return "\n".join(lines) + "\n"


def generate_unpack_source(sdef: StructDef) -> str:
    """Emit Python source for ``unpack_<name>(data) -> dict``."""
    lines = [
        f"def unpack_{sdef.name}(data):",
        f'    """Unpack a {sdef.name} message from character transport format.',
        "",
        "    Generated by repro.conversion.codegen; do not edit.",
        '    """',
        "    pos = 0",
        "    values = {}",
    ]
    for field in sdef.fields:
        where = f"{sdef.name}.{field.name}"
        if field.is_scalar and field.ftype != "f64":
            lines.append(
                f"    values[{field.name!r}], pos = _take_int(data, pos, {where!r})"
            )
        elif field.ftype == "f64":
            lines.append(
                f"    values[{field.name!r}], pos = _take_float(data, pos, {where!r})"
            )
        elif field.is_char:
            lines.append(f"    _v, pos = _take_counted(data, pos, {where!r})")
            lines.append(
                f"    values[{field.name!r}] = _v.decode('ascii', errors='replace')"
            )
        else:  # bytes tail
            lines.append(f"    _v, pos = _take_counted(data, pos, {where!r})")
            lines.append(f"    values[{field.name!r}] = _v")
    lines.append("    return values")
    return "\n".join(lines) + "\n"


def build_codecs(sdef: StructDef) -> Tuple[Callable[[Dict], bytes], Callable[[bytes], Dict], str]:
    """Generate, compile and return ``(pack, unpack, source)`` for a
    structure definition."""
    source = _PREAMBLE + "\n\n" + generate_pack_source(sdef) + "\n\n" + \
        generate_unpack_source(sdef)
    namespace: Dict[str, object] = {}
    try:
        exec(compile(source, f"<generated codecs for {sdef.name}>", "exec"), namespace)
    except SyntaxError as exc:  # pragma: no cover - generator bug guard
        raise ConversionError(f"generated codec for {sdef.name} failed to compile: {exc}")
    return namespace[f"pack_{sdef.name}"], namespace[f"unpack_{sdef.name}"], source
