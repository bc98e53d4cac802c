"""Unit tests for message structure definitions and image mode."""

import pytest

from repro.conversion import Field, StructDef
from repro.errors import ConversionError
from repro.machine import SUN3, VAX


def _query_def(type_id=100):
    return StructDef("query", type_id, [
        Field("qid", "u32"),
        Field("weight", "i16"),
        Field("score", "f64"),
        Field("term", "char[16]"),
        Field("payload", "bytes"),
    ])


def test_field_validation():
    assert Field("x", "i32").is_scalar
    assert Field("x", "char[8]").is_char
    assert Field("x", "char[8]").char_size == 8
    assert Field("x", "bytes").is_bytes
    with pytest.raises(ConversionError):
        Field("x", "i128")
    with pytest.raises(ConversionError):
        Field("not an ident", "i32")


def test_struct_validation():
    with pytest.raises(ConversionError):
        StructDef("s", 1, [Field("a", "i32"), Field("a", "u8")])  # ntcslint: allow=PRO004 — exercises the runtime duplicate-name rejection
    with pytest.raises(ConversionError):
        StructDef("s", 2, [Field("tail", "bytes"), Field("a", "i32")])  # ntcslint: allow=PRO003 — exercises the runtime bytes-position rejection
    with pytest.raises(ConversionError):
        StructDef("s", -1, [])  # bad type id
    with pytest.raises(ConversionError):
        StructDef("bad name", 3, [])


def test_fixed_size_computation():
    sdef = _query_def()
    # u32(4) + i16(2) + f64(8) + char[16] = 30 with no padding... struct
    # may pad; verify against the module's own accounting.
    encoded = sdef.image_encode(
        {"qid": 1, "weight": 2, "score": 3.0, "term": "x", "payload": b""}, "<"
    )
    assert len(encoded) == sdef.fixed_size


def test_image_round_trip_same_machine():
    sdef = _query_def()
    values = {"qid": 77, "weight": -5, "score": 2.5, "term": "hello",
              "payload": b"\x00\x01\x02"}
    image = sdef.image_encode(values, VAX.struct_prefix)
    back = sdef.image_decode(image, VAX.struct_prefix)
    assert back == values


def test_image_across_incompatible_machines_corrupts():
    """The physical phenomenon the conversion layer exists to prevent:
    a VAX memory image read by a Sun scrambles multi-byte integers."""
    sdef = _query_def()
    values = {"qid": 0x01020304, "weight": 1, "score": 1.0, "term": "t",
              "payload": b""}
    image = sdef.image_encode(values, VAX.struct_prefix)
    corrupted = sdef.image_decode(image, SUN3.struct_prefix)
    assert corrupted["qid"] == 0x04030201  # byte-swapped
    assert corrupted["qid"] != values["qid"]


def test_char_field_nul_padding_and_strip():
    sdef = StructDef("s", 11, [Field("name", "char[8]")])
    image = sdef.image_encode({"name": "abc"}, "<")
    assert image == b"abc\x00\x00\x00\x00\x00"
    assert sdef.image_decode(image, "<") == {"name": "abc"}


def test_char_field_overflow_rejected():
    sdef = StructDef("s", 12, [Field("name", "char[4]")])
    with pytest.raises(ConversionError):
        sdef.image_encode({"name": "too long"}, "<")


def test_missing_field_rejected():
    sdef = StructDef("s", 13, [Field("a", "i32")])
    with pytest.raises(ConversionError, match="missing field"):
        sdef.image_encode({}, "<")


def test_scalar_range_enforced_by_image_encode():
    sdef = StructDef("s", 14, [Field("a", "u8")])
    with pytest.raises(ConversionError):
        sdef.image_encode({"a": 256}, "<")


def test_variable_tail_round_trip():
    sdef = StructDef("s", 15, [Field("n", "u16"), Field("tail", "bytes")])
    image = sdef.image_encode({"n": 9, "tail": b"abcdef"}, ">")
    values = sdef.image_decode(image, ">")
    assert values == {"n": 9, "tail": b"abcdef"}


def test_tail_defaults_to_empty():
    sdef = StructDef("s", 16, [Field("n", "u16"), Field("tail", "bytes")])
    image = sdef.image_encode({"n": 1}, ">")
    assert sdef.image_decode(image, ">")["tail"] == b""


def test_truncated_image_rejected():
    sdef = StructDef("s", 17, [Field("a", "i64")])
    with pytest.raises(ConversionError, match="shorter"):
        sdef.image_decode(b"\x00\x01", "<")


def test_field_names_order_preserved():
    sdef = _query_def()
    assert sdef.field_names() == ["qid", "weight", "score", "term", "payload"]
