"""Unit tests for shift mode and transfer-mode selection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.conversion import (
    ConversionRegistry,
    Field,
    IMAGE,
    PACKED,
    StructDef,
    choose_mode,
    decode_body,
    encode_body,
    join_u64,
    shift_decode_u32s,
    shift_encode_u32s,
    split_u64,
)
from repro.errors import ConversionError
from repro.machine import APOLLO, IBM_PC, SUN3, VAX


# -- shift mode -----------------------------------------------------------

def test_shift_round_trip():
    values = [0, 1, 0xDEADBEEF, 0xFFFFFFFF, 42]
    data = shift_encode_u32s(values)
    assert len(data) == 20
    assert shift_decode_u32s(data, 5) == values


def test_shift_wire_order_is_defined_by_the_shifts():
    assert shift_encode_u32s([0x01020304]) == b"\x01\x02\x03\x04"


def test_shift_offset_decoding():
    data = b"junk" + shift_encode_u32s([7, 8])
    assert shift_decode_u32s(data, 2, offset=4) == [7, 8]


def test_shift_range_check():
    with pytest.raises(ConversionError):
        shift_encode_u32s([2 ** 32])
    with pytest.raises(ConversionError):
        shift_encode_u32s([-1])


def test_shift_truncation_check():
    with pytest.raises(ConversionError):
        shift_decode_u32s(b"\x00\x00", 1)


def test_u64_split_join():
    value = 0x0123456789ABCDEF
    high, low = split_u64(value)
    assert (high, low) == (0x01234567, 0x89ABCDEF)
    assert join_u64(high, low) == value
    with pytest.raises(ConversionError):
        split_u64(2 ** 64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 32 - 1), max_size=20))
def test_property_shift_round_trip(values):
    data = shift_encode_u32s(values)
    # The wire contract: each word most-significant byte first.
    assert data == b"".join(v.to_bytes(4, "big") for v in values)
    assert shift_decode_u32s(data, len(values)) == values


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 64 - 1))
def test_property_u64_round_trip(value):
    assert join_u64(*split_u64(value)) == value


# -- mode selection ---------------------------------------------------------

def test_choose_mode_matrix():
    """The paper's rule over the full machine-type matrix: image within
    a compatibility class, packed across classes."""
    assert choose_mode(VAX, VAX) == IMAGE
    assert choose_mode(VAX, IBM_PC) == IMAGE       # both little-endian
    assert choose_mode(SUN3, APOLLO) == IMAGE      # both big-endian 68k-family
    assert choose_mode(VAX, SUN3) == PACKED
    assert choose_mode(SUN3, VAX) == PACKED
    assert choose_mode(APOLLO, IBM_PC) == PACKED


@pytest.fixture
def reg():
    registry = ConversionRegistry()
    registry.register(StructDef("msg", 100, [
        Field("n", "u32"), Field("text", "char[8]"),
    ]))
    return registry


def test_encode_body_image_is_verbatim(reg):
    sdef = reg.get(100).sdef
    native = sdef.image_encode({"n": 5, "text": "hi"}, VAX.struct_prefix)
    mode, wire = encode_body(reg, 100, native, VAX, IBM_PC)
    assert mode == IMAGE
    assert wire == native  # zero-copy: no conversion performed
    assert reg.counters["pack_calls"] == 0
    assert reg.counters["image_sends"] == 1


def test_encode_body_packed_when_incompatible(reg):
    sdef = reg.get(100).sdef
    native = sdef.image_encode({"n": 5, "text": "hi"}, VAX.struct_prefix)
    mode, wire = encode_body(reg, 100, native, VAX, SUN3)
    assert mode == PACKED
    assert wire != native
    assert reg.counters["pack_calls"] == 1


def test_end_to_end_image_transfer(reg):
    sdef = reg.get(100).sdef
    values = {"n": 0x01020304, "text": "ok"}
    native = sdef.image_encode(values, SUN3.struct_prefix)
    mode, wire = encode_body(reg, 100, native, SUN3, APOLLO)
    assert decode_body(reg, 100, mode, wire, APOLLO) == values


def test_end_to_end_packed_transfer(reg):
    sdef = reg.get(100).sdef
    values = {"n": 0x01020304, "text": "ok"}
    native = sdef.image_encode(values, VAX.struct_prefix)
    mode, wire = encode_body(reg, 100, native, VAX, SUN3)
    assert decode_body(reg, 100, mode, wire, SUN3) == values


def test_forced_wrong_mode_corrupts(reg):
    """Force image mode across VAX→Sun: the receiver sees byte-swapped
    integers.  This is the failure the mode rule prevents."""
    sdef = reg.get(100).sdef
    values = {"n": 0x01020304, "text": "ok"}
    native = sdef.image_encode(values, VAX.struct_prefix)
    mode, wire = encode_body(reg, 100, native, VAX, SUN3, mode=IMAGE)
    corrupted = decode_body(reg, 100, mode, wire, SUN3)
    assert corrupted["n"] == 0x04030201


def test_decode_unknown_mode_rejected(reg):
    with pytest.raises(ConversionError):
        decode_body(reg, 100, 7, b"", VAX)
