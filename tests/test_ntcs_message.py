"""Unit tests for NTCS message headers (shift mode, Sec. 5.2)."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConversionError, ProtocolError
from repro.ntcs import message as m
from repro.ntcs.address import Address, make_uadd


def _msg(**overrides):
    defaults = dict(
        kind=m.DATA,
        src=make_uadd(3),
        dst=make_uadd(9),
        flags=m.FLAG_PACKED,
        type_id=100,
        corr_id=7,
        aux=2,
        body=b"payload",
    )
    defaults.update(overrides)
    return m.Msg(**defaults)


def test_encode_decode_round_trip():
    msg = _msg()
    back = m.Msg.decode(msg.encode())
    assert back.kind == msg.kind
    assert back.src == msg.src and back.dst == msg.dst
    assert back.flags == msg.flags
    assert back.type_id == msg.type_id
    assert back.corr_id == msg.corr_id
    assert back.aux == msg.aux
    assert back.body == msg.body


def test_header_is_fixed_size_shift_mode():
    msg = _msg(body=b"")
    wire = msg.encode()
    assert len(wire) == m.HEADER_BYTES
    # Shift mode defines the wire order: the magic's bytes appear MSB
    # first, independent of the host.
    assert wire[:4] == bytes([0x4E, 0x54, 0x43, 0x53])  # "NTCS"


def test_temporary_source_survives_round_trip():
    msg = _msg(src=Address(value=5, temporary=True))
    back = m.Msg.decode(msg.encode())
    assert back.src.temporary
    assert back.src.value == 5


def test_flag_helpers():
    msg = _msg(flags=0)
    assert msg.mode == 0
    msg.set_mode(1)
    assert msg.mode == 1 and (msg.flags & m.FLAG_PACKED)
    msg.set_mode(0)
    assert msg.mode == 0
    msg.flags = m.FLAG_REPLY_EXPECTED | m.FLAG_IS_REPLY | m.FLAG_CONNECTIONLESS | m.FLAG_INTERNAL
    assert msg.reply_expected and msg.is_reply
    assert msg.connectionless and msg.internal


def test_decode_rejects_short_message():
    with pytest.raises(ProtocolError, match="short"):
        m.Msg.decode(b"\x00" * 10)


def test_decode_rejects_bad_magic():
    wire = bytearray(_msg().encode())
    wire[0] ^= 0xFF
    with pytest.raises(ProtocolError, match="magic"):
        m.Msg.decode(bytes(wire))


def test_decode_rejects_corrupted_header():
    wire = bytearray(_msg().encode())
    wire[9] ^= 0x01  # flip a bit inside the kind/flags area
    with pytest.raises(ProtocolError, match="checksum"):
        m.Msg.decode(bytes(wire))


def test_decode_rejects_truncated_body():
    wire = _msg(body=b"0123456789").encode()
    with pytest.raises(ProtocolError, match="length mismatch"):
        m.Msg.decode(wire[:-3])


def test_kind_names():
    assert _msg(kind=m.LVC_HELLO).kind_name == "LVC_HELLO"
    assert _msg(kind=250).kind_name == "kind250"


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([m.DATA, m.LVC_HELLO, m.IVC_OPEN, m.IVC_CLOSE]),
    src=st.integers(1, 2 ** 62),
    dst=st.integers(1, 2 ** 62),
    src_temp=st.booleans(),
    flags=st.integers(0, 0x1F),
    type_id=st.integers(0, 2 ** 32 - 1),
    corr_id=st.integers(0, 2 ** 32 - 1),
    aux=st.integers(0, 255),
    body=st.binary(max_size=256),
)
def test_property_header_round_trip(kind, src, dst, src_temp, flags,
                                    type_id, corr_id, aux, body):
    msg = m.Msg(
        kind=kind,
        src=Address(value=src, temporary=src_temp),
        dst=Address(value=dst),
        flags=flags, type_id=type_id, corr_id=corr_id, aux=aux, body=body,
    )
    back = m.Msg.decode(msg.encode())
    assert (back.kind, back.src, back.dst, back.flags, back.type_id,
            back.corr_id, back.aux, back.body) == (
        kind, msg.src, msg.dst, flags, type_id, corr_id, aux, body)


# -- the frame cache ----------------------------------------------------------

_WIRE_FIELDS = ("kind", "src", "dst", "flags", "type_id", "corr_id", "aux",
                "body")
_U32 = st.integers(0, 2 ** 32 - 1)
_ADDRESSES = st.builds(Address, value=st.integers(1, 2 ** 62),
                       temporary=st.booleans())
_WIRE_VALUES = {
    "kind": st.sampled_from(sorted(m.KIND_NAMES)),
    "src": _ADDRESSES,
    "dst": _ADDRESSES,
    "flags": st.integers(0, 0x3F),
    "type_id": _U32,
    "corr_id": _U32,
    "aux": _U32,
    "body": st.binary(max_size=64),
}


def _wire_values(msg):
    return {name: getattr(msg, name) for name in _WIRE_FIELDS}


def test_replace_on_decoded_msg_encodes_the_new_values():
    """``dataclasses.replace`` copies constructor fields only; the cached
    frame is not one, so the copy cannot carry the original's bytes."""
    frame = _msg(corr_id=7).encode()
    copy = replace(m.Msg.decode(frame), corr_id=99)
    assert m.Msg.decode(copy.encode()).corr_id == 99
    assert copy.encode() == _msg(corr_id=99).encode()
    deferred = m.Msg.decode(frame, verify=False)
    assert replace(deferred, aux=5).checksum_ok()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), start=st.sampled_from(["built", "encoded", "decoded",
                                              "decoded-deferred"]),
       steps=st.integers(0, 8))
def test_property_frame_cache_never_stale(data, start, steps):
    """Whatever happens to a message after it is built or decoded —
    wire-field assignments, ``set_mode``, ``dataclasses.replace``, with
    encodes in between filling the cache — it encodes to the bytes of a
    fresh message built from its final values, and decodes back equal."""
    msg = m.Msg(**{name: data.draw(strategy)
                   for name, strategy in _WIRE_VALUES.items()})
    if start == "encoded":
        msg.encode()
    elif start.startswith("decoded"):
        msg = m.Msg.decode(msg.encode(), verify=start == "decoded")
    for _ in range(steps):
        op = data.draw(st.sampled_from(["assign", "set_mode", "replace",
                                        "encode"]))
        if op == "assign":
            name = data.draw(st.sampled_from(_WIRE_FIELDS))
            setattr(msg, name, data.draw(_WIRE_VALUES[name]))
        elif op == "set_mode":
            msg.set_mode(data.draw(st.sampled_from([0, 1])))
        elif op == "replace":
            names = data.draw(st.lists(st.sampled_from(_WIRE_FIELDS),
                                       unique=True, max_size=3))
            msg = replace(msg, **{name: data.draw(_WIRE_VALUES[name])
                                  for name in names})
        else:
            msg.encode()
    fresh = m.Msg(**_wire_values(msg))
    assert msg.encode() == fresh.encode()
    assert m.Msg.decode(msg.encode()) == msg
    assert msg.checksum_ok()


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["kind", "flags", "type_id", "corr_id", "aux"]),
       value=st.one_of(st.integers(max_value=-1), st.integers(min_value=2 ** 32)),
       cached=st.booleans())
def test_property_header_word_out_of_u32_range_raises(name, value, cached):
    """The bound header codec fails an out-of-range word the way the
    generic shift-mode codec does: ``ConversionError``, never
    ``struct.error``, whether or not a frame was cached before."""
    msg = _msg()
    if cached:
        msg = m.Msg.decode(msg.encode())
    setattr(msg, name, value)
    with pytest.raises(ConversionError, match="out of u32 range"):
        msg.encode()
    with pytest.raises(ConversionError, match="out of u32 range"):
        m.Msg(**dict(_wire_values(_msg()), **{name: value})).encode()
