"""Golden wire-format tests: byte-identical frames across codec changes.

The frames in ``tests/fixtures/wire/`` were generated by the *per-byte*
shift/mask implementation this PR replaced with batched codecs (see
``tests/fixtures/wire/generate.py``).  These tests replay the manifest
against the live implementation: any byte-level drift in header or body
encoding — now or in a future "optimization" — fails here first.
"""

import json
import os
import struct

import pytest

from repro.conversion import ConversionRegistry, Field, StructDef
from repro.naming.protocol import register_naming_types
from repro.ntcs import message as m
from repro.ntcs.address import Address
from repro.ntcs.protocol import register_nucleus_types

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "wire")

with open(os.path.join(FIXTURES, "manifest.json")) as _f:
    MANIFEST = json.load(_f)

FRAMES = {entry["name"]: entry for entry in MANIFEST["frames"]}


def _registry():
    registry = ConversionRegistry()
    register_nucleus_types(registry)
    register_naming_types(registry)
    registry.register(StructDef("golden_app", 100, [
        Field("n", "i32"),
        Field("ratio", "f64"),
        Field("tag", "char[12]"),
        Field("tail", "bytes"),
    ]))
    return registry


def _read_frame(entry):
    with open(os.path.join(FIXTURES, entry["file"]), "rb") as f:
        return f.read()


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_decode_matches_manifest(name):
    entry = FRAMES[name]
    msg = m.Msg.decode(_read_frame(entry))
    assert msg.kind == entry["kind"]
    assert msg.src.value == entry["src_value"]
    assert msg.src.temporary == entry["src_temporary"]
    assert msg.dst.value == entry["dst_value"]
    assert msg.dst.temporary == entry["dst_temporary"]
    assert msg.flags == entry["flags"]
    assert msg.type_id == entry["type_id"]
    assert msg.corr_id == entry["corr_id"]
    assert msg.aux == entry["aux"]
    assert msg.body == bytes.fromhex(entry["body_hex"])


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_reencode_is_byte_identical(name):
    frame = _read_frame(FRAMES[name])
    assert m.Msg.decode(frame).encode() == frame


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_rebuilt_message_encodes_byte_identical(name):
    """A Msg built fresh from the manifest fields (no cached frame)
    must serialize to exactly the golden bytes."""
    entry = FRAMES[name]
    msg = m.Msg(
        kind=entry["kind"],
        src=Address(value=entry["src_value"],
                    temporary=entry["src_temporary"]),
        dst=Address(value=entry["dst_value"],
                    temporary=entry["dst_temporary"]),
        flags=entry["flags"],
        type_id=entry["type_id"],
        corr_id=entry["corr_id"],
        aux=entry["aux"],
        body=bytes.fromhex(entry["body_hex"]),
    )
    assert msg.encode() == _read_frame(entry)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_header_view_matches_manifest(name):
    entry = FRAMES[name]
    view = m.HeaderView(_read_frame(entry))
    assert view.kind == entry["kind"]
    assert view.src.value == entry["src_value"]
    assert view.dst.value == entry["dst_value"]
    assert view.flags == entry["flags"]
    assert view.type_id == entry["type_id"]
    assert view.corr_id == entry["corr_id"]
    assert view.aux == entry["aux"]
    assert view.body_len == len(bytes.fromhex(entry["body_hex"]))
    assert view.checksum_ok()


def test_patch_frame_aux_equals_full_reencode():
    """The in-place aux/checksum splice must produce exactly the bytes
    a full re-serialization with the new hop count would."""
    entry = FRAMES["ivc_open"]
    frame = _read_frame(entry)
    for new_aux in (0, 1, entry["aux"] + 1, 0xFFFF):
        patched = m.patch_frame_aux(frame, new_aux)
        reference = m.Msg.decode(frame)
        reference.aux = new_aux  # drops the cached frame
        assert patched == reference.encode()
        assert m.Msg.decode(patched).aux == new_aux


def test_packed_body_reproduced_by_live_codecs():
    registry = _registry()
    app = registry.get_by_name("golden_app")
    values = {"n": -1234, "ratio": 2.5, "tag": "golden",
              "tail": b"\x00\x01\xfe"}
    assert app.pack(values).hex() == MANIFEST["app_values_packed_hex"]
    assert app.unpack(bytes.fromhex(MANIFEST["app_values_packed_hex"])) \
        == values


def test_control_bodies_reproduced_by_live_codecs():
    registry = _registry()
    for name, values in MANIFEST["control_bodies"].items():
        entry = registry.get_by_name(name)
        golden = bytes.fromhex(FRAMES[name]["body_hex"])
        assert entry.pack(values) == golden, name
        assert entry.unpack(golden) == values, name


# Frozen naming bodies whose structure has grown a trailing field since
# they were written; each stays a byte prefix of the live body.
GROWN_SINCE_FROZEN = {"ns_resolve_name_ack"}


def test_naming_bodies_reproduced_by_live_codecs():
    """The generation-stamped acks and the batched resolve pair
    (PROTOCOL.md §9): the manifest hex-encodes ``bytes`` fields, so
    decode per the StructDef before packing.  A case is packed with the
    structure its frame's type id names."""
    registry = _registry()
    for name, raw in MANIFEST["naming_bodies"].items():
        if name in GROWN_SINCE_FROZEN:
            continue
        entry = registry.get(FRAMES[name]["type_id"])
        values = {
            f.name: (bytes.fromhex(raw[f.name]) if f.ftype == "bytes"
                     else raw[f.name])
            for f in entry.sdef.fields
        }
        golden = bytes.fromhex(FRAMES[name]["body_hex"])
        assert entry.pack(values) == golden, name
        assert entry.unpack(golden) == values, name


def test_frozen_locate_reply_is_a_prefix_of_the_live_body():
    """``ns_resolve_name_ack`` gained a trailing ``record`` field after
    its body froze (PROTOCOL.md §5).  The frozen bytes stay as written,
    and the live encoding of the same answer starts with them, in packed
    mode and in image mode alike."""
    entry = _registry().get_by_name("ns_resolve_name_ack")
    frozen = bytes.fromhex(FRAMES["ns_resolve_name_ack"]["body_hex"])
    answer = MANIFEST["naming_bodies"]["ns_resolve_name_ack"]
    record = bytes.fromhex(
        MANIFEST["naming_bodies"]["ns_resolve_name_ack_record"]["record"])
    assert frozen == b"1\x1f17\x1f4\x1f"
    for tail in (b"", record):
        live = entry.pack({**answer, "record": tail})
        assert live == frozen + str(len(tail)).encode() + b":" + tail + b"\x1f"
        for order in "<>":
            image = entry.sdef.image_encode({**answer, "record": tail}, order)
            assert image == struct.pack(order + "BQQ", 1, 17, 4) + tail
