"""Golden wire-fixture generator.

Run ONCE against the pre-fast-path codecs (PR 2) to freeze the wire
format; later PRs may *extend* the case list (e.g. the §9 batched
naming operations), but a re-run must leave every existing ``.bin``
byte-identical — the fixtures' whole value is that they were produced
by the implementation that froze the format.
``tests/test_wire_golden.py`` replays the manifest against the live
codecs and fails on any byte-level drift.

    PYTHONPATH=src python tests/fixtures/wire/generate.py
"""

import json
import os

from repro.conversion import ConversionRegistry, Field, StructDef
from repro.naming import protocol as np
from repro.naming.protocol import register_naming_types
from repro.ntcs import message as m
from repro.ntcs.address import Address
from repro.ntcs.protocol import register_nucleus_types

HERE = os.path.dirname(os.path.abspath(__file__))

APP_SDEF = StructDef("golden_app", 100, [
    Field("n", "i32"),
    Field("ratio", "f64"),
    Field("tag", "char[12]"),
    Field("tail", "bytes"),
])

APP_VALUES = {"n": -1234, "ratio": 2.5, "tag": "golden", "tail": b"\x00\x01\xfe"}

CONTROL_BODIES = {
    "lvc_hello": {"mtype": "VAX", "listen_blob": "tcp:ether0:vax1:5001",
                  "network": "ether0"},
    "lvc_hello_ack": {"mtype": "APOLLO", "listen_blob": "mbx:ring0://a1/mbx/7"},
    "ivc_open": {"dst_network": "ring0", "src_mtype": "VAX",
                 "src_listen_blob": "tcp:ether0:vax1:5001"},
    "ivc_open_ack": {"dst_mtype": "APOLLO"},
    "ivc_open_nak": {"reason": "hop count exceeded"},
    "ivc_close": {"reason": "upstream circuit failed: peer died"},
    # Flow control (PROTOCOL.md §12): demand-driven standalone frames.
    # Cumulative counters ride in the body; the aux word carries the
    # same advertisement in piggyback encoding (CREDIT_VALID | count).
    "credit_grant": {"consumed": 6, "window": 8},
    "credit_probe": {"sent": 14},
}

# One fixed record shared by the naming-frame fixtures (PROTOCOL.md §9).
GOLDEN_RECORD = np.NameRecord(
    name="echo.server", uadd=Address(value=17), mtype_name="Sun-3",
    attrs={"kind": "echo"}, addresses=[("ether0", "tcp:ether0:sun1:5002")],
    alive=True, registered_at=0.125,
)

# Naming-service bodies frozen here: the generation-stamped acks and the
# batched resolve pair.  ``bytes`` fields are stored hex-encoded in the
# manifest (JSON cannot carry raw bytes); the replay test consults the
# StructDef to decode them.
NAMING_BODIES = {
    "ns_resolve_name_ack": {"found": 1, "uadd": 17, "gen": 4},
    "ns_resolve_name_ack_record": {
        "found": 1, "uadd": 17, "gen": 4,
        "record": np.encode_records([GOLDEN_RECORD]),
    },
    "ns_record_ack": {"found": 1, "gen": 4,
                      "record": np.encode_records([GOLDEN_RECORD])},
    "ns_forward_ack": {"status": np.FWD_FOUND, "new_uadd": 33, "gen": 5},
    "ns_resolve_batch": {
        "count": 2,
        "names": np.encode_name_list(
            ["echo.server", "no.such"]).encode("ascii"),
    },
    "ns_resolve_batch_ack": {
        "gen": 4, "count": 1,
        "payload": np.encode_batch_payload(["no.such"], [GOLDEN_RECORD]),
    },
}

# Cases named other than their structure: the locate reply as it has
# carried the answered record since it grew that trailing field
# (PROTOCOL.md §5).
CASE_STRUCTS = {"ns_resolve_name_ack_record": "ns_resolve_name_ack"}

# Structures as they stood when a frozen body was written, for those
# that have grown a trailing field since: packing the frozen case with
# them keeps its bytes, which the replay test checks are a prefix of
# the live body.
FROZEN_STRUCTS = {
    "ns_resolve_name_ack": StructDef(
        "ns_resolve_name_ack", np.T_NS_RESOLVE_NAME_ACK, [
            Field("found", "u8"),
            Field("uadd", "u64"),
            Field("gen", "u64"),
        ]),
}

# One fixed shard-directory record shared by the sharded-naming frames
# (PROTOCOL.md §14): the owning shard's replica as carried by a
# redirect.
GOLDEN_SHARD_RECORD = np.NameRecord(
    name="name.shard.2", uadd=Address(value=(2 << 48) | 1),
    mtype_name="VAX", attrs={"kind": "nameserver", "shard": "2"},
    addresses=[("ether0", "tcp:ether0:ns20:411")],
    alive=True, registered_at=0.25,
)

# Sharded-naming bodies (PROTOCOL.md §14), frozen by PR 10 in their own
# corr-id range so every pre-existing fixture stays byte-identical.
SHARD_BODIES = {
    "ns_shard_redirect": {
        "shard_id": 2, "count": 1,
        "records": np.encode_records([GOLDEN_SHARD_RECORD]),
    },
    "ns_shard_handoff": {
        "shard_id": 2, "count": 1,
        "records": np.encode_stamped_records([(4, GOLDEN_RECORD)]),
    },
    "ns_shard_handoff_ack": {"ok": 1, "count": 1},
    "ns_antientropy": {"shard_id": 1, "gen": 4, "digest": b"7"},
    "ns_antientropy_ack": {
        "gen": 7, "count": 1,
        "records": np.encode_stamped_records([(5, GOLDEN_RECORD)]),
    },
}


def build_registry():
    registry = ConversionRegistry()
    register_nucleus_types(registry)
    register_naming_types(registry)
    registry.register(APP_SDEF)
    return registry


def cases(registry):
    src = Address(value=3)
    dst = Address(value=9)
    tsrc = Address(value=5, temporary=True)
    app = registry.get_by_name("golden_app")
    packed_body = app.pack(APP_VALUES)
    yield ("data_packed", m.Msg(kind=m.DATA, src=src, dst=dst,
                                flags=m.FLAG_PACKED | m.FLAG_REPLY_EXPECTED,
                                type_id=100, corr_id=7, body=packed_body))
    yield ("data_image", m.Msg(kind=m.DATA, src=src, dst=dst, flags=0,
                               type_id=100, corr_id=8,
                               body=b"\x01\x02\x03\x04imagebody"))
    yield ("data_empty_body", m.Msg(kind=m.DATA, src=src, dst=dst,
                                    flags=m.FLAG_PACKED, type_id=100,
                                    corr_id=9))
    yield ("data_tadd_source", m.Msg(kind=m.DATA, src=tsrc, dst=dst,
                                     flags=m.FLAG_PACKED, type_id=100,
                                     corr_id=10, body=packed_body))
    # A flow-controlled DATA frame: the receiver's cumulative consumed
    # count piggybacks in the aux word (PROTOCOL.md §12).
    yield ("data_credit_piggyback",
           m.Msg(kind=m.DATA, src=src, dst=dst, flags=m.FLAG_PACKED,
                 type_id=100, corr_id=11, aux=m.encode_credit(6),
                 body=packed_body))
    for name, values in sorted(CONTROL_BODIES.items()):
        entry = registry.get_by_name(name)
        kind = {
            "lvc_hello": m.LVC_HELLO, "lvc_hello_ack": m.LVC_HELLO_ACK,
            "ivc_open": m.IVC_OPEN, "ivc_open_ack": m.IVC_OPEN_ACK,
            "ivc_open_nak": m.IVC_OPEN_NAK, "ivc_close": m.IVC_CLOSE,
            "credit_grant": m.CREDIT_GRANT, "credit_probe": m.CREDIT_PROBE,
        }[name]
        aux = {"ivc_open": 3,
               "credit_grant": m.encode_credit(values.get("consumed", 0)),
               "credit_probe": m.encode_credit(values.get("sent", 0)),
               }.get(name, 0)
        yield (name, m.Msg(kind=kind, src=src, dst=dst,
                           flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
                           type_id=entry.sdef.type_id, aux=aux,
                           body=entry.pack(values)))
    frozen = ConversionRegistry()
    for sdef in FROZEN_STRUCTS.values():
        frozen.register(sdef)
    for corr_id, (name, values) in enumerate(sorted(NAMING_BODIES.items()),
                                             start=20):
        entry = (frozen if name in FROZEN_STRUCTS else registry).get_by_name(
            CASE_STRUCTS.get(name, name))
        yield (name, m.Msg(kind=m.DATA, src=src, dst=dst,
                           flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
                           type_id=entry.sdef.type_id, corr_id=corr_id,
                           body=entry.pack(values)))
    for corr_id, (name, values) in enumerate(sorted(SHARD_BODIES.items()),
                                             start=30):
        entry = registry.get_by_name(name)
        yield (name, m.Msg(kind=m.DATA, src=src, dst=dst,
                           flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
                           type_id=entry.sdef.type_id, corr_id=corr_id,
                           body=entry.pack(values)))


def main():
    registry = build_registry()
    manifest = {"app_struct": {"name": APP_SDEF.name,
                               "type_id": APP_SDEF.type_id},
                "app_values_packed_hex": registry.get_by_name(
                    "golden_app").pack(APP_VALUES).hex(),
                "control_bodies": CONTROL_BODIES,
                "naming_bodies": {
                    name: {key: (value.hex() if isinstance(value, bytes)
                                 else value)
                           for key, value in values.items()}
                    for name, values in
                    {**NAMING_BODIES, **SHARD_BODIES}.items()},
                "frames": []}
    for name, msg in cases(registry):
        frame = msg.encode()
        path = os.path.join(HERE, f"{name}.bin")
        with open(path, "wb") as f:
            f.write(frame)
        manifest["frames"].append({
            "name": name,
            "file": f"{name}.bin",
            "kind": msg.kind,
            "src_value": msg.src.value,
            "src_temporary": msg.src.temporary,
            "dst_value": msg.dst.value,
            "dst_temporary": msg.dst.temporary,
            "flags": msg.flags,
            "type_id": msg.type_id,
            "corr_id": msg.corr_id,
            "aux": msg.aux,
            "body_hex": msg.body.hex(),
        })
    with open(os.path.join(HERE, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(manifest['frames'])} frames to {HERE}")


if __name__ == "__main__":
    main()
