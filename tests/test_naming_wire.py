"""Frozen naming wire: one server class must speak what three did.

One fixed register / locate / call / batch / deregister script is run
against every shape of naming deployment, and its naming-protocol
frames (type id + body bytes), application-visible answers and virtual
end time are compared byte for byte with fixtures recorded at commit
8022dbc — the last one that still had ``NameServer`` /
``ReplicatedNameServer`` / ``ShardedNameServer``, three NSP classes and
three deploy functions:

* ``replicated_1x2`` was ``deploy_replicated_naming(bed, ["ns0", "ns1"])``,
* ``lone_cache_on`` / ``lone_cache_off`` were ``bed.name_server("ns0")``
  with the §9 cache enabled / ``nsp_cache_enabled=False``,
* ``fleet_2x2`` was ``sharded_single_net(2, 2)`` (``deploy_sharded_naming``),
  grown to three shards so a stale ring draws one redirect, then
  robbed of its anchor replica so one request fails over.

At head the same deployments are values of one ``deploy_naming``:
``[["ns0", "ns1"]]``, ``[["ns0"]]`` and the 2 × 2 fleet.  The fixtures'
whole value is that the three-class implementation wrote them; do not
regenerate them from a tree that has only one.

Since then the locate reply has carried the answered record
(PROTOCOL.md §5), so the script's first call no longer asks
``ns_resolve_uadd``.  The test checks that one change as a relation to
the recording: the same answers; the same naming frames minus exactly
one ``ns_resolve_uadd`` / ``ns_record_ack`` pair, where every recorded
``ns_resolve_name_ack`` body is a byte prefix of the live one; and an
end time one round trip (2 ms) earlier.

Since then a circuit's first frames have ridden its LVC_HELLO
(PROTOCOL.md §3), so each first call on a new circuit answers a round
trip sooner.  Where that moves a record's registration stamp, the
recorded stamp and its live value are pinned in ``STAMPS_MOVED``; the
test writes them into the recorded bodies, recounts the character
format's length prefixes, and still compares byte for byte.  The end
time is earlier by what the riding saved in each script, pinned in
``RIDING_SAVED``.
"""

import json
import os
import re

import pytest

from deployments import echo_server, register_app_types, sharded_single_net
from repro import SUN3, Testbed, VAX
from repro.errors import NoSuchName, ProtocolError
from repro.naming.protocol import (
    T_NS_RECORD_ACK,
    T_NS_RESOLVE_NAME_ACK,
    T_NS_RESOLVE_UADD,
)
from repro.naming.shards import add_naming_shard, deploy_naming
from repro.ntcs.message import HEADER_BYTES, HeaderView
from repro.ntcs.nucleus import NucleusConfig

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "naming_wire")


def _naming_frames(log):
    """(type_id, body) for every naming-protocol frame (type ids 10–39)
    in a wire trace, in transmission order.  TCP DATA segments carry
    length-prefixed NTCS frames; everything else is transport noise."""
    out = []
    for event in log.events:
        for blob_hex in event["args"]["frames"]:
            blob = bytes.fromhex(blob_hex)
            while len(blob) >= 4:
                length = int.from_bytes(blob[:4], "big")
                frame, blob = blob[4:4 + length], blob[4 + length:]
                try:
                    header = HeaderView(frame)
                except ProtocolError:
                    break
                if 10 <= header.type_id < 40:
                    out.append((header.type_id, frame[HEADER_BYTES:]))
    return out


def _on_four_machines(shard_machines, config=None):
    """The script against ``deploy_naming(bed, shard_machines)`` on one
    Ethernet of ns0, ns1, app1, app2."""
    bed = Testbed(config=config)
    bed.network("ether0", protocol="tcp")
    for name, mtype in (("ns0", VAX), ("ns1", SUN3),
                        ("app1", SUN3), ("app2", VAX)):
        bed.machine(name, mtype, networks=["ether0"])
    deploy_naming(bed, shard_machines)
    register_app_types(bed)
    log = bed.record_wire_trace()
    answers, _client = _script(bed)
    return answers, log, bed


def _script(bed):
    """The fixed workload; returns (answers, client)."""
    echo_server(bed, "dest", "app1")
    worker = bed.module("worker", "app1")
    client = bed.module("client", "app2")
    bed.settle()
    answers = []
    for i in range(3):
        uadd = client.ali.locate("dest")
        reply = client.ali.call(uadd, "echo", {"n": i, "text": f"m{i}"})
        answers.append([uadd.value, reply.values["n"], reply.values["text"]])
    try:
        client.ali.locate("ghost")
        answers.append("resolved")
    except NoSuchName:
        answers.append("no-such-name")
    batch = client.nsp.resolve_batch(["dest", "worker", "no.such"])
    answers.append(sorted(
        [name, record.uadd.value if record else None]
        for name, record in batch.items()))
    worker.ali.deregister()
    bed.settle()
    return answers, client


def _fleet_2x2():
    bed, groups = sharded_single_net(2, 2)
    log = bed.record_wire_trace()
    answers, client = _script(bed)
    # A third shard joins behind the client's back: its stale ring
    # sends "mod.3" to an old owner, which redirects it (once).
    bed.machine("ns20", VAX, networks=["ether0"])
    add_naming_shard(bed, ["ns20"])
    bed.settle()
    moved = bed.module("mod.3", "app1")
    bed.settle()
    counters = client.nucleus.counters
    answers.append(["stale-ring", client.ali.locate("mod.3").value,
                    moved.ali.uadd.value,
                    counters["nsp_shard_redirects"],
                    counters["nsp_shard_ring_updates"]])
    # The anchor replica dies: the next request for a shard-0 name
    # fails over inside the shard.
    groups[0][0].process.kill()
    bed.settle()
    answers.append(["failover", client.ali.locate("dest").value,
                    counters["ns_failovers"]])
    bed.settle()
    return answers, log, bed


SCENARIOS = {
    "replicated_1x2": lambda: _on_four_machines([["ns0", "ns1"]]),
    "lone_cache_on": lambda: _on_four_machines([["ns0"]]),
    "lone_cache_off": lambda: _on_four_machines(
        [["ns0"]], NucleusConfig(nsp_cache_enabled=False)),
    "fleet_2x2": _fleet_2x2,
}


def _observed(name):
    answers, log, bed = SCENARIOS[name]()
    return {
        "answers": answers,
        "end_time": bed.now,
        "frames": [[type_id, body.hex()]
                   for type_id, body in _naming_frames(log)],
    }


# A record's last two fields: alive, then its registration stamp.
_STAMP = re.compile(rb"(\n[01]\n)([0-9][0-9.e+-]*)")
# A character-format field: a counted one (``<length>:<bytes>``) or a
# scalar, each ended by the unit separator.
_FIELD = re.compile(rb"([0-9]+):|-?[0-9][0-9.e+-]*\x1f")

# Registration stamps the riding HELLO moves, recorded -> live: dest,
# worker and client each register one round trip (2 ms) sooner than the
# module before them.  The lone server's scripts carry no moved stamp.
_SOONER = {b"0.005": b"0.003",
           b"0.015000000000000006": b"0.011000000000000003",
           b"0.02100000000000001": b"0.015000000000000006"}
STAMPS_MOVED = {"fleet_2x2": _SOONER, "lone_cache_off": {},
                "lone_cache_on": {}, "replicated_1x2": _SOONER}

# Virtual seconds each script ends sooner because its circuits' first
# frames ride their LVC_HELLOs.
RIDING_SAVED = {"fleet_2x2": 0.018, "lone_cache_off": 0.002,
                "lone_cache_on": 0.002, "replicated_1x2": 0.008}


def _character_fields(body):
    """A character-format body's fields as (counted, bytes) pairs, or
    None when the body is in image format."""
    fields, pos = [], 0
    while pos < len(body):
        match = _FIELD.match(body, pos)
        if match is None:
            return None
        if match.group(1) is None:
            fields.append((False, match.group(0)[:-1]))
            pos = match.end()
            continue
        end = match.end() + int(match.group(1))
        if body[end:end + 1] != b"\x1f":
            return None
        fields.append((True, body[match.end():end]))
        pos = end + 1
    return fields


def _restamped(body, moved):
    """A recorded body with each registration stamp in ``moved`` written
    as its live value and every length prefix recounted."""
    def restamp(data):
        return _STAMP.sub(
            lambda m: m.group(1) + moved.get(m.group(2), m.group(2)), data)

    fields = _character_fields(body)
    if fields is None:
        return restamp(body)
    out = bytearray()
    for counted, data in fields:
        data = restamp(data)
        if counted:
            out += str(len(data)).encode("ascii") + b":"
        out += data + b"\x1f"
    return bytes(out)


def _same_but_longer_locate_replies(recorded, observed):
    """Frame for frame equal, except that a recorded
    ``ns_resolve_name_ack`` body need only be a prefix of the live one."""
    return len(recorded) == len(observed) and all(
        head_type == type_id and (
            head_body.startswith(body) if type_id == T_NS_RESOLVE_NAME_ACK
            else head_body == body)
        for (type_id, body), (head_type, head_body) in zip(recorded, observed))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_naming_wire_matches_the_three_class_service(name):
    with open(os.path.join(FIXTURES, name + ".json")) as handle:
        recorded = json.load(handle)
    observed = _observed(name)
    assert len(recorded["frames"]) > 0
    assert observed["answers"] == recorded["answers"]
    frames = [(t, _restamped(bytes.fromhex(body), STAMPS_MOVED[name]))
              for t, body in recorded["frames"]]
    head = [(t, bytes.fromhex(body)) for t, body in observed["frames"]]
    # Exactly one ns_resolve_uadd round trip is gone.
    assert any(
        (frames[i][0], frames[i + 1][0]) == (T_NS_RESOLVE_UADD,
                                             T_NS_RECORD_ACK)
        and _same_but_longer_locate_replies(frames[:i] + frames[i + 2:], head)
        for i in range(len(frames) - 1))
    assert observed["end_time"] == pytest.approx(
        recorded["end_time"] - 0.002 - RIDING_SAVED[name], abs=1e-9)
