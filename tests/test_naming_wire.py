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
"""

import json
import os

import pytest

from deployments import echo_server, register_app_types, sharded_single_net
from repro import SUN3, Testbed, VAX
from repro.errors import NoSuchName, ProtocolError
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


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_naming_wire_matches_the_three_class_service(name):
    with open(os.path.join(FIXTURES, name + ".json")) as handle:
        recorded = json.load(handle)
    observed = _observed(name)
    assert len(recorded["frames"]) > 0
    assert observed["answers"] == recorded["answers"]
    assert observed["frames"] == recorded["frames"]
    assert observed["end_time"] == recorded["end_time"]
