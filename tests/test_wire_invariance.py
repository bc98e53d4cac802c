"""Datagram-level wire invariance: substrate work must not move a frame.

Three scripted runs are traced one line per transmitted datagram —
virtual time, network, hosts, protocol, segment kind, sequence number,
size, a checksum of the bytes carried, and the drop decision — and
compared byte for byte with traces recorded by the implementation
*before* the sim substrate was specialised (PR 16: stream chunks born
at the train tail, fused pump step, per-datagram fast path).  Anything
that changes what goes on the wire, when, in what order, or what the
fault plan does to it fails here; scheduler-event counts and Python
call counts are free to move.

The fixtures' whole value is that the pre-change implementation wrote
them.  Regenerate (only when the wire is *meant* to change, and record
old -> new in CHANGES.md) with:

    PYTHONPATH=src:tests python tests/test_wire_invariance.py
"""

import os
import zlib

import pytest

from deployments import chain_nets, echo_server, single_net, two_nets
from repro.netsim import NetTraceLog

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "netsim_wire")

# Segment kinds whose third payload element is a sequence number.
_SEQUENCED = {"DATA", "ACK", "MBX_PUT", "MBX_PUT_ACK"}


class _SegmentTrace(NetTraceLog):
    """A NetTraceLog that also keeps what the IPCS put in the segment:
    its kind and sequence number."""

    def _record(self, network, datagram, size, dropped):
        super()._record(network, datagram, size, dropped)
        payload = datagram.payload
        args = self.events[-1]["args"]
        args["kind"] = payload[0]
        args["seq"] = payload[2] if payload[0] in _SEQUENCED else "-"

    def lines(self):
        out = []
        for event in self.events:
            args = event["args"]
            carried = zlib.crc32(bytes.fromhex("".join(args["frames"])))
            out.append(
                f"{event['at']:.6f} {event['target']} "
                f"{args['src']}>{args['dst']} {args['protocol']} "
                f"{args['kind']} {args['seq']} {args['size']} "
                f"{carried:08x} {'DROPPED' if args['dropped'] else 'ok'}")
        return "\n".join(out) + "\n"


def _traced(bed):
    log = _SegmentTrace()
    for network in bed.networks.values():
        log.attach(network)
    return log


def _echoes_over_three_gateways():
    bed = chain_nets(3)
    log = _traced(bed)
    echo_server(bed, "dest", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("dest")
    for i in range(5):
        reply = client.ali.call(uadd, "echo", {"n": i, "text": f"m{i}"})
        assert reply.values["text"] == f"M{i}"
    bed.settle()
    return log


def _burst_through_gateway_with_drops():
    bed = two_nets()
    log = _traced(bed)
    received = []
    sink = bed.module("ring.sink", "apollo1")
    sink.ali.set_request_handler(lambda msg: received.append(msg.values["a"]))
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("ring.sink")
    src.ali.send(uadd, "numbers", {"a": 99, "b": 0, "big": 0})
    bed.settle()
    bed.networks["ether0"].faults.drop_next(2)
    for i in range(40):
        src.ali.send(uadd, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    assert received == [99] + list(range(40))
    return log


def _sever_and_heal_mid_conversation():
    bed = single_net()
    log = _traced(bed)
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    faults = bed.networks["ether0"].faults
    for i in range(6):
        if i == 2:
            # The link goes down for 20 ms while the third request is in
            # flight: the acknowledgement, the reply and every
            # retransmission either way are lost until it heals.
            bed.scheduler.schedule(
                0.0005, lambda: faults.sever("vax1", "sun1"))
            bed.scheduler.schedule(
                0.0205, lambda: faults.heal("vax1", "sun1"))
        reply = client.ali.call(uadd, "echo", {"n": i, "text": f"m{i}"})
        assert reply.values["n"] == i
    bed.settle()
    assert faults.dropped > 0
    return log


SCENARIOS = {
    "echo5_chain3": _echoes_over_three_gateways,
    "burst40_two_nets_drop2": _burst_through_gateway_with_drops,
    "sever_heal_single_net": _sever_and_heal_mid_conversation,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_datagram_trace_is_byte_identical_to_the_recorded_wire(name):
    with open(os.path.join(FIXTURES, name + ".trace")) as handle:
        recorded = handle.read()
    assert SCENARIOS[name]().lines() == recorded


if __name__ == "__main__":
    os.makedirs(FIXTURES, exist_ok=True)
    for scenario, run in sorted(SCENARIOS.items()):
        with open(os.path.join(FIXTURES, scenario + ".trace"), "w") as out:
            out.write(run().lines())
        print("wrote", scenario)
