"""Datagram-level wire invariance: substrate work must not move a frame.

Five scripted runs are traced one line per transmitted datagram —
virtual time, network, hosts, protocol, segment kind, sequence number
(``first-last`` for an acknowledgement covering a range), size, a
checksum of the bytes carried, and the drop decision — and compared
byte for byte with recorded traces.  Anything that changes what goes
on the wire, when, in what order, or what the fault plan does to it
fails here; scheduler-event counts and Python call counts are free to
move.

Each scenario is recorded twice:

* ``<name>.trace`` at the default coalescing window.  ``echo5_chain3``
  and ``sever_heal_single_net`` date from before the sim substrate was
  specialised (stream chunks born at the train tail, fused pump step,
  per-datagram fast path); ``burst40_two_nets_drop2`` was re-recorded
  when each connection's share of an arrival train began to be
  acknowledged with one range ACK — only its ACK lines changed.
  ``teardown_chain2`` was first recorded when a connection whose CLOSE
  has arrived stopped being acknowledged and answered.
* ``<name>.train1.trace`` at ``train_max = 1``, recorded by the
  implementation that still acknowledged every segment and record on
  arrival (``teardown_chain2``'s: by the one that still acknowledged
  and answered a closed peer): the ablation must reproduce that wire
  exactly.

All eight were re-recorded once more when the locate reply began to
carry the answered record (PROTOCOL.md §5).  Each new trace is its
predecessor minus one four-line block, the client's ``ns_resolve_uadd``
round trip (DATA, ACK, ``ns_record_ack`` DATA, ACK), with every later
line 2 ms earlier; CHANGES.md records the check per file.

``reuse_chain2`` (two clients in turn across two gateways) was first
recorded, in both windows, by the implementation whose gateways closed
every leg with its circuit.  Both of its traces and both
``teardown_chain2`` traces were then re-recorded when gateways began to
keep their legs (PROTOCOL.md §3, "Kept legs"): each gateway leg's CLOSE
went, and the second circuit's two connect-and-HELLO blocks with it.

The fixtures' whole value is that the pre-change implementation wrote
them.  Regenerate the default-window traces (only when the wire is
*meant* to change, and record old -> new in CHANGES.md) with:

    PYTHONPATH=src:tests python tests/test_wire_invariance.py
"""

import os
import zlib

import pytest

from deployments import chain_nets, echo_server, single_net, two_nets
from repro.netsim import NetTraceLog
from repro.ntcs.nucleus import NucleusConfig

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures", "netsim_wire")

# Segment kinds whose third payload element is a sequence number, and
# the acknowledgements among them, whose fourth ends a range.
_SEQUENCED = {"DATA", "ACK", "MBX_PUT", "MBX_PUT_ACK"}
_RANGED = {"ACK", "MBX_PUT_ACK"}


class _SegmentTrace(NetTraceLog):
    """A NetTraceLog that also keeps what the IPCS put in the segment:
    its kind and sequence number."""

    def _record(self, network, datagram, size, dropped):
        super()._record(network, datagram, size, dropped)
        payload = datagram.payload
        args = self.events[-1]["args"]
        kind = args["kind"] = payload[0]
        seq = payload[2] if kind in _SEQUENCED else "-"
        if kind in _RANGED and payload[3] != seq:
            seq = f"{seq}-{payload[3]}"
        args["seq"] = seq

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


def _echoes_over_three_gateways(config):
    bed = chain_nets(3, config=config)
    log = _traced(bed)
    echo_server(bed, "dest", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("dest")
    for i in range(5):
        reply = client.ali.call(uadd, "echo", {"n": i, "text": f"m{i}"})
        assert reply.values["text"] == f"M{i}"
    bed.settle()
    return log


def _burst_through_gateway_with_drops(config):
    bed = two_nets(config=config)
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


def _sever_and_heal_mid_conversation(config):
    bed = single_net(config=config)
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


def _client_dies_across_two_gateways(config):
    bed = chain_nets(2, config=config)
    log = _traced(bed)
    echo_server(bed, "dest", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("dest")
    reply = client.ali.call(uadd, "echo", {"n": 0, "text": "m0"})
    assert reply.values["text"] == "M0"
    bed.settle()
    # The circuit is torn down hop by hop (PROTOCOL.md §10): each hop
    # receives IVC_CLOSE and its peer's CLOSE in one train.
    client.process.kill()
    bed.settle()
    return log


def _two_clients_in_turn_across_two_gateways(config):
    bed = chain_nets(2, config=config)
    log = _traced(bed)
    echo_server(bed, "dest", "mEnd")
    for i in range(2):
        client = bed.module(f"client{i}", "m0")
        uadd = client.ali.locate("dest")
        reply = client.ali.call(uadd, "echo", {"n": i, "text": f"m{i}"})
        assert reply.values["text"] == f"M{i}"
        bed.settle()
        if i == 0:
            # The first client dies before the second is born: the
            # second circuit finds both gateways' legs kept (PROTOCOL.md
            # §3, "Kept legs").
            client.process.kill()
            bed.settle()
    return log


SCENARIOS = {
    "echo5_chain3": _echoes_over_three_gateways,
    "burst40_two_nets_drop2": _burst_through_gateway_with_drops,
    "sever_heal_single_net": _sever_and_heal_mid_conversation,
    "teardown_chain2": _client_dies_across_two_gateways,
    "reuse_chain2": _two_clients_in_turn_across_two_gateways,
}


def _recorded(name):
    with open(os.path.join(FIXTURES, name)) as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_datagram_trace_is_byte_identical_to_the_recorded_wire(name):
    assert SCENARIOS[name](None).lines() == _recorded(name + ".trace")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_train_max_1_reproduces_the_per_frame_acknowledged_wire(name):
    """The ablation is exact: with one frame per train every range ACK
    covers one segment or record, so the wire is the one recorded
    before acknowledgements were gathered per train."""
    traced = SCENARIOS[name](NucleusConfig(train_max=1))
    assert traced.lines() == _recorded(name + ".train1.trace")


def test_teardown_omits_only_what_a_closed_peer_was_sent():
    """Where a hop receives IVC_CLOSE and its peer's CLOSE in one train,
    it sends that connection nothing more (PROTOCOL.md §13).  Gateways
    keep their legs (PROTOCOL.md §3), so no hop of this teardown gets
    both any more, and the default-window teardown is the per-frame one
    line for line.  (It omitted two range ACKs and one answering CLOSE
    while gateways closed their legs with the circuit.)"""
    trained = iter(_recorded("teardown_chain2.trace").splitlines())
    omitted = []
    expected = next(trained, None)
    for line in _recorded("teardown_chain2.train1.trace").splitlines():
        if line == expected:
            expected = next(trained, None)
        else:
            omitted.append(line.split()[4:6])  # kind, sequence
    assert expected is None
    assert omitted == []


if __name__ == "__main__":
    os.makedirs(FIXTURES, exist_ok=True)
    for scenario, run in sorted(SCENARIOS.items()):
        with open(os.path.join(FIXTURES, scenario + ".trace"), "w") as out:
            out.write(run(None).lines())
        print("wrote", scenario)
