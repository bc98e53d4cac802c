"""The declared machines run (PROTOCOL.md §3, "The declared machines
run").

Every LVC and IVC state move is a step along an edge of the ``lvc`` or
``ivc-endpoint`` table (``repro.ntcs.protocol.step``).  A control frame
the table has no edge for, from the state its circuit is in, is counted
in ``frames_out_of_model`` and dropped: the circuit keeps its state, its
index entry and its peer, nothing is sent, and the next call rides the
same circuit.  Before the tables ran, a stray ``IVC_OPEN_NAK`` left an
OPEN chained circuit FAILED but indexed, so the next call opened a
second one beside it; and a stray ``LVC_HELLO`` on an outbound LVC was
answered, rewrote the LVC's peer and replaced the circuit indexed on it.

The fixtures hand each frame to the ND-Layer's receive path, as a
network would.  A property then feeds random sequences of the five
control kinds to the live circuit of a call, with the compiled table as
the oracle.  A control body that does not decode is decoded before any
step and faults its LVC as a checksum mismatch does; a bounded
self-loop is refused past its bound, so a second rider sends nothing.

The tests that deliver such a frame on purpose carry the
``out_of_model`` marker; any other test fails at teardown when a bed it
built counted one (``tests/conftest.py``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from deployments import echo_server, single_net, two_nets
from repro.errors import AddressFault, NtcsError, ProtocolError
from repro.ntcs import message as m
from repro.ntcs.address import make_uadd
from repro.ntcs.iplayer import Ivc
from repro.ntcs.protocol import MACHINES, step
from repro.util.counters import (
    FRAMES_OUT_OF_MODEL, IVC_CHAINED_OPENED, IVC_DIRECT_OPENED,
    ND_MALFORMED_MESSAGES)
from test_resource_lifecycle import _ended_but_indexed

ECHO = {"n": 1, "text": "x"}

# The body fields of each control kind the fixtures forge.
FIELDS = {
    m.LVC_HELLO: ("mtype", "listen_blob", "network"),
    m.LVC_HELLO_ACK: ("mtype", "listen_blob"),
    m.IVC_OPEN_ACK: ("dst_mtype",),
    m.IVC_OPEN_NAK: ("reason",),
    m.IVC_CLOSE: ("reason",),
}


def _called(bed, server_machine, client_machine="sun1"):
    """``bed`` after one echo call from a client to a server: (client,
    server, the server's UAdd)."""
    server = echo_server(bed, "srv", server_machine)
    client = bed.module("client", client_machine)
    uadd = client.ali.locate("srv")
    assert client.ali.call(uadd, "echo", ECHO).values == {"n": 1, "text": "X"}
    bed.settle()
    return client, server, uadd


def _frame(sender, dst, kind, src=None):
    """A ``kind`` control frame from ``sender``'s module to ``dst``, as
    it arrives off the wire; ``src`` forges its source."""
    nucleus = sender.nucleus
    values = {"mtype": nucleus.mtype.name, "dst_mtype": nucleus.mtype.name,
              "listen_blob": nucleus.nd.listen_blob,
              "network": nucleus.nd.driver.network_name, "reason": "stray"}
    msg = nucleus.control(kind, dst, m.KIND_NAMES[kind].lower(),
                          {field: values[field] for field in FIELDS[kind]})
    if src is not None:
        msg.src = src
    return msg.encode()


def _sent(bed):
    return sum(network.frames_sent for network in bed.networks.values())


def _chained(client):
    [ivc] = [ivc for ivc in client.nucleus.ip._by_lvc.values()
             if not ivc.direct]
    return ivc


@pytest.mark.out_of_model
@pytest.mark.parametrize("kind", [m.IVC_OPEN_NAK, m.IVC_OPEN_ACK],
                         ids=["nak", "ack"])
def test_an_open_answer_on_an_open_chained_circuit_is_dropped(kind):
    bed = two_nets()
    client, server, uadd = _called(bed, "apollo1")
    nucleus = client.nucleus
    ivc = _chained(client)
    peer, sent = ivc.peer_addr, _sent(bed)
    nucleus.nd._on_raw(ivc.lvc, _frame(server, nucleus.self_addr, kind))
    bed.settle()
    assert nucleus.counters[FRAMES_OUT_OF_MODEL] == 1
    assert (ivc.state, nucleus.ip._by_lvc.get(ivc.lvc), ivc.peer_addr,
            _sent(bed)) == ("OPEN", ivc, peer, sent)
    assert not _ended_but_indexed(nucleus)
    assert client.ali.call(uadd, "echo", ECHO).values == {"n": 1, "text": "X"}
    assert nucleus.counters[IVC_CHAINED_OPENED] == 1
    assert _chained(client) is ivc


@pytest.mark.out_of_model
def test_an_open_ack_on_a_closed_circuit_is_dropped():
    bed = two_nets()
    client, server, _uadd = _called(bed, "apollo1")
    nucleus = client.nucleus
    ivc = _chained(client)
    nucleus.ip.close(ivc, "done")
    bed.settle()
    assert ivc.state == "CLOSED" and ivc.lvc not in nucleus.ip._by_lvc
    # A closed circuit is indexed no more, so no frame off the wire
    # finds it: its table is what refuses one.
    sent = _sent(bed)
    assert not step(ivc, "ivc-endpoint", "recv IVC_OPEN_ACK", nucleus.counters)
    assert (ivc.state, nucleus.counters[FRAMES_OUT_OF_MODEL], _sent(bed)) == (
        "CLOSED", 1, sent)
    # Closing it again releases nothing twice and takes no step.
    nucleus.ip.close(ivc, "again")
    assert ivc.state == "CLOSED"


@pytest.mark.out_of_model
def test_a_hello_on_an_open_outbound_lvc_is_dropped():
    bed = single_net()
    client, server, uadd = _called(bed, "vax1")
    nucleus = client.nucleus
    [ivc] = [ivc for ivc in nucleus.ip._by_lvc.values()
             if ivc.peer_addr == uadd]
    lvc = ivc.lvc
    assert not lvc.inbound and lvc.state == "OPEN"
    peer, sent = lvc.peer_addr, _sent(bed)
    nucleus.nd._on_raw(lvc, _frame(server, nucleus.self_addr, m.LVC_HELLO,
                                   src=make_uadd(4242)))
    bed.settle()
    assert nucleus.counters[FRAMES_OUT_OF_MODEL] == 1
    assert (lvc.state, lvc.peer_addr, nucleus.ip._by_lvc.get(lvc),
            ivc.peer_addr, _sent(bed)) == ("OPEN", peer, ivc, uadd, sent)
    opened = nucleus.counters[IVC_DIRECT_OPENED]
    assert client.ali.call(uadd, "echo", ECHO).values == {"n": 1, "text": "X"}
    assert nucleus.counters[IVC_DIRECT_OPENED] == opened
    assert nucleus.ip._by_lvc.get(lvc) is ivc


@pytest.mark.out_of_model
def test_a_hello_ack_on_an_inbound_lvc_awaiting_its_hello_is_dropped():
    bed = single_net()
    client, server, uadd = _called(bed, "vax1")
    nd = server.nucleus.nd
    known = set(nd._lvcs.values())
    channel = client.nucleus.nd.driver.connect(
        client.nucleus.process, nd.listen_blob, timeout=1.0)
    bed.settle()
    [lvc] = set(nd._lvcs.values()) - known
    assert lvc.inbound and lvc.state == "AWAIT_HELLO"
    sent = _sent(bed)
    nd._on_raw(lvc, _frame(client, uadd, m.LVC_HELLO_ACK))
    bed.settle()
    assert server.nucleus.counters[FRAMES_OUT_OF_MODEL] == 1
    assert (lvc.state, lvc.peer_addr, lvc.peer_mtype_name, _sent(bed)) == (
        "AWAIT_HELLO", None, "", sent)
    assert lvc not in server.nucleus.ip._by_lvc
    # The transport fault the table declares for AWAIT_HELLO ends it.
    channel.close()
    bed.settle()
    assert lvc.state == "CLOSED" and lvc not in nd._lvcs
    assert client.ali.call(uadd, "echo", ECHO).values == {"n": 1, "text": "X"}


@pytest.mark.out_of_model
def test_a_frame_before_the_hello_is_dropped():
    # An IVC_OPEN with a bad header checksum on an inbound gateway leg
    # that never said HELLO: the ND-Layer drops it before any layer
    # above acts on a peer it does not know (its close of the leg
    # would be a local close with no edge from AWAIT_HELLO).
    bed = two_nets()
    client = bed.module("client", "sun1")
    gateway = bed.gateways["gw1"]
    stack = gateway.stacks["ether0"]
    known = set(stack.nd._lvcs.values())
    channel = client.nucleus.nd.driver.connect(
        client.nucleus.process, stack.nd.listen_blob, timeout=1.0)
    bed.settle()
    [lvc] = set(stack.nd._lvcs.values()) - known
    frame = bytearray(client.nucleus.control(
        m.IVC_OPEN, client.nucleus.self_addr, "ivc_open",
        {"dst_network": "ring0", "src_mtype": "", "src_listen_blob": ""},
    ).encode())
    frame[47] ^= 1  # the header checksum word's last byte
    sent = _sent(bed)
    channel.send_message(bytes(frame))
    bed.settle()
    assert stack.counters[FRAMES_OUT_OF_MODEL] == 1
    assert (lvc.state, lvc.peer_addr, _sent(bed) - sent) == (
        "AWAIT_HELLO", None, 2)  # the frame and its acknowledgement
    assert not gateway._splices and lvc not in stack.ip._by_lvc
    channel.close()


def test_a_transport_fault_while_hello_sent_closes_the_lvc():
    # A listener that hangs up on the first frame it gets, the HELLO:
    # the fault reaches the opener in HELLO_SENT, an edge to CLOSED.
    bed = single_net()
    client, server, uadd = _called(bed, "vax1")
    listener = server.nucleus.nd.driver

    def hang_up_on_hello(channel):
        channel.set_message_handler(lambda raw: channel.close())

    blob = listener.listen(server.nucleus.process, hang_up_on_hello)
    nd = client.nucleus.nd
    known = set(nd._lvcs.values())
    with pytest.raises(AddressFault):
        nd.open_lvc(uadd, blob)
    assert set(nd._lvcs.values()) == known
    assert client.nucleus.counters[FRAMES_OUT_OF_MODEL] == 0


def test_a_local_event_with_no_edge_is_a_protocol_error():
    bed = single_net()
    client, _server, uadd = _called(bed, "vax1")
    [ivc] = [ivc for ivc in client.nucleus.ip._by_lvc.values()
             if ivc.peer_addr == uadd]
    with pytest.raises(ProtocolError):
        step(ivc.lvc, "lvc", "local accept")
    with pytest.raises(ProtocolError):
        step(ivc, "ivc-endpoint", "send IVC_OPEN")
    assert (ivc.state, ivc.lvc.state) == ("OPEN", "OPEN")
    assert client.nucleus.counters[FRAMES_OUT_OF_MODEL] == 0


KINDS = (m.LVC_HELLO, m.LVC_HELLO_ACK, m.IVC_OPEN_ACK, m.IVC_OPEN_NAK,
         m.IVC_CLOSE)


@pytest.mark.out_of_model
@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(KINDS), max_size=6))
def test_hostile_control_frames_take_an_edge_or_are_counted_and_dropped(
        kinds):
    bed = two_nets()
    client, server, uadd = _called(bed, "apollo1")
    nucleus = client.nucleus
    ivc = _chained(client)
    lvc = ivc.lvc
    for kind in kinds:
        event = f"recv {m.KIND_NAMES[kind]}"
        if kind in (m.LVC_HELLO, m.LVC_HELLO_ACK):
            machine, obj = "lvc", lvc
        elif lvc.state != "OPEN":
            # Every other kind is DATA to the LVC machine.
            machine, obj, event = "lvc", lvc, "recv DATA"
        else:
            # A frame on an LVC carrying no circuit has no IVC to step.
            machine = "ivc-endpoint"
            obj = ivc if nucleus.ip._by_lvc.get(lvc) is ivc else None
        state = obj.state if obj is not None else None
        dropped = obj is not None and event not in MACHINES[machine][state]
        before = nucleus.counters[FRAMES_OUT_OF_MODEL]
        nucleus.nd._on_raw(lvc, _frame(server, nucleus.self_addr, kind))
        assert nucleus.counters[FRAMES_OUT_OF_MODEL] - before == dropped
        if obj is not None:
            assert obj.state == MACHINES[machine][state].get(event, state)
    bed.settle()
    assert not _ended_but_indexed(nucleus)
    ended = ivc.state != "OPEN"
    try:
        reply = client.ali.call(uadd, "echo", ECHO)
    except NtcsError:
        assert ended
    else:
        assert reply.values == {"n": 1, "text": "X"}
        if not ended:
            assert nucleus.counters[IVC_CHAINED_OPENED] == 1
            assert _chained(client) is ivc


# ---------------------------------------------------------------------------
# A control body that does not decode is a malformed frame
# ---------------------------------------------------------------------------

def _garbled(sender, dst, kind, values):
    """A ``kind`` control frame whose header checksum holds but whose
    packed body's last byte, a field terminator, is flipped: it no
    longer decodes."""
    frame = bytearray(sender.nucleus.control(
        kind, dst, m.KIND_NAMES[kind].lower(), values).encode())
    frame[-1] ^= 1
    return bytes(frame)


def _fresh_lvc(client, stack):
    """An LVC from ``client`` to ``stack``'s listener, HELLO done: the
    two ends."""
    nd = stack.nd
    known = set(nd._lvcs.values())
    lvc = client.nucleus.nd.open_lvc(stack.self_addr, nd.listen_blob)
    [far] = set(nd._lvcs.values()) - known
    return lvc, far


def _hello_at_an_awaiting_lvc(bed):
    client, server, uadd = _called(bed, "vax1")
    nd = server.nucleus.nd
    known = set(nd._lvcs.values())
    client.nucleus.nd.driver.connect(
        client.nucleus.process, nd.listen_blob, timeout=1.0)
    bed.settle()
    [lvc] = set(nd._lvcs.values()) - known
    nucleus = client.nucleus
    return server.nucleus, lvc, _garbled(client, uadd, m.LVC_HELLO, {
        "mtype": nucleus.mtype.name, "listen_blob": nucleus.nd.listen_blob,
        "network": "ether0"})


def _open_at_an_endpoint(bed):
    client, server, uadd = _called(bed, "vax1")
    _lvc, far = _fresh_lvc(client, server.nucleus)
    return server.nucleus, far, _garbled(client, uadd, m.IVC_OPEN, {
        "dst_network": "ether0", "src_mtype": "vax",
        "src_listen_blob": client.nucleus.nd.listen_blob})


def _open_at_a_gateway(bed):
    client, server, uadd = _called(bed, "apollo1")
    stack = bed.gateways["gw1"].stacks["ether0"]
    _lvc, far = _fresh_lvc(client, stack)
    return stack, far, _garbled(client, uadd, m.IVC_OPEN, {
        "dst_network": "ring0", "src_mtype": "sun",
        "src_listen_blob": client.nucleus.nd.listen_blob})


def _answer_at_an_opening_circuit(kind, values):
    def build(bed):
        client, server, uadd = _called(bed, "apollo1")
        stack = bed.gateways["gw1"].stacks["ether0"]
        lvc, _far = _fresh_lvc(client, stack)
        # The first half of a chained open: the circuit is OPENING on
        # the leg, its IVC_OPEN not yet sent.
        ip = client.nucleus.ip
        ip._by_lvc[lvc] = Ivc(lvc, peer_addr=uadd, direct=False)
        return client.nucleus, lvc, _garbled(
            server, client.nucleus.self_addr, kind, values)
    return build


def _credit_at_an_open_circuit(kind, values):
    def build(bed):
        client, server, uadd = _called(bed, "vax1")
        [ivc] = [ivc for ivc in client.nucleus.ip._by_lvc.values()
                 if ivc.peer_addr == uadd]
        return client.nucleus, ivc.lvc, _garbled(
            server, client.nucleus.self_addr, kind, values)
    return build


@pytest.mark.parametrize("build, bed_of", [
    (_hello_at_an_awaiting_lvc, single_net),
    (_open_at_an_endpoint, single_net),
    (_open_at_a_gateway, two_nets),
    (_answer_at_an_opening_circuit(m.IVC_OPEN_ACK, {"dst_mtype": "vax"}),
     two_nets),
    (_answer_at_an_opening_circuit(m.IVC_OPEN_NAK, {"reason": "no"}),
     two_nets),
    (_credit_at_an_open_circuit(m.CREDIT_PROBE, {"sent": 1}), single_net),
    (_credit_at_an_open_circuit(m.CREDIT_GRANT,
                                {"consumed": 1, "window": 8}), single_net),
], ids=["lvc_hello", "ivc_open-endpoint", "ivc_open-gateway",
        "ivc_open_ack", "ivc_open_nak", "credit_probe", "credit_grant"])
def test_an_undecodable_control_body_is_malformed(build, bed_of):
    """Decoded before any step: a body that does not decode is counted
    in ``nd_malformed_messages`` and ends its LVC, as a header checksum
    mismatch does — nothing is raised into the network callback."""
    bed = bed_of()
    nucleus, lvc, frame = build(bed)
    before = nucleus.counters[ND_MALFORMED_MESSAGES]
    nucleus.nd._on_raw(lvc, frame)
    bed.settle()
    assert nucleus.counters[ND_MALFORMED_MESSAGES] - before == 1
    assert lvc.state == "CLOSED" and lvc not in nucleus.ip._by_lvc
    assert nucleus.counters[FRAMES_OUT_OF_MODEL] == 0


def test_an_undecodable_hello_ack_fails_the_open():
    # An LVC in HELLO_SENT whose answer does not decode: the open fails
    # as one that got no answer.
    bed = single_net()
    client, server, uadd = _called(bed, "vax1")
    nucleus = client.nucleus
    ack = _garbled(server, nucleus.self_addr, m.LVC_HELLO_ACK, {
        "mtype": "sun", "listen_blob": server.nucleus.nd.listen_blob})

    def answer_garbled(channel):
        channel.set_message_handler(lambda raw: channel.send_message(ack))

    listener = server.nucleus.nd.driver
    blob = listener.listen(server.nucleus.process, answer_garbled)
    known = set(nucleus.nd._lvcs.values())
    with pytest.raises(AddressFault):
        nucleus.nd.open_lvc(uadd, blob)
    assert set(nucleus.nd._lvcs.values()) == known
    assert nucleus.counters[ND_MALFORMED_MESSAGES] == 1


# ---------------------------------------------------------------------------
# Bounded edges run: the riders bound
# ---------------------------------------------------------------------------

def test_a_bounded_self_loop_is_refused_past_its_bound_per_stay():
    class Circuit:
        state = None

    circuit = Circuit()
    step(circuit, "ivc-endpoint", "send IVC_OPEN")
    assert step(circuit, "ivc-endpoint", "send DATA rides_open")
    assert not step(circuit, "ivc-endpoint", "send DATA rides_open")
    # An unbounded self-loop neither spends nor ends the stay.
    assert step(circuit, "ivc-endpoint", "recv DATA")
    assert (circuit.state, circuit.spent) == ("OPENING", 1)
    flow = Circuit()
    for _ in range(2):
        step(flow, "ivc-flow", "local credit_exhausted")
        assert [step(flow, "ivc-flow", "timeout FLOW_PROBE_TIMEOUT")
                for _ in range(4)] == [True, True, True, False]
        step(flow, "ivc-flow", "local give_up")
        assert flow.state == "READY"


def test_a_second_rider_is_refused_and_sends_nothing():
    bed = two_nets()
    client, server, uadd = _called(bed, "apollo1")
    stack = bed.gateways["gw1"].stacks["ether0"]
    lvc, _far = _fresh_lvc(client, stack)
    ivc = Ivc(lvc, peer_addr=uadd, direct=False)
    assert step(ivc, "ivc-endpoint", "send DATA rides_open")  # the first
    msg = m.Msg(kind=m.DATA, src=client.nucleus.self_addr, dst=uadd,
                flags=m.FLAG_REPLY_EXPECTED)
    entry = client.nucleus.registry.get_by_name("echo")
    sent = _sent(bed)
    assert client.nucleus.ip._ride(
        ivc, "apollo", msg, entry.sdef.type_id, ECHO) is None
    bed.settle()
    assert not msg.flags & m.FLAG_RIDES_OPEN and msg.body == b""
    assert (_sent(bed), ivc.state) == (sent, "OPENING")
