"""Credit-based flow control and end-to-end backpressure (PROTOCOL.md §12).

The bounded-memory claim is the point: a fast producer against a slow
consumer must cap the per-LVC receive-queue depth at the credit window
— locally, and across gateway-spliced chains — while the
``flow_control_enabled=False`` ablation reproduces the old unbounded
buffering byte-for-byte on the wire (no credit kinds, no nonzero aux
words on DATA).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deployments import chain_nets, echo_server, single_net, two_nets
from repro.errors import ChannelClosed, DestinationUnavailable, SendWouldBlock
from repro.netsim.chaos import ChaosSchedule
from repro.ntcs import message as m
from repro.ntcs.flow import FlowState
from repro.ntcs.iplayer import FLOW_PROBE_RETRIES, IpLayer
from repro.ntcs.nucleus import NucleusConfig
from repro.util.counters import (
    ALI_SEND_BLOCKED,
    DROP_CONNECTIONLESS,
    IP_CREDIT_GRANTS,
    IP_CREDIT_PROBES,
    IP_CREDIT_RESYNCS,
    IP_CREDIT_STALLS,
    LVC_RX_QUEUE_HIGH_WATER,
)

# Every trace these tests put on a simulated wire steps the declared
# wire machines (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("wire_conformance")

WINDOW = 8


def _flow_config(**kwargs) -> NucleusConfig:
    return NucleusConfig(flow_window=WINDOW, **kwargs)


def _producer_consumer(bed, producer_machine: str, consumer_machine: str):
    prod = bed.module("flow.prod", producer_machine)
    cons = bed.module("flow.cons", consumer_machine)
    return prod, cons, cons.ali.uadd


def _flood(prod, addr, count: int) -> int:
    """Non-blocking sends until the window shuts; returns how many made
    it onto the wire."""
    sent = 0
    try:
        for i in range(count):
            prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0},
                          block=False)
            sent += 1
    except SendWouldBlock:
        return sent  # the refusal is the result under test
    return sent


# ---------------------------------------------------------------------------
# Bounded queue depth: the overload scenario
# ---------------------------------------------------------------------------

def test_overload_depth_capped_at_window():
    bed = single_net(config=_flow_config())
    prod, cons, addr = _producer_consumer(bed, "vax1", "sun1")
    sent = _flood(prod, addr, 5 * WINDOW)
    bed.settle()
    assert sent == WINDOW
    assert cons.ali.queued() == WINDOW
    assert cons.nucleus.counters[LVC_RX_QUEUE_HIGH_WATER] == WINDOW
    assert prod.nucleus.counters[ALI_SEND_BLOCKED] == 1


def test_flow_off_queue_grows_without_limit():
    bed = single_net(config=NucleusConfig(flow_control_enabled=False))
    prod, cons, addr = _producer_consumer(bed, "vax1", "sun1")
    for i in range(5 * WINDOW):
        prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    assert cons.ali.queued() == 5 * WINDOW
    assert prod.nucleus.counters[IP_CREDIT_STALLS] == 0
    assert cons.nucleus.counters[IP_CREDIT_GRANTS] == 0


def test_overload_bounded_across_gateway():
    """The acceptance scenario: producer and consumer on different
    networks, every frame squeezed through the gateway splice — depth
    still capped at the window, and the splice stays zero-copy."""
    bed = two_nets(config=_flow_config())
    prod, cons, addr = _producer_consumer(bed, "vax1", "apollo1")
    sent = _flood(prod, addr, 5 * WINDOW)
    bed.settle()
    assert sent == WINDOW
    assert cons.ali.queued() == WINDOW
    gw = bed.gateways["gw1"]
    assert gw.frames_forwarded_zero_copy > 0
    assert gw.credit_overruns_dropped == 0


CREDIT_COUNTERS = (IP_CREDIT_STALLS, IP_CREDIT_PROBES, IP_CREDIT_GRANTS,
                   IP_CREDIT_RESYNCS, ALI_SEND_BLOCKED)


# The producer's circuit sends its IVC_OPEN behind its LVC_HELLO
# (PROTOCOL.md §3), one round trip sooner: 52.0 and 27.0 virtual ms
# before.
@pytest.mark.parametrize("flow_on, peak, virtual_ms, credit", [
    (True, 16, 49.0, (5, 5, 0, 0, 10)),
    (False, 96, 24.0, (0, 0, 0, 0, 0)),
])
def test_overload_script_exact_cost(flow_on, peak, virtual_ms, credit):
    """The §12 overload script, pinned: 96 non-blocking sends through
    the gateway at window 16 against a consumer that drains only when
    the producer is refused — the worst polling-receiver shape.  Flow
    control holds the queue at the window for ~2x the virtual time;
    without it the whole backlog piles up and no credit traffic
    exists.  Counts and virtual time are deterministic per seed."""
    bed = two_nets(config=NucleusConfig(flow_control_enabled=flow_on,
                                        flow_window=16))
    prod, cons, addr = _producer_consumer(bed, "vax1", "apollo1")
    t0 = bed.now
    delivered = peak_queued = 0

    def drain():
        nonlocal delivered, peak_queued
        bed.settle()
        peak_queued = max(peak_queued, cons.ali.queued())
        while cons.ali.queued():
            cons.ali.receive(timeout=5.0)
            delivered += 1

    for i in range(96):
        values = {"a": i, "b": 0, "big": 0}
        try:
            prod.ali.send(addr, "numbers", values, block=False)
        except SendWouldBlock:
            drain()
            prod.ali.send(addr, "numbers", values)
    drain()
    assert delivered == 96
    assert peak_queued == peak
    if flow_on:  # the gauge is kept by the credit ledger only
        assert cons.nucleus.counters[LVC_RX_QUEUE_HIGH_WATER] == peak
    assert round((bed.now - t0) * 1000, 4) == virtual_ms
    assert tuple(prod.nucleus.counters[name]
                 for name in CREDIT_COUNTERS) == credit
    assert bed.gateways["gw1"].credit_overruns_dropped == 0


# ---------------------------------------------------------------------------
# The stall / probe / grant cycle
# ---------------------------------------------------------------------------

def test_blocking_send_stalls_probes_and_resumes():
    bed = single_net(config=_flow_config())
    prod, cons, addr = _producer_consumer(bed, "vax1", "sun1")
    assert _flood(prod, addr, 2 * WINDOW) == WINDOW
    bed.settle()
    # The consumer drains most of the queue — but demand-driven grants
    # mean no credit flows back until the stalled sender probes.
    for _ in range(WINDOW - 2):
        cons.ali.receive(timeout=1.0)
    prod.ali.send(addr, "numbers", {"a": 99, "b": 0, "big": 0})  # blocks
    bed.settle()
    assert prod.nucleus.counters[IP_CREDIT_STALLS] == 1
    assert prod.nucleus.counters[IP_CREDIT_PROBES] == 1
    assert cons.nucleus.counters[IP_CREDIT_GRANTS] == 1
    assert cons.ali.queued() == 3  # WINDOW - (WINDOW-2) consumed + 1 new


def test_a_peer_that_never_consumes_is_given_up_on_every_repair_round():
    """Each stall gives up after FLOW_PROBE_RETRIES probe rounds back to
    READY, so each of the LCM's 1 + repair_max_attempts rounds stalls
    the same circuit again before the send fails."""
    config = NucleusConfig(flow_window=2)
    bed = single_net(config=config)
    prod, cons, addr = _producer_consumer(bed, "vax1", "sun1")
    for i in range(2):
        prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0})
    with pytest.raises(DestinationUnavailable):
        prod.ali.send(addr, "numbers", {"a": 2, "b": 0, "big": 0})
    counters = prod.nucleus.counters
    rounds = 1 + config.repair_max_attempts
    assert (counters[IP_CREDIT_STALLS], counters[IP_CREDIT_PROBES]) == (
        rounds, rounds * FLOW_PROBE_RETRIES) == (5, 15)
    [ivc] = [ivc for ivc in prod.nucleus.ip._by_lvc.values()
             if ivc.peer_addr == addr]
    assert ivc.open and cons.ali.queued() == 2


def test_a_circuit_closed_under_a_stalled_sender_raises_channel_closed():
    """The stall's close edge: the circuit ends while its sender waits
    for credit, and the send leaves the stall as ChannelClosed."""
    bed = single_net(config=NucleusConfig(flow_window=2))
    prod, cons, addr = _producer_consumer(bed, "vax1", "sun1")
    for i in range(2):
        prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    ip = prod.nucleus.ip
    [ivc] = [ivc for ivc in ip._by_lvc.values() if ivc.peer_addr == addr]
    [far] = [far for far in cons.nucleus.ip._by_lvc.values()
             if far.peer_addr == prod.ali.uadd]
    bed.scheduler.schedule(
        0.5, lambda: cons.nucleus.ip.close(far, "consumer leaves"))
    msg = m.Msg(kind=m.DATA, src=prod.nucleus.self_addr, dst=addr)
    entry = prod.nucleus.registry.get_by_name("numbers")
    with pytest.raises(ChannelClosed):
        ip.send_values(ivc, msg, entry.sdef.type_id,
                       {"a": 2, "b": 0, "big": 0})
    assert (ivc.state, ivc.flow.state) == ("CLOSED", "CLOSED")
    assert prod.nucleus.counters[IP_CREDIT_PROBES] == 1


@pytest.mark.parametrize("arrivals", [
    [0.3], [2.3], [2.3, 5.3, 8.3, 11.3],
], ids=["in-round-1", "in-last-round", "every-3s"])
def test_a_nested_send_stalls_with_rounds_of_its_own(monkeypatch, arrivals):
    """A handler's send on the circuit its module is stalled on, run
    inside that stall, joins it (STALLED --local credit_exhausted-->
    STALLED) with a stay of its own: however late it joins, and however
    often, every stall on a peer that never consumes sends exactly
    FLOW_PROBE_RETRIES probes of its own, as the send beneath it does,
    and the outer send still fails after its own repair rounds."""
    own = []  # [circuit, probes] of each stall, innermost last
    ended = []
    send_probe, stall = IpLayer._send_probe, IpLayer._stall_for_credit

    def counted_probe(self, ivc, flow):
        own[-1][1] += 1
        send_probe(self, ivc, flow)

    def counted_stall(self, ivc, flow):
        own.append([ivc, 0])
        try:
            stall(self, ivc, flow)
        finally:
            ended.append(own.pop())

    monkeypatch.setattr(IpLayer, "_send_probe", counted_probe)
    monkeypatch.setattr(IpLayer, "_stall_for_credit", counted_stall)
    bed = single_net(config=NucleusConfig(flow_window=2))
    sink = bed.module("flow.sink", "sun1")
    prod = bed.module("flow.prod", "vax1")
    third = bed.module("flow.third", "vax1")
    failures = []

    def relay(request):
        try:
            prod.ali.send(sink.ali.uadd, "numbers", {"a": 9, "b": 0, "big": 0})
        except DestinationUnavailable as exc:
            failures.append(exc)

    prod.ali.set_request_handler(relay)
    for i in range(2):
        prod.ali.send(sink.ali.uadd, "numbers", {"a": i, "b": 0, "big": 0})
    for delay in arrivals:
        bed.scheduler.schedule(delay, lambda: third.ali.send(
            prod.ali.uadd, "numbers", {"a": 0, "b": 0, "big": 0}))
    with pytest.raises(DestinationUnavailable):
        prod.ali.send(sink.ali.uadd, "numbers", {"a": 2, "b": 0, "big": 0})
    assert len(failures) == len(arrivals)
    [ivc] = {ivc for ivc, _ in ended if ivc.peer_addr == sink.ali.uadd}
    probes = [n for stalled, n in ended if stalled is ivc]
    rounds = 1 + prod.nucleus.config.repair_max_attempts
    assert probes == [FLOW_PROBE_RETRIES] * rounds * (1 + len(arrivals))
    assert ivc.flow.state == "READY"


@pytest.mark.parametrize("nested", [False, True])
def test_nested_stall_counts_once(nested):
    """A handler's own stalling send, run while the producer's burst is
    parked for credit (the Sec. 6.1 re-entry), counts its stalls once:
    ``ali_send_blocked`` stays equal to ``ip_credit_stalls``."""
    bed = single_net(config=NucleusConfig(flow_window=2))
    sink1 = bed.module("flow.sink1", "sun1")
    sink2 = bed.module("flow.sink2", "sun1")
    for sink in (sink1, sink2):
        sink.ali.set_request_handler(lambda request: None)
    prod = bed.module("flow.prod", "vax1")

    def relay(request):
        for i in range(6):
            prod.ali.send(sink2.ali.uadd, "numbers", {"a": i, "b": 0, "big": 0})

    prod.ali.set_request_handler(relay)
    if nested:
        third = bed.module("flow.third", "vax1")
        third.ali.send(prod.ali.uadd, "numbers", {"a": 0, "b": 0, "big": 0})
    for i in range(6):
        prod.ali.send(sink1.ali.uadd, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    stalls = 4 if nested else 2
    assert prod.nucleus.counters[IP_CREDIT_STALLS] == stalls
    assert prod.nucleus.counters[ALI_SEND_BLOCKED] == stalls


def test_messages_survive_overload_in_order():
    """Backpressure pauses the producer but never loses or reorders:
    the producer floods until blocked, the consumer drains a batch, and
    the full stream arrives intact."""
    bed = single_net(config=_flow_config())
    prod, cons, addr = _producer_consumer(bed, "vax1", "sun1")
    received = []
    i = 0
    while i < 3 * WINDOW:
        try:
            prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0},
                          block=False)
        except SendWouldBlock:
            for _ in range(WINDOW // 2):
                received.append(cons.ali.receive(timeout=5.0).values["a"])
            # A blocking send probes its way back to credit.
            prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0})
        i += 1
    while len(received) < 3 * WINDOW:
        received.append(cons.ali.receive(timeout=5.0).values["a"])
    assert received == list(range(3 * WINDOW))
    assert prod.nucleus.counters[IP_CREDIT_STALLS] >= 1


# ---------------------------------------------------------------------------
# Connectionless traffic: drop, never stall
# ---------------------------------------------------------------------------

def test_datagram_dropped_at_zero_credit():
    bed = single_net(config=_flow_config())
    prod, cons, addr = _producer_consumer(bed, "vax1", "sun1")
    assert _flood(prod, addr, 2 * WINDOW) == WINDOW
    ok = prod.ali.datagram(addr, "numbers", {"a": 0, "b": 0, "big": 0})
    bed.settle()
    assert ok is False
    assert prod.nucleus.counters[DROP_CONNECTIONLESS] == 1
    assert prod.nucleus.counters["datagrams_dropped"] == 1
    assert cons.ali.queued() == WINDOW


def test_connectionless_overload_dropped_at_receiver():
    """Past a full window queued a datagram is discarded at the
    receiver — truthfully counted — instead of buffered forever.  Only
    a sender that keeps no ledger gets there."""
    bed = single_net(config=_flow_config())
    prod = bed.module("flow.prod", "vax1",
                      config=NucleusConfig(flow_control_enabled=False))
    cons = bed.module("flow.cons", "sun1")
    addr = cons.ali.uadd
    delivered = 0
    for i in range(2 * WINDOW):
        if prod.ali.datagram(addr, "numbers", {"a": i, "b": 0, "big": 0}):
            delivered += 1
    bed.settle()
    assert delivered == 2 * WINDOW  # the sender never holds one back
    assert cons.ali.queued() == WINDOW
    assert cons.nucleus.counters[DROP_CONNECTIONLESS] == WINDOW


def test_flow_off_receiver_answers_a_probe():
    """A receiver with flow control off keeps no ledger and never
    advertises: a flow-on sender spends its window, stalls and probes
    once, and the receiver's full grant (PROTOCOL.md §12) reopens the
    window for the rest of the stream."""
    bed = single_net(config=_flow_config())
    prod = bed.module("flow.prod", "vax1")
    cons = bed.module("flow.cons", "sun1",
                      config=NucleusConfig(flow_control_enabled=False))
    addr = cons.ali.uadd
    for i in range(2 * WINDOW):
        prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    assert prod.nucleus.counters[IP_CREDIT_STALLS] == 1
    assert prod.nucleus.counters[IP_CREDIT_PROBES] == 1
    assert cons.nucleus.counters[IP_CREDIT_GRANTS] == 1
    assert cons.ali.queued() == 2 * WINDOW


# ---------------------------------------------------------------------------
# Flow x chaos: crash, heal, resynchronize
# ---------------------------------------------------------------------------

def test_overload_stays_bounded_across_gateway_crash_and_heal():
    config = NucleusConfig(flow_window=WINDOW, chaos_seed=7,
                           repair_max_attempts=8)
    bed = chain_nets(2, config=config)
    prod, cons, addr = _producer_consumer(bed, "m0", "mEnd")
    prod.ali.send(addr, "numbers", {"a": 0, "b": 0, "big": 0})  # warm route
    bed.settle()
    schedule = (ChaosSchedule(seed=7)
                .crash(bed.now + 0.005, "gwm1")
                .restart(bed.now + 0.35, "gwm1"))
    bed.chaos(schedule)
    bed.run_for(0.01)  # the crash fires; the restart is still pending
    for i in range(1, 3 * WINDOW):
        try:
            prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0},
                          block=False)
        except SendWouldBlock:
            # Window spent: let the in-flight burst land, drain the
            # consumer, then push the same message through a blocking
            # send — its probe finds the advanced consumed count (or
            # the repair machinery rebuilds a crashed route first).
            bed.settle()
            while cons.ali.queued():
                cons.ali.receive(timeout=5.0)
            prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    assert prod.nucleus.counters["lcm_circuit_repairs"] >= 1
    # Bounded memory held right through the fault window: the repaired
    # circuit started a fresh ledger, no credit leaked across reopen.
    assert cons.nucleus.counters[LVC_RX_QUEUE_HIGH_WATER] <= WINDOW
    route = prod.nucleus.lcm._routes[addr]
    assert route.flow is not None
    assert 0 <= route.flow.credit <= WINDOW


def test_resync_probe_mints_no_credit_for_queued_messages():
    """After repair, a survived circuit probes — and the grant's loss
    reconciliation must *not* free credit for messages that are merely
    queued (unconsumed) at the receiver."""
    bed = single_net(config=_flow_config())
    prod, cons, addr = _producer_consumer(bed, "vax1", "sun1")
    assert _flood(prod, addr, 2 * WINDOW) == WINDOW
    bed.settle()
    ivc = prod.nucleus.lcm._routes[addr]
    assert ivc.flow.credit == 0
    prod.nucleus.ip.resync_credit(ivc)
    bed.settle()
    assert prod.nucleus.counters[IP_CREDIT_RESYNCS] == 1
    assert prod.nucleus.counters[IP_CREDIT_PROBES] == 1
    assert ivc.flow.credit == 0  # all 8 are queued, none consumed
    # ...but consuming them does free the window again.
    for _ in range(WINDOW):
        cons.ali.receive(timeout=1.0)
    prod.ali.send(addr, "numbers", {"a": 1, "b": 0, "big": 0})
    bed.settle()
    assert ivc.flow.credit >= 0


def test_fresh_reopen_skips_resync_probe():
    """A freshly reopened circuit (outstanding == 1, the message that
    completed the repair) carries a fresh ledger: resync must add no
    frames — that silence is what keeps the chaos pins exact."""
    bed = single_net(config=_flow_config())
    prod, cons, addr = _producer_consumer(bed, "vax1", "sun1")
    prod.ali.send(addr, "numbers", {"a": 0, "b": 0, "big": 0})
    bed.settle()
    ivc = prod.nucleus.lcm._routes[addr]
    assert ivc.flow.tx_sent - ivc.flow.tx_consumed_seen == 1
    prod.nucleus.ip.resync_credit(ivc)
    bed.settle()
    assert prod.nucleus.counters[IP_CREDIT_RESYNCS] == 0
    assert prod.nucleus.counters[IP_CREDIT_PROBES] == 0


# ---------------------------------------------------------------------------
# Ablation: flow off is byte-identical to the pre-flow wire
# ---------------------------------------------------------------------------

def _headers_in_blob(raw: bytes):
    """Every parseable NTCS header in one transport blob.  TCP segments
    carry a length prefix (and may batch frames), so scan for the magic
    word rather than assuming the frame starts the blob."""
    magic = b"NTCS"
    offset = raw.find(magic)
    while offset != -1:
        try:
            yield m.HeaderView(raw[offset:])
        except Exception:
            pass
        offset = raw.find(magic, offset + len(magic))


def _wire_kinds_and_aux(bed):
    """(credit-kind frames, nonzero-aux DATA frames, total frames) seen
    on every network of a traced run."""
    credit_kinds = 0
    data_nonzero_aux = 0
    total = 0
    for event in bed._trace_log.events:
        for blob in event["args"]["frames"]:
            for header in _headers_in_blob(bytes.fromhex(blob)):
                total += 1
                if header.kind in (m.CREDIT_GRANT, m.CREDIT_PROBE):
                    credit_kinds += 1
                if header.kind == m.DATA and header.aux != 0:
                    data_nonzero_aux += 1
    return credit_kinds, data_nonzero_aux, total


def _traced_echo_run(flow_enabled: bool):
    config = NucleusConfig(flow_control_enabled=flow_enabled)
    bed = chain_nets(2, config=config)
    bed._trace_log = bed.record_wire_trace()
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    answers = [
        client.ali.call(uadd, "echo", {"n": i, "text": f"m{i}"}).values["text"]
        for i in range(4)
    ]
    bed.settle()
    return bed, answers


def test_flow_off_wire_carries_no_credit_traffic():
    bed, answers = _traced_echo_run(flow_enabled=False)
    credit_kinds, data_nonzero_aux, total = _wire_kinds_and_aux(bed)
    assert answers == ["M0", "M1", "M2", "M3"]
    assert credit_kinds == 0
    assert data_nonzero_aux == 0
    assert total > 0


def test_flow_on_adds_no_frames_in_steady_state():
    """Demand-driven credits: piggybacked advertisements change only
    aux bytes, so a non-overloaded run has the *same frame count* with
    flow control on — which is why it can default to on without moving
    the E5 establishment-cost pins."""
    bed_off, answers_off = _traced_echo_run(flow_enabled=False)
    bed_on, answers_on = _traced_echo_run(flow_enabled=True)
    assert answers_on == answers_off
    kinds_off = _wire_kinds_and_aux(bed_off)
    kinds_on = _wire_kinds_and_aux(bed_on)
    assert kinds_on[2] == kinds_off[2]  # identical frame counts
    assert kinds_on[0] == 0             # and still zero credit frames
    assert kinds_on[1] > 0              # only aux piggybacks differ


# ---------------------------------------------------------------------------
# FlowState invariants (property-based)
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    window=st.integers(min_value=1, max_value=32),
    ops=st.lists(
        st.tuples(st.sampled_from(["send", "consume", "advertise",
                                   "dup_advertise", "reopen"]),
                  st.integers(min_value=0, max_value=4)),
        max_size=60,
    ),
)
def test_flowstate_credit_never_negative_never_leaks(window, ops):
    """Drive a sender/receiver ledger pair through arbitrary interleaved
    traffic, stale advertisement replays, and circuit reopens: credit
    stays within [0, window], queues never go negative, and a reopen
    restores the full window (no leak across circuits)."""
    tx, rx = FlowState(window), FlowState(window)
    last_grant = 0
    for op, arg in ops:
        if op == "send" and tx.credit > 0:
            tx.debit()
            rx.on_arrival(queued=True)
        elif op == "consume" and rx.rx_queued > 0:
            rx.on_consumed(from_queue=True)
        elif op == "advertise":
            last_grant = rx.advertised()
            tx.on_advertised(last_grant)
        elif op == "dup_advertise":
            # A duplicated/reordered stale grant must be a no-op.
            before = tx.credit
            tx.on_advertised(max(0, last_grant - arg))
            assert tx.credit == before
        elif op == "reopen":
            tx.reset()
            rx.reset()
            last_grant = 0
        assert 0 <= tx.credit <= tx.window
        assert rx.rx_queued >= 0
        assert rx.rx_consumed <= rx.rx_arrivals
    tx.reset()
    assert tx.credit == tx.window


@settings(max_examples=100, deadline=None)
@given(
    window=st.integers(min_value=1, max_value=16),
    sent=st.integers(min_value=0, max_value=16),
    lost=st.integers(min_value=0, max_value=16),
    consumed=st.integers(min_value=0, max_value=16),
)
def test_flowstate_loss_reconciliation_is_exact(window, sent, lost, consumed):
    """A probe teaches the receiver the peer's cumulative sent counter;
    its advertisement must refund exactly the lost frames — never the
    ones still queued."""
    sent = min(sent, window)
    lost = min(lost, sent)
    consumed = min(consumed, sent - lost)
    tx, rx = FlowState(window), FlowState(window)
    for _ in range(sent):
        tx.debit()
    for _ in range(sent - lost):
        rx.on_arrival(queued=True)
    for _ in range(consumed):
        rx.on_consumed(from_queue=True)
    rx.on_probe(tx.tx_sent)
    tx.on_advertised(rx.advertised())
    # Refunded: consumed + lost.  Still charged: the queued remainder.
    assert tx.credit == window - (sent - consumed - lost)
    assert 0 <= tx.credit <= window
