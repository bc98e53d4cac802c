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
from repro.errors import SendWouldBlock
from repro.netsim.chaos import ChaosSchedule
from repro.ntcs import message as m
from repro.ntcs.flow import FlowState
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


@pytest.mark.parametrize("flow_on, peak, virtual_ms, credit", [
    (True, 16, 52.0, (5, 5, 0, 0, 10)),
    (False, 96, 27.0, (0, 0, 0, 0, 0)),
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
    """Above the high watermark a queued datagram is discarded at the
    receiver — truthfully counted — instead of buffered forever."""
    high = WINDOW // 2
    bed = single_net(config=_flow_config(flow_high_watermark=high))
    prod, cons, addr = _producer_consumer(bed, "vax1", "sun1")
    delivered = 0
    for i in range(WINDOW):
        if prod.ali.datagram(addr, "numbers", {"a": i, "b": 0, "big": 0}):
            delivered += 1
    bed.settle()
    assert delivered == WINDOW  # the sender had credit for all of them
    assert cons.ali.queued() == high
    assert cons.nucleus.counters[DROP_CONNECTIONLESS] == WINDOW - high


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
