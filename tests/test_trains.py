"""Frame trains (PROTOCOL.md §13): the netsim coalesces back-to-back
frames into one delivery event.  That changes how many scheduler
events the data plane pays and how many acknowledgements the IPCSs
send — one range per connection per train — and nothing else.

Three layers of evidence:

* exact-pin ablation — ``train_max=1`` is one delivery event per
  frame, pinned exactly, and the default window keeps every
  application answer while strictly shrinking the event count (and,
  on a burst or a first call whose request rides its open, the ACK
  count);
* a property — delivered message sequences, send outcomes and every
  non-ACK frame on the wire are identical for ``train_max=1`` and
  every wider coalescing window under random *deterministic* chaos
  schedules (gateway crash/restart, drop_next) and flow-control
  stalls.  Probabilistic drops are deliberately excluded:
  ``FaultPlan.should_drop`` draws its seeded RNG per transmit, so any
  schedule that consumes randomness in event order is not comparable
  across windows — everything else must be;
* arrival order under a blocking handler — a train is handed up one
  frame at a time from a queue shared across re-entrant deliveries
  (the MBX IPCS's record queue, the TCP IPCS's reassembly buffer for
  stream chunks), so a handler that blocks mid-train while a second
  burst arrives still sees arrival order.
"""

from functools import partial
from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deployments import echo_server, single_net, two_nets
from repro.errors import SendWouldBlock
from repro.netsim import ChaosSchedule
from repro.netsim.network import Network
from repro.netsim.scheduler import Scheduler
from repro.ntcs.nucleus import NucleusConfig

# Every trace these tests put on a simulated wire steps the declared
# wire machines (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("wire_conformance")

# The per-frame schedule: total scheduler events and per-network wire
# frames for the 20-call echo workloads below.  ``train_max=1`` must
# reproduce these exactly; a wider window must keep the frames and
# shrink the events.  The frame counts date from before trains existed;
# the event counts moved once, 168 -> 114 and 338 -> 268, when a TCP
# stream chunk stopped costing a scheduler event of its own (PR 16).
# Both moved again, by the four frames of one ns_resolve_uadd round trip
# on the Ethernet, when the locate began to carry the destination's
# record (114 -> 110 events and frames, 268 -> 264 events, 150 -> 146
# Ethernet frames).
SINGLE_NET_OFF_EVENTS = 110
SINGLE_NET_FRAMES = 110
TWO_NETS_OFF_EVENTS = 264
TWO_NETS_ETHER_FRAMES = 146
TWO_NETS_RING_FRAMES = 118
# The default window sends every one of those frames but two ACKs per
# network: the first call's request rides its circuit's IVC_OPEN and its
# reply the IVC_OPEN_ACK (PROTOCOL.md §3), and each such pair arrives as
# one train with one range ACK.  (146/118 before requests rode opens.)
# A circuit's first frames ride its LVC_HELLO too, and answer in one
# train: 110 and 144/116 before.
SINGLE_NET_TRAINED_FRAMES = 108
TWO_NETS_TRAINED_ETHER_FRAMES = 143
TWO_NETS_TRAINED_RING_FRAMES = 114


def _echo_workload(make_bed, server_machine, train_max=64):
    bed = make_bed(config=NucleusConfig(train_max=train_max))
    echo_server(bed, "dest", server_machine)
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    answers = []
    for i in range(20):
        reply = client.ali.call(uadd, "echo", {"n": i, "text": f"m{i}"})
        answers.append((reply.values["n"], reply.values["text"]))
    bed.settle()
    return bed, answers


def _wire(bed):
    return {name: net.frames_sent for name, net in bed.networks.items()}


def _coalesced(bed):
    return sum(net.trains_coalesced for net in bed.networks.values())


# ---------------------------------------------------------------------------
# Exact-pin ablation: train_max=1 == one delivery event per frame
# ---------------------------------------------------------------------------

def test_ablation_single_net_reproduces_per_frame_schedule():
    bed, answers = _echo_workload(single_net, "sun1", train_max=1)
    assert bed.scheduler.events_processed == SINGLE_NET_OFF_EVENTS
    assert _wire(bed) == {"ether0": SINGLE_NET_FRAMES}
    assert _coalesced(bed) == 0
    assert answers == [(i, f"M{i}") for i in range(20)]


def test_ablation_two_nets_reproduces_per_frame_schedule():
    bed, answers = _echo_workload(two_nets, "apollo1", train_max=1)
    assert bed.scheduler.events_processed == TWO_NETS_OFF_EVENTS
    assert _wire(bed) == {"ether0": TWO_NETS_ETHER_FRAMES,
                          "ring0": TWO_NETS_RING_FRAMES}
    assert _coalesced(bed) == 0
    assert answers == [(i, f"M{i}") for i in range(20)]


def test_trains_on_same_wire_same_answers_fewer_events():
    """The §13 contract in one assertion set: the same wire frames but
    the ACKs a train gathers into one range, identical application
    answers, strictly fewer scheduler events, and at least one
    multi-frame delivery actually coalesced."""
    for make_bed, server, frames, off_events in (
            (single_net, "sun1", {"ether0": SINGLE_NET_TRAINED_FRAMES},
             SINGLE_NET_OFF_EVENTS),
            (two_nets, "apollo1", {"ether0": TWO_NETS_TRAINED_ETHER_FRAMES,
                                   "ring0": TWO_NETS_TRAINED_RING_FRAMES},
             TWO_NETS_OFF_EVENTS)):
        bed, answers = _echo_workload(make_bed, server)
        assert _wire(bed) == frames
        assert answers == [(i, f"M{i}") for i in range(20)]
        assert bed.scheduler.events_processed < off_events
        assert _coalesced(bed) > 0


def test_train_counters_account_the_batches():
    """A burst across the gateway coalesces into multi-frame delivery
    events while messages arrive complete and in order."""
    bed = two_nets()
    received = []
    sink = bed.module("ring.sink", "apollo1")
    sink.ali.set_request_handler(lambda msg: received.append(msg.values["a"]))
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("ring.sink")
    for i in range(60):
        src.ali.send(uadd, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    assert received == list(range(60))
    assert _coalesced(bed) > 0


# Wire frames of the 60-send gateway burst per coalescing window.  The
# per-frame count dates from before trains existed; the coalesced one
# moved 344 -> 226 (and its trains 33 -> 31) when each connection's
# share of an arrival train began to be acknowledged with one range ACK,
# and 226 -> 223 (events 46 -> 44) when circuits' first frames began to
# ride their LVC_HELLOs.
GATEWAY_BURST_FRAMES = {1: 344, 64: 223}


@pytest.mark.parametrize("train_max, events, trains", [
    (1, 298, 0),
    (64, 44, 31),
])
def test_gateway_burst_exact_events_and_trains(train_max, events, trains):
    """60 one-way sends across the gateway to a polling consumer: the
    scheduler events and wire frames the burst costs per coalescing
    window, pinned, with the delivered sequence the same in both.  Only
    acknowledgements differ between the windows: the per-frame schedule
    acknowledges every segment and record, a train each connection's
    share of it."""
    bed = two_nets(config=NucleusConfig(train_max=train_max))
    prod = bed.module("train.producer", "vax1")
    cons = bed.module("train.consumer", "apollo1")
    events_before = bed.scheduler.events_processed
    for i in range(60):
        prod.ali.send(cons.ali.uadd, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    received = []
    while cons.ali.queued():
        received.append(cons.ali.receive(timeout=5.0).values["a"])
    assert received == list(range(60))
    assert bed.scheduler.events_processed - events_before == events
    assert sum(_wire(bed).values()) == GATEWAY_BURST_FRAMES[train_max]
    assert _coalesced(bed) == trains


@pytest.mark.parametrize("senders, frames_each, off_events, on_events", [
    (1_000, 40, 41_000, 1_640),
    (10_000, 4, 50_000, 10_640),
])
def test_bare_netsim_fanin_events_per_window(senders, frames_each,
                                             off_events, on_events):
    """Fan-in on the bare substrate: senders spread over 32 instants
    each burst their frames at one sink.  Per-frame delivery costs one
    event per sender plus one per frame; coalescing costs one per
    sender plus one per train of up to 64 same-instant frames — 640
    trains either way, so the saving shrinks as the same frames spread
    over more senders."""
    for train_max, events, trains in ((1, off_events, 0),
                                      (64, on_events, 640)):
        sched = Scheduler()
        net = Network(sched, "fanin0", latency=0.0005)
        net.train_max = train_max
        delivered = count()
        net.attach("sink").bind_protocol("fanin", lambda _: next(delivered))

        def burst(iface):
            for _ in range(frames_each):
                iface.send("sink", "fanin", b"x" * 48, size=64)

        for i in range(senders):
            sched.schedule(0.001 * (i % 32),
                           partial(burst, net.attach(f"m{i}")))
        assert sched.run_until_idle() == events
        assert next(delivered) == senders * frames_each
        assert net.trains_coalesced == trains


# ---------------------------------------------------------------------------
# Property: delivery order is invariant under the coalescing window,
# deterministic chaos, and flow-control stalls
# ---------------------------------------------------------------------------

_ACKS = ("ACK", "MBX_PUT_ACK")
_SEQUENCED = ("DATA", "MBX_PUT")


def _record_wire_without_acks(bed):
    """Every non-ACK frame the bed transmits from now on, in transmit
    order: time, network, hosts, kind, sequence number, size and drop
    verdict."""
    frames = []
    for name, network in sorted(bed.networks.items()):
        def tap(datagram, size, dropped, name=name):
            kind = datagram.payload[0]
            if kind not in _ACKS:
                seq = datagram.payload[2] if kind in _SEQUENCED else "-"
                frames.append((bed.now, name, datagram.src_host,
                               datagram.dst_host, kind, seq, size, dropped))
        network.trace_hooks.append(tap)
    return frames


def _burst_observables(train_max, flow_window, crash_at_ms,
                       down_ms, drop_count, messages=18):
    """Everything an application can observe from a flood across the
    gateway: the delivered values in delivery order, plus every send
    outcome — and the wire minus its acknowledgements, the only frames
    a coalescing window may change.  The gateway is crashed and
    restarted on a fixed virtual schedule and ``drop_count`` frames are
    unconditionally dropped — both deterministic in event order, hence
    window-comparable."""
    bed = two_nets(config=NucleusConfig(
        train_max=train_max,
        flow_control_enabled=True, flow_window=flow_window,
        repair_max_attempts=8))
    wire = _record_wire_without_acks(bed)
    sink = bed.module("ring.sink", "apollo1")
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("ring.sink")
    if crash_at_ms is not None:
        bed.chaos(ChaosSchedule(seed=3)
                  .crash(bed.now + crash_at_ms / 1000.0, "gw1")
                  .restart(bed.now + (crash_at_ms + down_ms) / 1000.0, "gw1"))
    if drop_count:
        bed.networks["ether0"].faults.drop_next(drop_count)
    outcomes = []
    received = []

    def drain():
        while sink.ali.queued():
            received.append(sink.ali.receive(timeout=5.0).values["a"])

    for i in range(messages):
        for attempt in range(64):
            try:
                src.ali.send(uadd, "numbers", {"a": i, "b": 0, "big": 0},
                             block=False)
                outcomes.append(("sent", i))
                break
            except SendWouldBlock:
                outcomes.append(("blocked", i))
                bed.settle()
                drain()
        else:
            outcomes.append(("gave-up", i))
    bed.settle()
    drain()
    return received, outcomes, wire


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    train_max=st.integers(min_value=2, max_value=8),
    flow_window=st.integers(min_value=4, max_value=12),
    crash_at_ms=st.one_of(st.none(), st.integers(min_value=5, max_value=40)),
    down_ms=st.integers(min_value=20, max_value=80),
    drop_count=st.integers(min_value=0, max_value=3),
)
def test_train_delivery_order_equals_per_frame_order(
        train_max, flow_window, crash_at_ms, down_ms, drop_count):
    on = _burst_observables(train_max, flow_window,
                            crash_at_ms, down_ms, drop_count)
    off = _burst_observables(1, flow_window,
                             crash_at_ms, down_ms, drop_count)
    assert on == off


# ---------------------------------------------------------------------------
# Arrival order survives a handler that blocks mid-train
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_bed, sink_machine", [
    (single_net, "sun1"),      # tcp: each burst is one coalesced chunk
    (two_nets, "apollo1"),     # mbx behind gw1: each burst is one train
])
def test_arrival_order_survives_a_blocking_handler(make_bed, sink_machine):
    """The handler for message 0 blocks while a second burst arrives.
    Both bursts drain from one queue at their birth site, so the second
    burst is handed up behind the first one's remainder, not ahead of
    it (a per-delivery ``for frame in frames`` loop yields 0, 10..19,
    1..9)."""
    bed = make_bed()
    sink = bed.module("sink", sink_machine)
    started, blocked, overlapped = [], [], []

    def handle(msg):
        n = msg.values["a"]
        started.append(n)
        if n == 0:
            blocked.append(n)
            bed.scheduler.pump_until(lambda: False, timeout=0.005,
                                     what="slow handler")
            blocked.pop()
        elif blocked:
            overlapped.append(n)

    sink.ali.set_request_handler(handle)
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("sink")
    # Open the circuit first so the bursts below go out back to back.
    src.ali.send(uadd, "numbers", {"a": 99, "b": 0, "big": 0})
    bed.settle()
    assert started == [99]
    started.clear()

    for n in range(10):
        src.ali.send(uadd, "numbers", {"a": n, "b": 0, "big": 0})
    bed.scheduler.wait(0.0002)  # less than one path latency
    assert started == []
    for n in range(10, 20):
        src.ali.send(uadd, "numbers", {"a": n, "b": 0, "big": 0})
    bed.settle()

    assert started == list(range(20))
    assert any(n >= 10 for n in overlapped)
    assert _coalesced(bed) > 0
