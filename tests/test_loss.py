"""Probabilistic loss as a measured regime (PROTOCOL.md §13).

One range ACK per connection per arrival train (the default window)
acknowledges a whole train at once, so losing that one datagram leaves
the whole train unacknowledged; the per-frame schedule
(``train_max = 1``) loses one single-segment ACK instead.  Recovery is
TCP's own: one timer per connection retransmits only the oldest
segment, a duplicate is answered with everything received so far, and
an acknowledgement sent while the receiver holds data past a hole names
the hole, which is retransmitted at once.  These pins record what that
costs on a fixed script: a 40-message one-way burst from the Ethernet
across the gateway to the Apollo ring, with seeded probabilistic loss on
the Ethernet (the ring's MBX does not retransmit, so loss there aborts
the connection instead of measuring recovery).

Each row pins, exactly: TCP segments retransmitted, wire frames on both
networks, datagrams the fault plan dropped, and two virtual instants
measured from the first send: the last delivery to the sink, and the
last frame on the wire (recovery over).  They are measurements, not
targets.  At p = 0.01 the single loss hits the range ACK of the whole
burst in the train window, and one retransmission of the oldest segment
recovers all 40 (a timer per segment retransmitted 40).  A second test
holds the train window to no worse than the per-frame schedule on every
column.  A third counts, over a fixed list of fault seeds at p = 0.2,
the runs that lose a message without raising any error: recovery that
gives up silently, the heavy-loss residue (ROADMAP).
"""

import pytest

from deployments import two_nets
from repro.netsim.faults import FaultPlan
from repro.ntcs.nucleus import NucleusConfig

# Every trace these tests put on a simulated wire steps the declared
# wire machines (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("wire_conformance")

BURST = 40


def _run_burst(p, train_max, fault_seed=None):
    """The burst at loss ``p`` on the Ethernet (its own fault plan, or a
    fresh ``FaultPlan(seed=fault_seed)``): what the sink received, and
    the recovery columns."""
    bed = two_nets(config=NucleusConfig(train_max=train_max))
    received, delivered_at = [], []

    def on_message(msg):
        received.append(msg.values["a"])
        delivered_at.append(bed.now)

    sink = bed.module("ring.sink", "apollo1")
    sink.ali.set_request_handler(on_message)
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("ring.sink")
    src.ali.send(uadd, "numbers", {"a": BURST, "b": 0, "big": 0})
    bed.settle()

    ether = bed.networks["ether0"]
    if fault_seed is not None:
        ether.faults = FaultPlan(seed=fault_seed)
    ether.faults.drop_probability = p
    tcp = [ipcs for machine in bed.machines.values()
           for ipcs in machine.ipcs_on("ether0")]
    wire_at = []
    for network in bed.networks.values():
        network.trace_hooks.append(
            lambda datagram, size, dropped: wire_at.append(bed.now))
    retransmitted = sum(ipcs.segments_retransmitted for ipcs in tcp)
    frames = sum(network.frames_sent for network in bed.networks.values())
    start = bed.now
    for i in range(BURST):
        src.ali.send(uadd, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()

    return received, {
        "retransmitted": sum(ipcs.segments_retransmitted for ipcs in tcp)
        - retransmitted,
        "frames": sum(network.frames_sent
                      for network in bed.networks.values()) - frames,
        "dropped": ether.faults.dropped,
        "delivered_s": delivered_at[-1] - start,
        "quiet_s": wire_at[-1] - start,
    }


def _burst_under_loss(p, train_max):
    received, columns = _run_burst(p, train_max)
    assert received == [BURST] + list(range(BURST))
    return columns


@pytest.mark.parametrize("p, train_max, retransmitted, frames, dropped, "
                         "delivered_s, quiet_s", [
    (0.01, 1, 1, 162, 1, 0.0015000000000000013, 0.010000000000000002),
    (0.01, 64, 1, 84, 1, 0.0015000000000000013, 0.010000000000000002),
    (0.05, 1, 1, 161, 2, 0.003500000000000003, 0.003500000000000003),
    (0.05, 64, 1, 89, 2, 0.003500000000000003, 0.003500000000000003),
])
def test_burst_under_loss_pinned(p, train_max, retransmitted, frames,
                                 dropped, delivered_s, quiet_s):
    """Every message arrives, in order, at both windows; the recovery
    each window paid is pinned."""
    assert _burst_under_loss(p, train_max) == {
        "retransmitted": retransmitted,
        "frames": frames,
        "dropped": dropped,
        "delivered_s": delivered_s,
        "quiet_s": quiet_s,
    }


@pytest.mark.parametrize("p", [0.01, 0.05])
def test_trains_recover_no_worse_than_the_per_frame_schedule(p):
    """A range ACK covers a whole train, yet losing one costs the train
    window no more than the per-frame schedule: no more retransmissions,
    wire frames, time to the last delivery or time to the last frame."""
    trains, per_frame = _burst_under_loss(p, 64), _burst_under_loss(p, 1)
    for column in ("retransmitted", "frames", "delivered_s", "quiet_s"):
        assert trains[column] <= per_frame[column], column


@pytest.mark.parametrize("train_max, silent_losses", [(1, 2), (64, 1)])
def test_heavy_loss_runs_that_lose_a_message_pinned(train_max,
                                                    silent_losses):
    """The burst at p = 0.2 under fault seeds 0..99, each window: how
    many runs end with a message missing at the sink although nothing
    raised.  A measurement, as the pins above are; recovery that never
    gives up silently takes both counts to 0."""
    lost = 0
    for seed in range(100):
        received, _ = _run_burst(0.2, train_max, fault_seed=seed)
        lost += bool(set(range(BURST)) - set(received))
    assert lost == silent_losses
