"""Property-based chaos: random fault schedules never corrupt delivery.

Hypothesis draws a seed, :func:`repro.netsim.chaos.random_schedule`
expands it into a fault schedule in which every fault heals before the
horizon, and the run must uphold the LCM delivery contract no matter
what was injected:

* every call either completes or raises a typed :class:`NtcsError` —
  never a bare Python exception, never a hang;
* per-sender ordering is preserved — the requests the server actually
  serves form a subsequence-free, strictly increasing prefix order;
* nothing is served twice (no duplicate deliveries);
* once every fault has healed, a final call always succeeds.

On failure the schedule JSON is printed, so the exact run replays with
``ChaosSchedule.from_json`` — the schedule, not the Hypothesis seed, is
the repro artifact.
"""

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deployments import chain_nets
from repro.errors import NtcsError
from repro.netsim import random_schedule
from repro.ntcs.nucleus import NucleusConfig

# Every trace these tests put on a simulated wire steps the declared
# wire machines (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("wire_conformance")

# One gateway between two networks: restartable, and partitionable on
# either side.  Small enough that 20 examples stay fast; rich enough
# that crashes, flaps, partitions and drops all hit the message path.
TOPOLOGY_NETWORKS = {
    "net0": ["m0", "gwm0"],
    "net1": ["gwm0", "mEnd"],
}
HORIZON = 2.0
CALLS = 5


def _run_schedule(seed: int):
    """One full chaos run; returns (schedule, served list, errors)."""
    config = NucleusConfig(chaos_seed=seed, repair_max_attempts=8)
    bed = chain_nets(1, config=config)
    server = bed.module("prop.echo", "mEnd")
    served = []

    def handle(request):
        if request.type_name == "echo" and request.reply_expected:
            served.append(request.values["n"])
            server.ali.reply(request, "echo", {
                "n": request.values["n"],
                "text": request.values["text"].upper(),
            })

    server.ali.set_request_handler(handle)
    client = bed.module("prop.client", "m0")
    uadd = client.ali.locate("prop.echo")

    schedule = random_schedule(
        seed, horizon=HORIZON,
        restartable=["gwm0"], networks=TOPOLOGY_NETWORKS,
    )
    bed.chaos(schedule)

    errors = []
    for i in range(CALLS):
        try:
            reply = client.ali.call(uadd, "echo",
                                    {"n": i, "text": "prop"}, timeout=60.0)
            assert reply.values["n"] == i, schedule.to_json()
        except NtcsError as exc:
            # Typed failure is an allowed outcome mid-chaos.
            errors.append((i, type(exc).__name__))
        bed.run_for(HORIZON / CALLS)
    # Past the horizon every fault has healed: the system must answer.
    bed.run_for(HORIZON)
    reply = client.ali.call(uadd, "echo",
                            {"n": CALLS, "text": "final"}, timeout=60.0)
    assert reply.values["text"] == "FINAL", schedule.to_json()
    bed.settle()
    return schedule, served, errors


def _record_failure(seed: int) -> str:
    """Persist the failing schedule's replay JSON (CI uploads the
    ``chaos-failures/`` directory as an artifact) and return it."""
    text = random_schedule(seed, horizon=HORIZON, restartable=["gwm0"],
                           networks=TOPOLOGY_NETWORKS).to_json(indent=2)
    out_dir = Path("chaos-failures")
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"schedule-{seed}.json").write_text(text + "\n")
    return text


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_fault_schedules_preserve_delivery_contract(seed):
    try:
        schedule, served, errors = _run_schedule(seed)
    except Exception:
        # Print (and persist) the replay artifact before Hypothesis
        # reports — the schedule JSON, not the Hypothesis seed, is what
        # reproduces the run.
        print("failing chaos schedule:", _record_failure(seed))
        raise
    context = schedule.to_json()
    # No duplicate deliveries, ever.
    assert len(served) == len(set(served)), context
    # Per-sender ordering: the server saw a strictly increasing
    # subsequence of what the client sent.
    assert served == sorted(served), context
    # The final post-heal call is in the served log exactly once.
    assert served.count(CALLS) == 1, context


def test_random_schedule_is_seed_deterministic():
    a = random_schedule(7, horizon=HORIZON, restartable=["gwm0"],
                        networks=TOPOLOGY_NETWORKS)
    b = random_schedule(7, horizon=HORIZON, restartable=["gwm0"],
                        networks=TOPOLOGY_NETWORKS)
    assert a.to_json() == b.to_json()
    c = random_schedule(8, horizon=HORIZON, restartable=["gwm0"],
                        networks=TOPOLOGY_NETWORKS)
    assert c.to_json() != a.to_json()


def test_random_schedule_heals_every_fault_before_horizon():
    for seed in range(12):
        schedule = random_schedule(seed, horizon=HORIZON,
                                   restartable=["gwm0"],
                                   networks=TOPOLOGY_NETWORKS, faults=4)
        open_faults = Counter()
        for event in schedule.sorted_events():
            assert event.at < HORIZON
            if event.op == "crash":
                open_faults[("m", event.target)] += 1
            elif event.op == "restart":
                open_faults[("m", event.target)] -= 1
            elif event.op == "link_down":
                open_faults[("l", event.target,
                             frozenset((event.args["a"], event.args["b"])))] += 1
            elif event.op == "link_up":
                open_faults[("l", event.target,
                             frozenset((event.args["a"], event.args["b"])))] -= 1
            elif event.op == "partition":
                open_faults[("p", event.target)] += 1
            elif event.op == "heal_partition":
                open_faults[("p", event.target)] = 0
        # drop_next self-heals (the budget drains); everything else
        # must balance out inside the horizon.
        assert not +open_faults
