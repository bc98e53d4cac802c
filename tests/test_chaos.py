"""Chaos harness + circuit repair integration tests (PROTOCOL.md §10).

The paper claims applications "need not be aware of relocation,
failure, or reconfiguration" (Sec. 1).  These tests make failures
actually happen — gateway crashes mid-conversation, Name-Server crashes
during cold start and mid-batch, partitions during relocation — on a
deterministic schedule, and assert the conversation completes
transparently, without duplicate deliveries, and identically on every
run with the same chaos seed.
"""

import os

import pytest

from deployments import chain_nets, echo_server, register_app_types, single_net
from repro import SUN3, Testbed, VAX
from repro.errors import DestinationUnavailable, NtcsError, SimulationError
from repro.netsim import ChaosEngine, ChaosSchedule
from repro.ntcs.nucleus import NucleusConfig


def recording_echo(bed, name, machine):
    """An echo server that records every request body it serves —
    the duplicate-delivery detector."""
    commod = bed.module(name, machine)
    seen = []

    def handle(request):
        if request.type_name == "echo" and request.reply_expected:
            seen.append(request.values["n"])
            commod.ali.reply(request, "echo", {
                "n": request.values["n"],
                "text": request.values["text"].upper(),
            })

    commod.ali.set_request_handler(handle)
    return commod, seen


# CI sweeps the scripted scenarios across several chaos seeds; tests
# that pin *exact* values use literal seeds and ignore the offset.
SEED_OFFSET = int(os.environ.get("NTCS_CHAOS_SEED", "0"))


def _repair_config(seed: int) -> NucleusConfig:
    return NucleusConfig(chaos_seed=seed, repair_max_attempts=8)


# ---------------------------------------------------------------------------
# Tentpole: kill each gateway of the 3-gateway E5 chain mid-conversation
# ---------------------------------------------------------------------------

def _gateway_kill_run(victim: str, seed: int):
    """Warm a 3-gateway chain, crash ``victim`` mid-conversation with a
    scheduled restart, finish the conversation.  Returns observables."""
    bed = chain_nets(3, config=_repair_config(seed))
    server, seen = recording_echo(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    reply = client.ali.call(uadd, "echo", {"n": 0, "text": "warm"})
    assert reply.values["text"] == "WARM"

    schedule = (ChaosSchedule(seed=seed)
                .crash(bed.now + 0.005, victim)
                .restart(bed.now + 0.35, victim))
    engine = bed.chaos(schedule)
    bed.run_for(0.01)  # the crash fires; the restart is still pending

    for i in (1, 2, 3):
        reply = client.ali.call(uadd, "echo", {"n": i, "text": "mid"},
                                timeout=120.0)
        assert reply.values["text"] == "MID"
        assert reply.values["n"] == i
    bed.settle()
    assert engine.remaining() == 0
    return bed, client, seen, engine


@pytest.mark.parametrize("victim", ["gwm0", "gwm1", "gwm2"])
def test_kill_each_gateway_mid_conversation_repairs(victim):
    bed, client, seen, engine = _gateway_kill_run(victim, seed=5 + SEED_OFFSET)
    counters = client.nucleus.counters
    # The conversation completed only because the circuit was repaired.
    assert counters["lcm_circuit_repairs"] >= 1
    assert counters["ivc_reopen_attempts"] >= 1
    if victim == "gwm0":
        # Losing the first-hop gateway exhausts whole relocation rounds
        # (there is no surviving first hop until the restart), so the
        # outer backoff loop engages and the histogram records it.
        assert counters["repair_backoff_bucket_0"] >= 1
    # Zero duplicate deliveries: every request served exactly once, in
    # the order the client sent them.
    assert seen == [0, 1, 2, 3]
    # The E5 invariant survives crash and repair: gateways never talk
    # to each other on a control plane.
    for gw in bed.gateways.values():
        assert gw.inter_gateway_control_messages == 0
    # The chaos log shows exactly the scripted crash and restart.
    assert [(op, target) for _, op, target in engine.applied] == [
        ("crash", victim), ("restart", victim),
    ]


@pytest.mark.parametrize("victim", ["gwm0", "gwm1", "gwm2"])
def test_gateway_kill_run_is_bit_deterministic(victim):
    """Same chaos seed, same schedule → identical counters, identical
    service order, identical virtual end time."""
    runs = []
    for _ in range(2):
        bed, client, seen, engine = _gateway_kill_run(victim,
                                                      seed=9 + SEED_OFFSET)
        runs.append((
            dict(client.nucleus.counters.snapshot()),
            list(seen),
            [tuple(entry) for entry in engine.applied],
            bed.now,
        ))
    assert runs[0] == runs[1]


def test_gateway_kill_exact_counters_under_fixed_seed():
    """Pin the exact repair counters for one (victim, seed) point —
    any behavioral drift in the repair path shows up here first."""
    bed, client, seen, engine = _gateway_kill_run("gwm1", seed=5)
    counters = client.nucleus.counters
    assert seen == [0, 1, 2, 3]
    assert counters["lcm_circuit_repairs"] == 1
    assert counters["ivc_reopen_attempts"] == 2
    assert counters["lcm_duplicate_requests_suppressed"] == 0
    assert counters["ip_suspect_fallbacks"] == 2
    assert counters["lcm_circuit_faults"] == 1
    # The repair window: crash to conversation finished and bed idle,
    # in virtual time.
    crashed_at = engine.applied[0][0]
    assert round((bed.now - crashed_at) * 1000, 4) == 435.0


# ---------------------------------------------------------------------------
# Ablation: repair disabled reproduces the pre-repair fault behavior
# ---------------------------------------------------------------------------

def _no_repair_run(seed: int):
    config = NucleusConfig(chaos_seed=seed, repair_max_attempts=0)
    bed = chain_nets(3, config=config)
    server, seen = recording_echo(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    client.ali.call(uadd, "echo", {"n": 0, "text": "warm"})
    bed.chaos(ChaosSchedule(seed=seed).crash(bed.now + 0.005, "gwm1"))
    bed.run_for(0.01)
    with pytest.raises(DestinationUnavailable):
        client.ali.call(uadd, "echo", {"n": 1, "text": "mid"}, timeout=120.0)
    bed.settle()
    return dict(client.nucleus.counters.snapshot()), list(seen), bed.now


def test_repair_disabled_reproduces_pre_repair_faults():
    first = _no_repair_run(seed=5)
    second = _no_repair_run(seed=5)
    assert first == second
    counters, seen, _ = first
    # No repair was completed and no backoff round ever ran; the
    # (pre-existing) in-round reopen attempts still show as attempts.
    assert counters.get("lcm_circuit_repairs", 0) == 0
    assert counters.get("repair_backoff_bucket_0", 0) == 0
    assert seen == [0]


# ---------------------------------------------------------------------------
# Name-Server crash recovery
# ---------------------------------------------------------------------------

def test_ns_crash_during_cold_start_recovers():
    """The Name Server dies before a module's first registration; the
    cold start blocks in repair rounds until the scheduled restart,
    then completes — the module never sees the crash."""
    bed = single_net(config=_repair_config(seed=1))
    bed.chaos(ChaosSchedule(seed=1)
              .crash(bed.now + 0.005, "vax1")
              .restart(bed.now + 0.4, "vax1"))
    bed.run_for(0.01)  # NS is now down, restart pending
    server = echo_server(bed, "cold.echo", "sun1")  # registration repairs
    client = bed.module("cold.client", "sun1")
    uadd = client.ali.locate("cold.echo")
    reply = client.ali.call(uadd, "echo", {"n": 7, "text": "cold"})
    assert reply.values["text"] == "COLD"
    assert client.nucleus.counters["lcm_circuit_repairs"] \
        + server.nucleus.counters["lcm_circuit_repairs"] >= 1


def test_ns_restart_preserves_wellknown_identity():
    """The restarted Name Server must answer at the same UAdd and
    well-known binding (PROTOCOL.md §10's restart guard)."""
    bed = single_net(config=_repair_config(seed=3))
    old = bed.name_server_instance
    old_uadd, old_blob = old.uadd, old.listen_blob
    bed.machines["vax1"].crash()
    server = bed.restart_name_server()
    assert server.uadd == old_uadd
    assert server.listen_blob == old_blob
    client = bed.module("late.client", "sun1")  # registers post-restart
    assert client.ali.locate("name.server") == old_uadd


def test_ns_crash_during_resolve_batch_recovers():
    """The Name Server dies between a warmup and a batched resolution;
    the ``ns_resolve_batch`` call rides the same repair machinery."""
    bed = single_net(config=_repair_config(seed=2))
    for i in range(3):
        echo_server(bed, f"svc.{i}", "sun1")
    client = bed.module("batch.client", "sun1")
    bed.chaos(ChaosSchedule(seed=2)
              .crash(bed.now + 0.005, "vax1")
              .restart(bed.now + 0.3, "vax1"))
    bed.run_for(0.01)
    records = client.nucleus.nsp.resolve_batch(
        ["svc.0", "svc.1", "svc.2", "svc.missing"])
    assert records["svc.missing"] is None
    assert all(records[f"svc.{i}"] is not None for i in range(3))
    uadd = records["svc.1"].uadd
    assert client.ali.call(uadd, "echo",
                           {"n": 1, "text": "batch"}).values["text"] == "BATCH"


# ---------------------------------------------------------------------------
# Partition-then-heal during a relocation
# ---------------------------------------------------------------------------

def test_partition_then_heal_during_relocation():
    """A server relocates while the client is partitioned from the new
    host; repair rounds outlast the partition and the forwarding chase
    completes transparently after the heal."""
    bed = Testbed(config=_repair_config(seed=4))
    bed.network("ether0", protocol="tcp")
    bed.machine("vax1", VAX, networks=["ether0"])
    bed.machine("sun1", SUN3, networks=["ether0"])
    bed.machine("sun2", SUN3, networks=["ether0"])
    bed.name_server("vax1")
    register_app_types(bed)
    echo_server(bed, "mover", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("mover")
    client.ali.call(uadd, "echo", {"n": 0, "text": "before"})

    # Relocation: the old host crashes; a same-name replacement
    # registers on sun2 (supersession provides the forwarding address).
    bed.machines["sun1"].crash()
    echo_server(bed, "mover", "sun2")
    # Now cut the client off from the replacement.  The heal lands
    # after the first relocation round exhausts (~1s of connect
    # timeouts) so the outer repair loop demonstrably engages, but
    # well before the 8-round backoff budget (~10s) runs out.
    bed.chaos(ChaosSchedule(seed=4)
              .add(bed.now + 0.005, "partition", "ether0",
                   groups=[["vax1"], ["sun1", "sun2"]])
              .add(bed.now + 5.0, "heal_partition", "ether0"))
    bed.run_for(0.01)
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "moved"},
                            timeout=120.0)
    assert reply.values["text"] == "MOVED"
    counters = client.nucleus.counters
    assert counters["lcm_relocations_followed"] >= 1
    assert counters["lcm_circuit_repairs"] >= 1


# ---------------------------------------------------------------------------
# Schedule mechanics: JSON replay, validation, ordering
# ---------------------------------------------------------------------------

def test_schedule_json_round_trip():
    schedule = (ChaosSchedule(seed=11)
                .crash(0.5, "gw1")
                .restart(1.25, "gw1")
                .add(0.75, "partition", "net0",
                     groups=[["a", "b"], ["c"]])
                .add(0.9, "drop_next", "net0", count=3))
    clone = ChaosSchedule.from_json(schedule.to_json())
    assert clone.seed == 11
    assert [e.to_dict() for e in clone.events] \
        == [e.to_dict() for e in schedule.events]
    # Replays sort identically.
    assert [e.op for e in clone.sorted_events()] \
        == [e.op for e in schedule.sorted_events()] \
        == ["crash", "partition", "drop_next", "restart"]


def test_engine_rejects_unknown_targets_and_ops():
    bed = single_net()
    with pytest.raises(SimulationError):
        bed.chaos(ChaosSchedule().crash(0.1, "no.such.machine"))
    engine = ChaosEngine(bed.scheduler, ChaosSchedule().add(0.1, "warp", "vax1"))
    with pytest.raises(SimulationError):
        engine.install()


def test_engine_applies_events_in_time_order():
    bed = single_net()
    net = bed.networks["ether0"]
    engine = bed.chaos(ChaosSchedule()
                       .add(0.2, "drop_next", "ether0", count=1)
                       .add(0.1, "link_down", "ether0", a="vax1", b="sun1")
                       .add(0.3, "clear_faults", "ether0"))
    bed.run_for(0.15)
    assert net.faults.blocks("vax1", "sun1")
    bed.run_for(0.1)
    assert net.faults.pending_drops == 1
    bed.run_for(0.1)
    assert not net.faults.blocks("vax1", "sun1")
    assert net.faults.pending_drops == 0
    assert [op for _, op, _ in engine.applied] \
        == ["link_down", "drop_next", "clear_faults"]
