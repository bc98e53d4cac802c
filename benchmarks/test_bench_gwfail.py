"""E6-gwfail — paper Sec. 4.3.

Gateway death: hop-by-hop IVC teardown propagation back to the
originator, detection latency, and recovery — which requires an
alternate route (a redundant gateway) or fails cleanly.
"""

import statistics

from deployments import chain_nets, echo_server, register_app_types
from repro import SUN3, Testbed, VAX
from repro.errors import DestinationUnavailable, NtcsError
from test_chaos import _gateway_kill_run

# Restart instants of the sweep: 100 to 498 ms after the schedule is
# made, in 2-ms steps (the crash comes at 5 ms).
RESTART_STEPS = [0.1 + step * 0.002 for step in range(200)]


def _teardown_metrics(hops, kill_index):
    """Kill gateway ``kill_index`` of a ``hops``-gateway chain."""
    bed = chain_nets(hops)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    client.ali.call(uadd, "echo", {"n": 0, "text": "warm"})

    faults_before = client.nucleus.counters["lcm_circuit_faults"]
    t0 = bed.now
    bed.gateways[f"gwm{kill_index}"].process.kill()
    bed.settle()
    detected = client.nucleus.counters["lcm_circuit_faults"] > faults_before
    detection_ms = (bed.now - t0) * 1000
    propagated = sum(gw.teardowns_propagated for gw in bed.gateways.values())
    try:
        client.ali.call(uadd, "echo", {"n": 1, "text": "after"}, timeout=1.0)
        outcome = "recovered (unexpected)"
    except DestinationUnavailable:
        outcome = "clean error (no alternate route)"
    return {
        "detected": detected,
        "detection_ms": detection_ms,
        "teardowns_propagated": propagated,
        "outcome": outcome,
    }


def _redundant_gateway_recovery():
    """Two parallel gateways between two networks: killing the one in
    use must let the originator re-establish through the other."""
    bed = Testbed()
    bed.network("net0", protocol="tcp")
    bed.network("net1", protocol="tcp")
    bed.machine("m0", VAX, networks=["net0"])
    bed.name_server("m0")
    bed.machine("gwa", SUN3, networks=["net0", "net1"])
    bed.machine("gwb", SUN3, networks=["net0", "net1"])
    gw_a = bed.gateway("gwa", prime_for=["net1"])
    gw_b = bed.gateway("gwb", prime_for=["net1"])  # redundant prime
    bed.machine("mEnd", VAX, networks=["net1"])
    register_app_types(bed)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    client.ali.call(uadd, "echo", {"n": 0, "text": "warm"})

    # Which gateway carried the circuit?
    used, spare = (gw_a, gw_b) if gw_a.circuits_established else (gw_b, gw_a)
    used.process.kill()
    bed.settle()
    t0 = bed.now
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "rerouted"})
    recovery_ms = (bed.now - t0) * 1000
    assert reply.values["text"] == "REROUTED"
    assert spare.circuits_established >= 1
    return recovery_ms


def _restart_sweep(victim):
    """Kill ``victim`` of the 3-gateway chain mid-conversation (chaos
    seed 5) and restart it at each of RESTART_STEPS: the number of
    conversations that failed, and for the rest the virtual ms from the
    restart to the conversation finished and the bed idle."""
    failed, repaired = 0, []
    for restart_after in RESTART_STEPS:
        try:
            bed, _client, _seen, engine = _gateway_kill_run(
                victim, seed=5, restart_after=restart_after)
        except NtcsError:
            failed += 1
            continue
        crashed_at = engine.applied[0][0]
        restarted_at = crashed_at - 0.005 + restart_after
        repaired.append((bed.now - restarted_at) * 1000)
    return failed, sorted(repaired)


def test_bench_gwfail(benchmark, report):
    rows = []
    for hops, kill_index in ((1, 0), (2, 0), (2, 1), (3, 1), (4, 2)):
        metrics = _teardown_metrics(hops, kill_index)
        rows.append((
            hops, kill_index, metrics["detected"],
            f"{metrics['detection_ms']:.2f}",
            metrics["teardowns_propagated"], metrics["outcome"],
        ))
        assert metrics["detected"]
    report.table(
        "E6-gwfail: middle-gateway death on a k-gateway chain",
        ["gateways", "killed index", "originator notified",
         "propagation virtual-ms", "teardowns propagated", "next call"],
        rows,
    )
    # Longer chains downstream of the kill propagate more teardowns.
    report.note(
        "The teardown walks hop-by-hop back to the originating module "
        "(Sec. 4.3); with no alternate route the next call fails with a "
        "clean error rather than hanging."
    )

    recovery_ms = _redundant_gateway_recovery()
    report.table(
        "E6-gwfail: recovery via a redundant parallel gateway",
        ["scenario", "recovery virtual-ms", "outcome"],
        [("kill the in-use gateway of a redundant pair",
          f"{recovery_ms:.2f}", "re-established via the spare")],
    )

    rows = []
    for victim in ("gwm0", "gwm1", "gwm2"):
        failed, repaired = _restart_sweep(victim)
        rows.append((
            victim, len(RESTART_STEPS), failed,
            f"{statistics.mean(repaired):.1f}",
            f"{statistics.median(repaired):.1f}",
            f"{repaired[int(len(repaired) * 0.9)]:.1f}",
            f"{repaired[-1]:.1f}",
        ))
    report.table(
        "E6-gwfail: kill and restart one gateway of a 3-gateway chain",
        ["gateway", "restart instants", "conversations failed",
         "mean virtual-ms after restart", "median", "p90", "max"],
        rows,
    )
    report.note(
        "Each instant kills the gateway mid-conversation and restarts it "
        "100 to 498 ms later in 2-ms steps; the time runs from the "
        "restart to the last call answered (LCM repair, PROTOCOL.md "
        "§10).  A failed conversation ended in a typed error: the "
        "restarted gateway, not yet registered, took a chained open "
        "and routed it to its own stale naming record."
    )

    benchmark.pedantic(lambda: _teardown_metrics(2, 1), rounds=3,
                       iterations=1)
