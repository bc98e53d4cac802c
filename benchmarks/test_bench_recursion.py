"""E8-recursion — paper Sec. 6.1.

The first-send scenario: how much recursive Nucleus work a single
application send triggers, as a function of which DRTS services are
enabled and whether the system is cold (first contact) or warm.
"""

from deployments import echo_server, single_net
from repro.drts.monitor import Monitor, enable_monitoring
from repro.drts.timeservice import TimeServer, enable_time_correction


def _scenario(monitoring, timing):
    """Metrics for a cold send and a warm send under one config."""
    bed = single_net()
    Monitor(bed.module("mon", "sun1", register=False))
    TimeServer(bed.module("time", "vax1", register=False))
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    nucleus = client.nucleus

    uadd = client.ali.locate("dest")
    # Instrument only now, so the cold send below carries the *first*
    # monitor/time traffic (locating the services, the sync exchange).
    if monitoring:
        enable_monitoring(client)
    if timing:
        enable_time_correction(client, refresh_interval=3600.0)

    def snapshot():
        return (nucleus.counters["nsp_calls"],
                nucleus.counters["nd_messages_sent"])

    nucleus.max_depth_seen = 0
    nsp0, msgs0 = snapshot()
    client.ali.call(uadd, "echo", {"n": 1, "text": "cold"})
    bed.settle()
    cold_depth = nucleus.max_depth_seen
    nsp1, msgs1 = snapshot()

    nucleus.max_depth_seen = 0
    client.ali.call(uadd, "echo", {"n": 2, "text": "warm"})
    bed.settle()
    warm_depth = nucleus.max_depth_seen
    nsp2, msgs2 = snapshot()

    return {
        "cold": (cold_depth, nsp1 - nsp0, msgs1 - msgs0),
        "warm": (warm_depth, nsp2 - nsp1, msgs2 - msgs1),
    }


def test_bench_recursion(benchmark, report):
    rows = []
    results = {}
    for monitoring in (False, True):
        for timing in (False, True):
            metrics = _scenario(monitoring, timing)
            results[(monitoring, timing)] = metrics
            for phase in ("cold", "warm"):
                depth, nsp, msgs = metrics[phase]
                rows.append((
                    "on" if monitoring else "off",
                    "on" if timing else "off",
                    phase, depth, nsp, msgs,
                ))
    report.table(
        "E8-recursion: one application send under the Sec. 6.1 scenario",
        ["monitoring", "time service", "phase", "max Nucleus depth",
         "NSP calls", "ND messages sent"],
        rows,
    )
    plain_cold = results[(False, False)]["cold"]
    full_cold = results[(True, True)]["cold"]
    plain_warm = results[(False, False)]["warm"]
    full_warm = results[(True, True)]["warm"]
    # Enabling the services deepens the recursion and multiplies the
    # messages behind one send (the paper's point).
    assert full_cold[0] > plain_cold[0]
    assert full_cold[2] > plain_cold[2]
    # Warm operation settles down: no further NSP calls.
    assert full_warm[1] == 0
    report.note(
        "A cold send with monitoring and time correction recursively "
        "locates the time server, runs a time exchange, locates the "
        "monitor, and ships monitor data — all before/after the "
        "application's own message (Sec. 6.1).  Each destination's "
        "location arrives with its locate (PROTOCOL.md §5), so no send "
        "asks the naming service where a located module is.  Warm sends "
        "reuse every cached address and circuit."
    )
    benchmark.pedantic(lambda: _scenario(True, True), rounds=3, iterations=1)
