"""Measure one workload in this process.

The measured window is a run of equal *segments*, each a fixed number
of ops, repeated until at least ``MIN_SEGMENTS`` have run and
``seconds`` have passed.  Each wall metric is computed per segment and
summarised by the segments' *favourable quartile* (third quartile of a
rate, first of a latency), the median and the other quartile printed
beside it: on the 2-vCPU boxes this runs on, interference only ever
slows a segment down and comes in episodes of seconds, so the median
segment swings with the share of the window an episode covered while
the favourable quartile does not (README, "Steadiness").  The public
counters are read over exactly the first ``MIN_SEGMENTS`` segments — a
fixed op count — so every simulated count repeats bit for bit for one
seed however long the window ran.  The traced run measures that fixed
count untraced, then profiles a tenth of it, then records boundary
spans for 50 ops.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from collections import Counter
from typing import Dict, List, Tuple

from bench_e2e import HERE, load_catalog
from bench_e2e.trace import SpanTracer, profile_layers
from bench_e2e.workloads import GAUGES, PHASES, WORKLOADS, Workload

MIN_SEGMENTS = 20
SMOKE_MIN_SEGMENTS = 5
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Ops covered by the boundary-span sample.
SPAN_OPS = 50

RESULTS_DIR = os.path.join(HERE, "results")


def _set_up(cls, seed: int, smoke: bool) -> Workload:
    """Build, start servers, load data, warm up one segment."""
    workload = cls(seed, smoke)
    workload.build()
    _run_segment(workload, [])
    return workload


def _segment_units(workload: Workload) -> int:
    return workload.smoke_segment_units if workload.smoke \
        else workload.segment_units


def _run_segment(workload: Workload, latencies: List[float]) -> float:
    """Run one segment; append per-unit wall seconds; return its wall."""
    clock = time.perf_counter
    op = workload.op
    append = latencies.append
    started = clock()
    before = started
    for _ in range(_segment_units(workload)):
        op()
        now = clock()
        append(now - before)
        before = now
    workload.end_segment()
    return clock() - started


def _percentile(ordered: List[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, math.ceil(share * len(ordered)) - 1)]


def _delta(end: Counter, start: Counter) -> Counter:
    delta = Counter({name: end[name] - start[name] for name in end})
    for name in GAUGES:
        delta[name] = end[name]
    return delta


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counter_metrics(d: Counter, ops: int, payload: int,
                     virtual_s: float) -> Dict[str, float]:
    """The public-counter metrics over a window of ``ops`` ops."""
    kops = ops / 1000
    return {
        "netsim.virtual_ms_per_op": virtual_s * 1000 / ops,
        "netsim.sched_events_per_op": d["sched.events"] / ops,
        "netsim.wire_bytes_per_op": d["net.bytes_sent"] / ops,
        "netsim.payload_share": _ratio(payload, d["net.bytes_sent"]),
        "netsim.trains_coalesced_per_op": d["net.trains_coalesced"] / ops,
        "netsim.max_pump_depth": d["sched.max_pump_depth"],
        "ipcs.tcp_segments_per_op": d["tcp.segments"] / ops,
        "ipcs.tcp_retransmits_per_op": d["tcp.retransmits"] / ops,
        "ipcs.mbx_records_per_op": d["mbx.records"] / ops,
        "nd.messages_sent_per_op": d["nd_messages_sent"] / ops,
        "nd.train_frames_per_op": d["nd_train_frames"] / ops,
        "nd.rx_queue_high_water": d["lvc_rx_queue_high_water"],
        "ip.ivc_opens_per_op":
            (d["ivc_direct_opened"] + d["ivc_chained_opened"]) / ops,
        "ip.credit_stalls_per_kop": d["ip_credit_stalls"] / kops,
        "ip.credit_probes_per_kop": d["ip_credit_probes"] / kops,
        "ali.send_blocked_per_kop": d["ali_send_blocked"] / kops,
        "lcm.address_faults_per_op": d["lcm_address_faults"] / ops,
        "lcm.relocations_followed_per_op":
            d["lcm_relocations_followed"] / ops,
        "lcm.call_retries_per_op": d["lcm_call_retries"] / ops,
        "lcm.train_drains_per_op": d["lcm_train_drains"] / ops,
        "gateway.zero_copy_frames_per_op":
            d["gw.frames_forwarded_zero_copy"] / ops,
        "gateway.fast_path_share": _ratio(
            d["gw.frames_forwarded_zero_copy"], d["gw.messages_forwarded"]),
        "gateway.circuits_established_per_op":
            d["gw.circuits_established"] / ops,
        "gateway.train_splices_per_op": d["gw.train_splices"] / ops,
        "gateway.credit_drops_per_op":
            d["gw.credit_overruns_dropped"] / ops,
        "gateway.inter_gateway_control":
            d["gw.inter_gateway_control_messages"],
        "nsp.calls_per_op": d["nsp_calls"] / ops,
        "nsp.cache_hit_ratio": _ratio(
            d["nsp_cache_hits"], d["nsp_cache_hits"] + d["nsp_cache_misses"]),
        "nsp.shard_redirects_per_op": d["nsp_shard_redirects"] / ops,
        "nsp.failovers_per_op": d["ns_failovers"] / ops,
        "conversion.pack_calls_per_op": d["pack_calls"] / ops,
        "conversion.image_sends_per_op": d["image_sends"] / ops,
        "conversion.codec_cache_hit_ratio": _ratio(
            d["codec_cache_hits"],
            d["codec_cache_hits"] + d["codec_cache_misses"]),
        "realnet.kernel_events_per_op": d["rt.kernel_events"] / ops,
        "realnet.socket_bytes_per_op": d["rt.socket_bytes"] / ops,
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> Tuple[dict, dict]:
    """Run one workload; return ``(result, detail)``.

    ``result`` is the contract object (``correct``, ``attempted``,
    ``failed``, ``metrics``): the end-to-end metrics untraced, the
    per-layer metrics traced.  ``detail`` carries what is printed
    beside them but never gated: quartiles, tail latencies, failure
    types, the deterministic counts of the untraced run.
    """
    cls = WORKLOADS[name]
    min_segments = SMOKE_MIN_SEGMENTS if smoke else MIN_SEGMENTS
    setups: List[float] = []
    workload = None
    for _ in range(1 if trace or smoke else SETUPS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        started = time.perf_counter()
        workload = _set_up(cls, seed, smoke)
        setups.append(time.perf_counter() - started)
    try:
        return _measure(workload, setups, 0.0 if trace else seconds,
                        trace, min_segments)
    finally:
        workload.close()


def _measure(workload: Workload, setups: List[float], seconds: float,
             trace: bool, min_segments: int) -> Tuple[dict, dict]:
    gc.collect()
    walls: List[float] = []
    latencies: List[float] = []
    payloads: List[int] = []
    units = _segment_units(workload)
    to_us_per_op = 1e6 / workload.unit_ops
    segment_p50s: List[float] = []
    start_counters = workload.counters()
    start_virtual = workload.virtual_now()
    start_ops, start_payload = workload.ops, workload.payload_bytes
    window_started = time.perf_counter()
    while len(walls) < min_segments \
            or time.perf_counter() - window_started < seconds:
        before = workload.payload_bytes
        walls.append(_run_segment(workload, latencies))
        payloads.append(workload.payload_bytes - before)
        segment_p50s.append(
            statistics.median(latencies[-units:]) * to_us_per_op)
        if len(walls) == min_segments:
            fixed = _delta(workload.counters(), start_counters)
            fixed_ops = workload.ops - start_ops
            fixed_payload = workload.payload_bytes - start_payload
            fixed_virtual = (workload.virtual_now() or 0.0) \
                - (start_virtual or 0.0)

    segment_ops = units * workload.unit_ops
    # [first quartile, median, third quartile] across the segments.
    rates = statistics.quantiles(
        [segment_ops / wall for wall in walls], n=4)
    p50s = statistics.quantiles(segment_p50s, n=4)
    payload_rates = statistics.quantiles(
        [payload / wall / 1e6 for payload, wall in zip(payloads, walls)], n=4)
    counted = _counter_metrics(fixed, fixed_ops, fixed_payload, fixed_virtual)
    detail = {
        "workload": workload.name,
        "substrate": workload.substrate,
        "segments": len(walls),
        "segment_ops": segment_ops,
        "latency_samples": len(latencies),
        "ops_per_s_quartiles": rates,
        "wall_us_per_op_p50_quartiles": p50s,
        "payload_mb_per_s_quartiles": payload_rates,
        "virtual_time": start_virtual is not None,
        "virtual_ms_per_op": counted["netsim.virtual_ms_per_op"],
    }

    if trace:
        metrics = _traced(workload, counted,
                          sorted(lat * to_us_per_op for lat in latencies),
                          sum(walls) / (len(walls) * segment_ops) * 1e6,
                          max(1, min_segments // 10))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": rates[2],
            "wall_us_per_op_p50": p50s[0],
            "payload_mb_per_s": payload_rates[2],
            "wire_frames_per_op": fixed["wire_frames"] / fixed_ops,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail["setup_s_all"] = setups

    attempted = workload.ops - start_ops
    failed = sum(workload.failed.values())
    detail["failed_op_share"] = failed / attempted
    detail["failures"] = dict(workload.failed)
    if workload.first_failure:
        detail["first_failure"] = workload.first_failure
    catalog = load_catalog()
    unit_of = {m["name"]: m["unit"]
               for m in catalog["per_layer" if trace else "end_to_end"]}
    if set(unit_of) != set(metrics):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(unit_of) ^ set(metrics))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }
    return result, detail


def _traced(workload: Workload, counted: Dict[str, float],
            latencies_us: List[float], untraced_us_per_op: float,
            profiled_segments: int) -> Dict[str, float]:
    """The per-layer metrics: counters and tails of the untraced fixed
    window, then the profiled window, then the span sample."""
    metrics = dict(counted)
    metrics["ali.op_wall_us_p99"] = _percentile(latencies_us, 0.99)
    metrics["ali.op_wall_us_p999"] = _percentile(latencies_us, 0.999)
    for phase in PHASES:
        samples = workload.phases_us.get(phase)
        metrics[phase + "_p50"] = statistics.median(samples) if samples else 0.0

    def profiled() -> None:
        scratch: List[float] = []
        for _ in range(profiled_segments):
            _run_segment(workload, scratch)

    gc.collect()
    metrics.update(profile_layers(profiled, lambda: workload.ops))
    metrics["trace.overhead_ratio"] = \
        metrics["trace.wall_us_per_op"] / untraced_us_per_op

    tracer = SpanTracer(type(workload).op.__code__)

    def sampled() -> None:
        for _ in range(math.ceil(SPAN_OPS / workload.unit_ops)):
            workload.op()
        workload.end_segment()

    tracer.run(sampled)
    tracer.write_chrome_trace(
        os.path.join(RESULTS_DIR, f"trace_{workload.name}.json"))
    return metrics
