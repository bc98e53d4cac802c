"""The whole benchmark, and the comparison of two of its results.

:func:`run_suite` runs every workload in its own fresh subprocess, one
after another (the load generator is one process and one thread; the
second core is left to the OS), and prints every metric by name with
its unit.  :func:`compare` judges two result sets by the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import List, Sequence, Tuple

from bench_e2e import ROOT, load_catalog
from bench_e2e.trace import LAYERS



def is_count(metric: dict) -> bool:
    """Whether a per-layer catalogue entry is a count (exact for one
    seed on virtual time) rather than a wall-clock measurement."""
    return metric["unit"] not in ("us", "us/op") \
        and not metric["name"].startswith("trace.")


def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> dict:
    command = [sys.executable, "-m", "bench_e2e", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    run = json.loads(lines[-1])
    run.update(workload=workload, seed=seed, trace=trace,
               detail=json.loads(lines[-2].removeprefix("DETAIL ")))
    return run


def run_suite(seed: int, runs: int, smoke: bool) -> dict:
    """Run ``runs`` untraced runs and one traced run of every workload
    and print the tables; returns the result set (JSON-serialisable)."""
    catalog = load_catalog()
    seconds = 0.0 if smoke else catalog["run_seconds"]
    results = {
        "stamp": {"machine": platform.platform(),
                  "processor": platform.machine(),
                  "python": platform.python_version(),
                  "nproc": os.cpu_count()},
        "seed": seed, "smoke": smoke, "runs": [],
    }
    for workload in (w["name"] for w in catalog["workloads"]):
        for trace in [0] * runs + [1]:
            print(f"running {workload} --seed {seed} --trace {trace} ...",
                  file=sys.stderr, flush=True)
            results["runs"].append(
                _child(workload, seed, seconds, trace, smoke))
    _print_report(catalog, results)
    return results


# -- reporting ----------------------------------------------------------------

def _values(results: dict, workload: str, trace: int,
            metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in results["runs"]
            if run["workload"] == workload and run["trace"] == trace]


def _summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """Median and quartiles; a single value stands for all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def _print_rows(title: str, workloads: List[str],
                rows: List[Tuple[str, str, List[str]]],
                width: int = 22) -> None:
    print(f"\n{title}")
    print(f"  {'metric':38s} {'unit':9s}"
          + "".join(f" {w:>{width}s}" for w in workloads))
    for name, unit, cells in rows:
        print(f"  {name:38s} {unit:9s}"
              + "".join(f" {cell:>{width}s}" for cell in cells))


def _print_report(catalog: dict, results: dict) -> None:
    workloads = [w["name"] for w in catalog["workloads"]]
    details = {(run["workload"], run["trace"]): run["detail"]
               for run in results["runs"]}
    stamp = results["stamp"]
    print(f"bench_e2e seed={results['seed']} smoke={results['smoke']} "
          f"python={stamp['python']} nproc={stamp['nproc']} "
          f"machine={stamp['machine']}")
    print("closed loop, one process, one thread; wall metrics are the "
          "favourable quartile of the segments")
    for workload in workloads:
        detail = details[workload, 0]
        print(f"  {workload}: {detail['substrate']}; {detail['segments']} "
              f"segments of {detail['segment_ops']} ops, "
              f"{detail['latency_samples']} latency samples")

    rows = []
    for metric in catalog["end_to_end"]:
        cells = []
        for workload in workloads:
            values = _values(results, workload, 0, metric["name"])
            median, q1, q3 = _summary(values)
            within = details[workload, 0].get(metric["name"] + "_quartiles")
            if len(values) < 2 and within:
                # One run: its own segments' quartiles and median.
                cells.append(f"{_fmt(median)} "
                             f"[{'|'.join(map(_fmt, within))}]")
            else:
                cells.append(f"{_fmt(median)} [{_fmt(q1)}-{_fmt(q3)}]"
                             if q1 != q3 else _fmt(median))
        rows.append((metric["name"], metric["unit"], cells))
    for extra, unit in (("failed_op_share", "ratio"),
                        ("virtual_ms_per_op", "ms/op")):
        rows.append((extra, unit, [
            _fmt(details[workload, 0][extra]) for workload in workloads]))
    _print_rows("END TO END (untraced; one run: value [q1|median|q3 of its "
                "segments]; several: median [q1-q3] of the runs)",
                workloads, rows, width=32)

    traced = {m["name"]: m["unit"] for m in catalog["per_layer"]}

    def traced_row(name: str) -> Tuple[str, str, List[str]]:
        return (name, traced[name], [
            _fmt(_values(results, w, 1, name)[0]) for w in workloads])

    table = [traced_row(f"{layer}.self_us_per_op") for layer in LAYERS]
    table.append(("sum of rows", "us/op", [
        _fmt(sum(_values(results, w, 1, f"{layer}.self_us_per_op")[0]
                 for layer in LAYERS)) for w in workloads]))
    table.extend(traced_row(name) for name in (
        "trace.wall_us_per_op", "trace.table_coverage",
        "trace.overhead_ratio"))
    _print_rows("LAYER TABLE (traced run; self time, C time booked to the "
                "calling layer; rows sum to trace.wall_us_per_op)",
                workloads, table)
    shown = {row[0] for row in table}
    _print_rows("PER-LAYER CALLS, ENTRY POINTS, PHASES AND COUNTERS "
                "(traced run; counters over the fixed untraced window)",
                workloads,
                [traced_row(name) for name in traced if name not in shown])
    for workload in workloads:
        failures = details[workload, 0]["failures"]
        if failures:
            print(f"\nFAILED OPS in {workload}: {failures}\n"
                  f"{details[workload, 0].get('first_failure', '')}")


# -- comparison ---------------------------------------------------------------

def _verdict(a: List[float], b: List[float], better: str,
             bound: float) -> Tuple[str, float]:
    """Judge side B against side A: ``(verdict, signed share by which
    B is worse)``."""
    median_a, q1_a, q3_a = _summary(a)
    median_b, q1_b, q3_b = _summary(b)
    worse = (median_b - median_a) / median_a
    if better == "higher":
        worse = -worse
    spread = max((q3_a - q1_a) / median_a, (q3_b - q1_b) / median_b)
    separated = max(a) < min(b) or max(b) < min(a)
    if spread > bound and not separated:
        return "unresolved", worse
    if abs(worse) <= bound:
        return "same", worse
    return ("worse" if worse > 0 else "better"), worse


def compare(a: dict, b: dict) -> int:
    """Print one row per (metric, workload); return 1 when any row is
    worse or a deterministic count differs, else 0."""
    catalog = load_catalog()
    same_seed = a["seed"] == b["seed"]
    bad = 0
    print(f"compare: A seed={a['seed']} B seed={b['seed']}"
          + ("" if same_seed else
             " (different seeds: counts are not required to be equal)"))
    print(f"  {'workload':22s} {'metric':38s} {'A median [q1-q3]':>30s} "
          f"{'B median [q1-q3]':>30s} {'B worse by':>11s}  verdict")

    def row(workload, name, va, vb, verdict, worse) -> None:
        def cell(values):
            median, q1, q3 = _summary(values)
            return f"{_fmt(median)} [{_fmt(q1)}-{_fmt(q3)}] n={len(values)}"
        print(f"  {workload:22s} {name:38s} {cell(va):>30s} {cell(vb):>30s} "
              f"{worse:>+10.1%}  {verdict}")

    for workload in (w["name"] for w in catalog["workloads"]):
        virtual = next(run["detail"]["virtual_time"] for run in a["runs"]
                       if run["workload"] == workload)
        for metric in catalog["end_to_end"]:
            va = _values(a, workload, 0, metric["name"])
            vb = _values(b, workload, 0, metric["name"])
            if metric["name"] == "wire_frames_per_op" and same_seed:
                verdict = "same" if set(va) == set(vb) else "differs"
                worse = (vb[0] - va[0]) / va[0]
            else:
                verdict, worse = _verdict(va, vb, metric["better"],
                                          metric["bound"])
            bad += verdict in ("worse", "differs")
            row(workload, metric["name"], va, vb, verdict, worse)
        if not (virtual and same_seed):
            continue
        # Per-layer times have no bound (read them off the tables);
        # per-layer counts must repeat exactly.
        for metric in filter(is_count, catalog["per_layer"]):
            name = metric["name"]
            va = _values(a, workload, 1, name)
            vb = _values(b, workload, 1, name)
            if va != vb:
                bad += 1
                row(workload, name, va, vb, "differs",
                    (vb[0] - va[0]) / va[0] if va[0] else float("inf"))
    print("verdict: " + ("no row worse" if not bad else f"{bad} rows worse "
                                                      "or different"))
    return 1 if bad else 0
