"""Experiment report generator.

Collects the tables the benches wrote to ``benchmarks/results/`` into a
single markdown report, so a fresh run of::

    pytest benchmarks/ --benchmark-only
    python -m repro.tools.report

yields an up-to-date ``EXPERIMENTS-RESULTS.md`` next to the results.
"""

from __future__ import annotations

import os
import sys
from datetime import datetime, timezone
from typing import Dict, List, Optional

# Experiment-id prefix -> (title, paper sections)
_EXPERIMENTS = [
    ("test_bench_layering", "E1-layering", "Figs. 2-1 … 2-4"),
    ("test_bench_naming", "E2-naming", "Secs. 3.2–3.3"),
    ("test_bench_tadds", "E3-tadds", "Sec. 3.4"),
    ("test_bench_reconfig", "E4-reconfig", "Sec. 3.5"),
    ("test_bench_internet", "E5-internet", "Secs. 4.1–4.2"),
    ("test_bench_gwfail", "E6-gwfail", "Sec. 4.3"),
    ("test_bench_conversion", "E7-conversion", "Sec. 5"),
    ("test_bench_shift_mode", "E7-conversion (ablation)", "Sec. 5.2"),
    ("test_bench_recursion", "E8-recursion", "Sec. 6.1"),
    ("test_bench_nsloop", "E9-nsloop", "Sec. 6.3"),
    ("test_bench_portability", "E10-portability", "Secs. 1, 2.2, 7"),
    ("test_bench_ursa", "E11-ursa", "Secs. 1.2, 7"),
    ("test_bench_timemon", "E12-timemon", "Secs. 1.3, 6.1"),
    ("test_bench_scale", "E13-scale", "Secs. 3.3, 4.2"),
]


def _results_dir(base: Optional[str] = None) -> str:
    if base is not None:
        return base
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(repo, "benchmarks", "results")


def collect_tables(results_dir: Optional[str] = None) -> Dict[str, List[str]]:
    """experiment id -> list of result-file texts (sorted by filename)."""
    directory = _results_dir(results_dir)
    grouped: Dict[str, List[str]] = {}
    if not os.path.isdir(directory):
        return grouped
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".txt"):
            continue
        for prefix, exp_id, _ in _EXPERIMENTS:
            if filename.startswith(prefix):
                with open(os.path.join(directory, filename)) as f:
                    grouped.setdefault(exp_id, []).append(f.read().strip())
                break
    return grouped


def compose_report(results_dir: Optional[str] = None,
                   now: Optional[str] = None) -> str:
    """The full markdown report as a string."""
    grouped = collect_tables(results_dir)
    stamp = now or datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M UTC")
    lines = [
        "# Experiment results (generated)",
        "",
        f"Generated {stamp} from `benchmarks/results/`.  Regenerate with:",
        "",
        "```",
        "pytest benchmarks/ --benchmark-only",
        "python -m repro.tools.report",
        "```",
        "",
        "Claim-by-claim commentary lives in EXPERIMENTS.md; these are the",
        "raw regenerated tables.",
        "",
    ]
    seen = set()
    for _, exp_id, sections in _EXPERIMENTS:
        if exp_id in seen or exp_id not in grouped:
            continue
        seen.add(exp_id)
        lines.append(f"## {exp_id}  ({sections})")
        lines.append("")
        for chunk in grouped[exp_id]:
            lines.append("```")
            lines.append(chunk)
            lines.append("```")
            lines.append("")
    missing = [exp_id for _, exp_id, _ in _EXPERIMENTS
               if exp_id not in seen]
    if missing:
        lines.append("## Missing results")
        lines.append("")
        lines.append("Run the benches to produce: " + ", ".join(
            sorted(set(missing))))
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: write the report (optional argv: output path)."""
    argv = argv if argv is not None else sys.argv[1:]
    out_path = argv[0] if argv else os.path.join(
        os.path.dirname(_results_dir()), "..", "EXPERIMENTS-RESULTS.md")
    report = compose_report()
    out_path = os.path.abspath(out_path)
    with open(out_path, "w") as f:
        f.write(report + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - thin CLI shim
    raise SystemExit(main())
