"""Command line of the repo benchmark.

Three ways in, all from the repo root:

``python3 -m bench_e2e --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  The last line of output
    is one JSON object: ``correct``, ``attempted``, ``failed`` and
    ``metrics`` (the end-to-end metrics untraced, the per-layer metrics
    traced).  This is the form ``BENCHMARK.json``'s ``command`` names.

``python3 -m bench_e2e [--seed N] [--runs K] [--smoke] [--out FILE]``
    The whole benchmark: every workload in its own fresh subprocess,
    one after another, K untraced runs and one traced run each; prints
    every metric by name with its unit.

``python3 -m bench_e2e --compare A.json B.json`` / ``--aa``
    Judge two result files by the bounds in ``BENCHMARK.json``;
    ``--aa`` produces both from the same tree first.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench_e2e import load_catalog


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 -m bench_e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload in-process",
                        choices=[w["name"] for w in load_catalog()["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/40 of the work, for the self-check")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload in suite mode")
    parser.add_argument("--out", help="write the suite's results here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--aa", action="store_true",
                        help="run the suite twice and compare the two")
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = _parser().parse_args(argv)
    # Imported late: a checkout without the program under test must
    # fail here, with a non-zero exit and no result line.
    from bench_e2e import suite

    if args.compare:
        with open(args.compare[0], encoding="utf-8") as fh_a, \
                open(args.compare[1], encoding="utf-8") as fh_b:
            return suite.compare(json.load(fh_a), json.load(fh_b))
    if args.workload is None:
        if args.aa:
            first = suite.run_suite(args.seed, args.runs, args.smoke)
            second = suite.run_suite(args.seed, args.runs, args.smoke)
            return suite.compare(first, second)
        results = suite.run_suite(args.seed, args.runs, args.smoke)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(results, fh, indent=1)
        return 0 if all(run["correct"] for run in results["runs"]) else 1

    from bench_e2e.harness import measure
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else load_catalog()["run_seconds"]
    result, detail = measure(args.workload, args.seed, seconds,
                             bool(args.trace), args.smoke)
    print("DETAIL " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
