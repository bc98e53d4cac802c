"""The repo benchmark: real ALI traffic through the whole NTCS stack.

Four closed-loop workloads driven from one process and one thread,
measured from outside through public functions and public counters,
plus a separate traced run whose per-layer rows sum to the traced
end-to-end figure.  ``BENCHMARK.json`` at the repo root is the metric
catalogue (names, units, bounds); see ``README.md`` in this directory.

Run ``python3 -m bench_e2e --help`` from the repo root.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The program under test lives outside this package: the stack in
# ``src/repro`` and the canned deployments in ``tests/deployments.py``.
for _path in (os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def load_catalog() -> dict:
    """``BENCHMARK.json`` as a dict — the single source of metric
    names, units and regression bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)
