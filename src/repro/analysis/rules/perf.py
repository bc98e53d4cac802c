"""Performance rules: no per-frame scheduler events above the wire.

The netsim coalesces back-to-back frames into one scheduled delivery
event per train (PROTOCOL.md §13) because one event per frame was the
dominant dispatch cost at scale.  A future edit that introduces a
per-frame ``Scheduler.post`` loop in the ND-Layer or gateway hot paths
silently undoes the optimisation while every golden stays green — the
wire is unchanged, only the event count regresses — so the shape
itself is machine-checked.

PERF001 (error) per-frame delivery dispatch: a ``scheduler.post(...)``
                or ``scheduler.schedule(...)`` call inside a ``for``/
                ``while`` loop in one of the hot-path modules
                (:data:`_HOT_PATH_MODULES`).  Handle each frame inline
                in its upcall; the netsim owns the only delivery post.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set, Tuple

from repro.analysis.engine import (
    SEVERITY_ERROR,
    Finding,
    ModuleInfo,
    Project,
    rule,
)

# The data-plane modules that must not post one event per frame.
_HOT_PATH_MODULES: Tuple[str, ...] = (
    "repro.ntcs.ndlayer",
    "repro.ntcs.gateway",
)

_DISPATCH_METHODS = ("post", "schedule")


def _is_scheduler_receiver(node: ast.expr) -> bool:
    """True when the call receiver is a scheduler: a bare ``scheduler``
    name or any attribute chain ending in ``.scheduler`` (e.g.
    ``self.scheduler``, ``nucleus.scheduler``)."""
    if isinstance(node, ast.Name):
        return node.id == "scheduler"
    if isinstance(node, ast.Attribute):
        return node.attr == "scheduler"
    return False


@rule(
    name="perf",
    ids=("PERF001",),
    description="data-plane hot paths post no per-frame scheduler "
                "events (no Scheduler.post loops)",
)
def check_perf(project: Project) -> Iterable[Finding]:
    """Emit PERF001 findings for per-frame dispatch loops."""
    findings: List[Finding] = []
    for module in project.modules:
        if module.name not in _HOT_PATH_MODULES:
            continue
        seen: Set[Tuple[int, int]] = set()
        for loop in ast.walk(module.tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in _DISPATCH_METHODS
                        and _is_scheduler_receiver(func.value)):
                    continue
                key = (node.lineno, node.col_offset)
                if key in seen:
                    continue  # nested loops surface the call once
                seen.add(key)
                findings.append(Finding(
                    rule="PERF001", severity=SEVERITY_ERROR,
                    path=str(module.path), line=node.lineno,
                    message=(
                        f"per-frame scheduler.{func.attr}() inside a "
                        f"hot-path loop; handle the frame inline — the "
                        f"netsim owns the one delivery post per train "
                        f"(PROTOCOL.md §13)"),
                ))
    return findings
