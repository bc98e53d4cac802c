"""Performance rules: no per-frame scheduler events above the wire, no
per-datagram string formatting below it.

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
PERF002 (error) per-datagram note formatting: an f-string, ``%`` or
                ``.format`` expression passed as the ``note`` of a
                ``scheduler.post(...)``/``schedule(...)`` in a substrate
                module (:data:`_SUBSTRATE_MODULES`).  A note is read
                only from a debugger, and these modules schedule once
                per datagram or retransmission timer.  Pass a constant.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

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

# The substrate modules that schedule per datagram: the network's
# delivery post and every simulated IPCS (a prefix matches the package).
_SUBSTRATE_MODULES: Tuple[str, ...] = (
    "repro.netsim.network",
    "repro.ipcs.",
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


def _is_dispatch(node: ast.AST) -> bool:
    """True for a ``<scheduler>.post(...)`` / ``.schedule(...)`` call."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DISPATCH_METHODS
            and _is_scheduler_receiver(node.func.value))


def _note_of(call: ast.Call) -> Optional[ast.expr]:
    """The ``note`` argument of a dispatch call: the keyword, or the
    third positional (``post(delay, callback, note)``)."""
    for keyword in call.keywords:
        if keyword.arg == "note":
            return keyword.value
    return call.args[2] if len(call.args) > 2 else None


def _is_formatted(node: ast.expr) -> bool:
    """True when evaluating ``node`` formats a string: an f-string with
    a placeholder, ``"..." % x``, or ``"...".format(...)``."""
    if isinstance(node, ast.JoinedStr):
        return any(isinstance(part, ast.FormattedValue)
                   for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return isinstance(node.left, (ast.Constant, ast.JoinedStr))
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "format")


def _formatted_notes(module: ModuleInfo) -> Iterable[Finding]:
    """PERF002: dispatch calls whose note is formatted per call."""
    for node in ast.walk(module.tree):
        if not _is_dispatch(node):
            continue
        note = _note_of(node)
        if note is not None and _is_formatted(note):
            yield Finding(
                rule="PERF002", severity=SEVERITY_ERROR,
                path=str(module.path), line=node.lineno,
                message=(
                    f"scheduler.{node.func.attr}() note is formatted "
                    f"per call on the per-datagram path; pass a "
                    f"constant string"),
            )


def _per_frame_posts(module: ModuleInfo) -> Iterable[Finding]:
    """PERF001: dispatch calls inside a ``for``/``while`` loop."""
    seen: Set[Tuple[int, int]] = set()
    for loop in ast.walk(module.tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in ast.walk(loop):
            if not _is_dispatch(node):
                continue
            key = (node.lineno, node.col_offset)
            if key in seen:
                continue  # nested loops surface the call once
            seen.add(key)
            yield Finding(
                rule="PERF001", severity=SEVERITY_ERROR,
                path=str(module.path), line=node.lineno,
                message=(
                    f"per-frame scheduler.{node.func.attr}() inside a "
                    f"hot-path loop; handle the frame inline — the "
                    f"netsim owns the one delivery post per train "
                    f"(PROTOCOL.md §13)"),
            )


@rule(
    name="perf",
    ids=("PERF001", "PERF002"),
    description="data-plane hot paths post no per-frame scheduler "
                "events (no Scheduler.post loops); the substrate "
                "formats no per-datagram event notes",
)
def check_perf(project: Project) -> Iterable[Finding]:
    """Emit PERF001 findings for per-frame dispatch loops and PERF002
    findings for formatted event notes."""
    findings: List[Finding] = []
    for module in project.modules:
        if module.name in _HOT_PATH_MODULES:
            findings.extend(_per_frame_posts(module))
        if module.name.startswith(_SUBSTRATE_MODULES):
            findings.extend(_formatted_notes(module))
    return findings
