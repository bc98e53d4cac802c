"""Performance rule: no per-datagram string formatting below the wire.

PERF002 (error) per-datagram note formatting: an f-string, ``%`` or
                ``.format`` expression passed as the ``note`` of a
                ``scheduler.schedule(...)``/``call_soon(...)`` in a
                substrate module (:data:`_SUBSTRATE_MODULES`).  A note
                is read only from a debugger, and these modules
                schedule once per datagram or retransmission timer.
                Pass a constant.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro.analysis.engine import (
    SEVERITY_ERROR,
    Finding,
    ModuleInfo,
    Project,
    rule,
    terminal_name,
)

# The substrate modules that schedule per datagram: the network's
# delivery event and every simulated IPCS (a prefix matches the package).
_SUBSTRATE_MODULES: Tuple[str, ...] = (
    "repro.netsim.network",
    "repro.ipcs.",
)

# The scheduler's two ways to queue an event, each mapped to the
# position of its ``note`` argument: ``schedule(delay, callback, note)``
# and ``call_soon(callback, note)``.
_DISPATCH_METHODS = {"schedule": 2, "call_soon": 1}


def _is_dispatch(node: ast.AST) -> bool:
    """True for a ``<scheduler>.schedule(...)`` / ``.call_soon(...)``
    call: the receiver is a bare ``scheduler`` or any attribute chain
    ending in ``.scheduler`` (``self.scheduler``, ``nucleus.scheduler``)."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DISPATCH_METHODS
            and terminal_name(node.func.value) == "scheduler")


def _note_of(call: ast.Call) -> Optional[ast.expr]:
    """The ``note`` argument of a dispatch call: the keyword, or the
    positional after the callback."""
    for keyword in call.keywords:
        if keyword.arg == "note":
            return keyword.value
    position = _DISPATCH_METHODS[call.func.attr]
    return call.args[position] if len(call.args) > position else None


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


@rule(
    name="perf",
    ids=("PERF002",),
    description="the substrate formats no per-datagram event notes",
)
def check_perf(project: Project) -> Iterable[Finding]:
    """Emit PERF002 findings for formatted event notes."""
    findings: List[Finding] = []
    for module in project.modules:
        if module.name.startswith(_SUBSTRATE_MODULES):
            findings.extend(_formatted_notes(module))
    return findings
