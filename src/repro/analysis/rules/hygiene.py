"""Exception-hygiene rules.

The Nucleus is passive and reentrant (Sec. 6): conditions must travel
as typed :mod:`repro.errors` exceptions to the layer that can handle
them.  A bare ``except:`` or a silently discarded NTCS error breaks
that chain invisibly; a mutable default argument is shared state
smuggled across calls — the classic source of irreproducible behavior
in long-lived server processes.

EXC001 (error)   bare ``except:`` (catches even KeyboardInterrupt and
                 the simulator's control-flow exceptions).
EXC002 (error)   a :mod:`repro.errors` exception caught and silently
                 dropped (handler body is only ``pass``/``...``).
                 Intentional best-effort drops must either record the
                 drop (counter/trace) or carry an explicit
                 ``# ntcslint: allow=EXC002`` pragma with a reason.
EXC003 (error)   mutable default argument (list/dict/set literal,
                 comprehension, or ``list()``/``dict()``/``set()`` call).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro import errors as errors_mod
from repro.analysis.engine import (
    SEVERITY_ERROR,
    Finding,
    ModuleInfo,
    Project,
    rule,
    terminal_name,
)

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque",
                  "defaultdict", "Counter", "OrderedDict"}


def _ntcs_error_names() -> Set[str]:
    """Every exception class exported by repro.errors, by class name."""
    return {
        name for name, obj in vars(errors_mod).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }


@rule(
    name="hygiene",
    ids=("EXC001", "EXC002", "EXC003"),
    description="no bare excepts, swallowed NTCS errors, or mutable defaults",
)
def check_hygiene(project: Project) -> Iterable[Finding]:
    """Emit EXC001–EXC003 findings for exception/default-arg hygiene."""
    error_names = _ntcs_error_names()
    findings: List[Finding] = []
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                findings.extend(_check_handler(module, node, error_names))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                findings.extend(_check_defaults(module, node))
    return findings


def _check_handler(module: ModuleInfo, node: ast.ExceptHandler,
                   error_names: Set[str]) -> Iterable[Finding]:
    if node.type is None:
        yield Finding(
            rule="EXC001", severity=SEVERITY_ERROR,
            path=str(module.path), line=node.lineno,
            message="bare except: catches everything, including "
                    "KeyboardInterrupt; name the exception",
        )
        return
    caught = _caught_ntcs_errors(node.type, error_names)
    if caught and _body_is_silent(node.body):
        yield Finding(
            rule="EXC002", severity=SEVERITY_ERROR,
            path=str(module.path), line=node.lineno,
            message=(f"{'/'.join(sorted(caught))} caught and silently "
                     f"dropped; record the drop or add an explicit "
                     f"'# ntcslint: allow=EXC002' pragma with a reason"),
        )


def _caught_ntcs_errors(type_node: ast.expr,
                        error_names: Set[str]) -> Set[str]:
    nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    return {terminal_name(node) for node in nodes} & error_names


def _body_is_silent(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and stmt.value.value is Ellipsis:
            continue
        return False
    return True


def _check_defaults(module: ModuleInfo, node) -> Iterable[Finding]:
    args = node.args
    for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
        if _is_mutable(default):
            fname = getattr(node, "name", "<lambda>")
            yield Finding(
                rule="EXC003", severity=SEVERITY_ERROR,
                path=str(module.path), line=default.lineno,
                message=(f"{fname}: mutable default argument is shared "
                         f"across calls; default to None and build inside"),
            )


def _is_mutable(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set,
                         ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        return name in _MUTABLE_CALLS
    return False
