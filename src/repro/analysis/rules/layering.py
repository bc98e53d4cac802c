"""Layering rules: the paper's Fig. 2-1 stack, machine-checked.

LAY001 (error)   an import crosses layers in a forbidden direction —
                 e.g. an application importing an NTCS-internal layer,
                 the ALI veneer importing the ND-Layer, or the
                 simulated network importing the NTCS above it.
LAY002 (warning) a ``repro.*`` module is missing from the layer map —
                 new modules must be placed before they can be checked.
LAY003 (error)   a Name Service Protocol message sent from outside
                 ``repro.naming``: a string literal starting ``ns_`` as
                 the message type of a ``.call`` / ``.call_async`` /
                 ``.datagram`` / ``.send``.  "The NSP-Layer is the
                 single naming service access point for all layers
                 within the ComMod" (Sec. 2.4) — a hand-rolled send
                 knows one server where the NSP-Layer knows the fleet.

The map itself lives in :mod:`repro.analysis.layermap`; every import
edge (module- and function-scope alike) is checked, so lazy imports
cannot smuggle an upward dependency.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.analysis.engine import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    Project,
    in_package,
    literal_str,
    rule,
)
from repro.analysis.layermap import layer_of


@rule(
    name="layering",
    ids=("LAY001", "LAY002"),
    description="imports must respect the Fig. 2-1 layer stack",
)
def check_layering(project: Project) -> Iterable[Finding]:
    """Emit LAY001/LAY002 findings for the project's import graph."""
    findings: List[Finding] = []
    for module in project.modules:
        if not in_package(module.name, "repro"):
            continue
        src_layer = layer_of(module.name)
        if src_layer is None:
            findings.append(Finding(
                rule="LAY002", severity=SEVERITY_WARNING,
                path=str(module.path), line=1,
                message=(f"module {module.name!r} is not in the layer map; "
                         f"add it to repro.analysis.layermap"),
            ))
            continue
        for edge in project.imports_of(module):
            if not in_package(edge.target, "repro"):
                continue
            dst_layer = layer_of(edge.target)
            if dst_layer is None:
                # Reported once, at the unmapped module itself.
                continue
            if dst_layer.name not in src_layer.allowed:
                findings.append(Finding(
                    rule="LAY001", severity=SEVERITY_ERROR,
                    path=str(module.path), line=edge.line,
                    message=(f"{module.name} (layer {src_layer.name!r}) "
                             f"imports {edge.target} (layer {dst_layer.name!r}); "
                             f"layer {src_layer.name!r} may import only "
                             f"{_fmt(src_layer.allowed)}"),
                ))
    return findings


_SEND_METHODS = ("call", "call_async", "datagram", "send")


def _message_type(call: ast.Call) -> Optional[str]:
    """The literal message type of an LCM/ALI-style send
    (``<x>.send(dst, type_name, ...)``), or None."""
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr in _SEND_METHODS):
        return None
    node = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "type_name"), None)
    return literal_str(node)


@rule(
    name="naming-access",
    ids=("LAY003",),
    description="only the NSP-Layer speaks the Name Service Protocol "
                "(Sec. 2.4)",
)
def check_naming_access(project: Project) -> Iterable[Finding]:
    """Emit LAY003 for every ``ns_*`` send site outside repro.naming."""
    findings: List[Finding] = []
    for module in project.modules:
        if not in_package(module.name, "repro") \
                or in_package(module.name, "repro.naming"):
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            type_name = _message_type(node)
            if type_name is not None and type_name.startswith("ns_"):
                findings.append(Finding(
                    rule="LAY003", severity=SEVERITY_ERROR,
                    path=str(module.path), line=node.lineno,
                    message=(f"{module.name} sends naming message "
                             f"{type_name!r} itself; go through the "
                             f"NSP-Layer (nucleus.require_nsp()), the "
                             f"single naming service access point"),
                ))
    return findings


def _fmt(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"
