"""Layering rules: the paper's Fig. 2-1 stack, machine-checked.

LAY001 (error)   an import crosses layers in a forbidden direction —
                 e.g. an application importing an NTCS-internal layer,
                 the ALI veneer importing the ND-Layer, or the
                 simulated network importing the NTCS above it.
LAY002 (warning) a ``repro.*`` module is missing from the layer map —
                 new modules must be placed before they can be checked.

LAY003 (a naming message sent outside ``repro.naming``) is a row of the
sole-site table (:mod:`repro.analysis.rules.sole_site`).

The map itself lives in :mod:`repro.analysis.layermap`; every import
edge (module- and function-scope alike) is checked, so lazy imports
cannot smuggle an upward dependency.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.analysis.engine import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    Project,
    in_package,
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


def _fmt(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"
