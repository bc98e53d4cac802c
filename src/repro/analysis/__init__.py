"""ntcslint: static analysis of the NTCS reproduction's architecture.

The paper's guarantees are architectural — strict layering (Fig. 2-1),
reserved packed-mode type-id ranges (Sec. 5.2), a simulation driven
purely by virtual time, disciplined error propagation through the
passive Nucleus, and decisions PROTOCOL.md makes in one place.  This
package turns those conventions into machine-checked invariants: an
AST-based rule engine (:mod:`repro.analysis.engine`), a declarative
layer map (:mod:`repro.analysis.layermap`), the built-in rule families
(:mod:`repro.analysis.rules`, the sole-site table among them), and a
CLI (``python -m repro.analysis`` / ``ntcslint``).

Programmatic use::

    from repro.analysis import analyze
    findings = analyze(["src/repro"])          # [] when clean
"""

from repro.analysis.engine import (
    Finding,
    Project,
    all_rules,
    analyze,
    run_rules,
)
from repro.analysis.layermap import LAYERS, MODULE_OVERRIDES, layer_name, layer_of

__all__ = [
    "Finding",
    "Project",
    "analyze",
    "run_rules",
    "all_rules",
    "LAYERS",
    "MODULE_OVERRIDES",
    "layer_of",
    "layer_name",
]
