"""ntcsverify: the model stage of the analysis package.

Importing this package registers the ``model`` rule family (MDL001–
MDL005) with the ntcslint engine, so ``python -m repro.analysis`` and
``make lint`` run the model checks alongside the per-file rule
families.  The ``verify`` subcommand runs *only* this family and adds
trace conformance (TRC001–TRC003) on top: traces step the same
declared ``lvc`` and ``ivc-endpoint`` machines the MDL rules check.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.engine import Finding, Project, rule
from repro.analysis.model.checker import check_model
from repro.analysis.model.extractor import extract
from repro.analysis.model.ir import ProtocolModel
from repro.analysis.model.tracecheck import replay_trace, untaken_edges

__all__ = ["extract", "check_model", "replay_trace", "untaken_edges",
           "ProtocolModel"]


@rule(
    name="model",
    ids=("MDL001", "MDL002", "MDL003", "MDL004", "MDL005",
         "TRC001", "TRC002", "TRC003"),
    description="extracted protocol machines are complete, deadlock- and "
                "livelock-free; traces conform (verify --trace)",
)
def check_model_rule(project: Project) -> Iterable[Finding]:
    """Extract the protocol model and run the MDL rules over it.

    The TRC ids are registered here so they are filterable and known to
    the pragma checker, but they only fire from ``verify --trace`` —
    static analysis has no trace to replay.
    """
    return check_model(project, extract(project))
