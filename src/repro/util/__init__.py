"""Small shared utilities: deterministic id generation, layer tracing,
and counters used by the experiments."""

from repro.util.idgen import SequenceGenerator
from repro.util.trace import LayerTracer, TraceRecord, NullTracer
from repro.util.counters import Counters
from repro.util.seeds import derive_seed, derive_rng

__all__ = [
    "SequenceGenerator",
    "LayerTracer",
    "TraceRecord",
    "NullTracer",
    "Counters",
    "derive_seed",
    "derive_rng",
]
