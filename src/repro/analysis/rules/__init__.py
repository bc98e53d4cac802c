"""Built-in ntcslint rule families.  Importing this package registers
them with the engine's rule registry."""

from repro.analysis.rules import (
    determinism, hygiene, layering, perf, protocol, sole_site,
)
# The model family (MDL rules) lives in its own subpackage — importing
# it here registers it with the same registry, so plain lint runs it.
from repro.analysis import model

__all__ = ["layering", "protocol", "determinism", "hygiene", "perf",
           "sole_site", "model"]
