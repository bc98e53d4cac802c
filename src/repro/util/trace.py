"""Layer tracing — the debugging aid Sec. 6.2 of the paper asks for.

The paper found that in a recursive, layered system "simple tracebacks
are largely inadequate.  One must also know *why* a layer is being
called, and *who* is calling it", with adequate *selectivity*.

A :class:`LayerTracer` records, for each layer entry/exit, the layer
name, the operation, the caller (the layer or module that invoked it),
the reason, and the current recursion depth.  Experiments E1 and E8 are
built directly on these records; selectivity is provided by per-layer
and per-operation filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Union

# A trace reason or wait label: the text itself, or a callable that
# builds it, so a hot path formats it only when it is read (a tracer is
# installed, or a wait deadlocks).
Label = Union[str, Callable[[], str]]


def label_text(label: Label) -> str:
    """The text of a :data:`Label`."""
    return label() if callable(label) else label


@dataclass(frozen=True)
class TraceRecord:
    """One layer entry or exit event.

    Attributes:
        time: virtual time of the event.
        module: name of the module whose ComMod/Nucleus is executing.
        layer: layer name ("ALI", "NSP", "LCM", "IP", "ND", ...).
        operation: what the layer was asked to do ("send", "open", ...).
        phase: "enter" or "exit".
        caller: who invoked the layer (layer name or "application").
        reason: why the layer is being called.
        depth: Nucleus recursion depth at the time of the event.
    """

    time: float
    module: str
    layer: str
    operation: str
    phase: str
    caller: str
    reason: str
    depth: int


class LayerTracer:
    """Collects :class:`TraceRecord` objects with optional selectivity.

    Args:
        clock: zero-argument callable returning the current virtual time.
        layers: if given, only these layer names are recorded.
        operations: if given, only these operations are recorded.
    """

    def __init__(
        self,
        clock: Callable[[], float] = lambda: 0.0,
        layers: Optional[Iterable[str]] = None,
        operations: Optional[Iterable[str]] = None,
    ):
        self._clock = clock
        self._layers = set(layers) if layers is not None else None
        self._operations = set(operations) if operations is not None else None
        self.records: List[TraceRecord] = []

    @property
    def enabled(self) -> bool:
        return True

    def _selected(self, layer: str, operation: str) -> bool:
        if self._layers is not None and layer not in self._layers:
            return False
        if self._operations is not None and operation not in self._operations:
            return False
        return True

    def record(
        self,
        module: str,
        layer: str,
        operation: str,
        phase: str,
        caller: str = "",
        reason: str = "",
        depth: int = 0,
    ) -> None:
        """Record one event, subject to the configured filters."""
        if not self._selected(layer, operation):
            return
        self.records.append(
            TraceRecord(
                time=self._clock(),
                module=module,
                layer=layer,
                operation=operation,
                phase=phase,
                caller=caller,
                reason=reason,
                depth=depth,
            )
        )

    def clear(self) -> None:
        """Discard all recorded events."""
        self.records.clear()

    def max_depth(self) -> int:
        """The deepest Nucleus recursion observed (0 if no records)."""
        return max((r.depth for r in self.records), default=0)

    def format(self) -> str:
        """Human-readable rendering, indented by recursion depth."""
        lines = []
        for r in self.records:
            indent = "  " * r.depth
            arrow = "->" if r.phase == "enter" else "<-"
            lines.append(
                f"{r.time:10.6f} {indent}{arrow} {r.module}:{r.layer}.{r.operation}"
                f" (caller={r.caller or '?'}, reason={r.reason or '-'})"
            )
        return "\n".join(lines)


class NullTracer:
    """A tracer that records nothing; the default when tracing is off."""

    records: List[TraceRecord] = []

    @property
    def enabled(self) -> bool:
        return False

    def record(self, *args, **kwargs) -> None:
        """No-op."""
        pass

    def clear(self) -> None:
        """Discard all recorded events."""
        pass

    def max_depth(self) -> int:
        """Always zero."""
        return 0

    def format(self) -> str:
        """Always the empty string."""
        return ""
