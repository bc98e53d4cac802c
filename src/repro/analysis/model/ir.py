"""Intermediate representation for ntcsverify (the model stage).

The extractor (:mod:`repro.analysis.model.extractor`) populates a
:class:`ProtocolModel` from the parsed project; the checker
(:mod:`repro.analysis.model.checker`) runs the MDL rules over it; the
trace checker (:mod:`repro.analysis.model.tracecheck`) replays netsim
JSONL traces through the declared wire machines.

Three layers of fact live here:

* **messages** — every ``StructDef`` defined under the ``repro``
  package, joined with every *send site* (``call``/``send``/
  ``datagram``/``reply``/Nucleus ``control``/NSP ``_call``) and every
  *handler site* (``unpack_internal``, ``type_name`` comparisons,
  dispatch-dict keys, ``@handles`` annotations, kind dispatch);
* **machines** — declarative ``PROTOCOL_MACHINE`` literals in the
  source, and the ``step`` calls that run them; ``lvc`` and
  ``ivc-endpoint`` are also the model traces are replayed through;
* **kinds** — the ``KIND_NAMES`` wire kinds, each named by some edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

# Send-site classification (Site.kind for sends).
SEND_REQUEST = "request"      # call / call_async / NSP _call / _resolve
SEND_PLAIN = "send"           # lcm/ali send
SEND_DATAGRAM = "datagram"    # one-way, no reply expected
SEND_REPLY = "reply"          # reply() / handler-return tuple
SEND_INTERNAL = "internal"    # Nucleus.control frame body


@dataclass(frozen=True)
class Site:
    """One source location where a message is sent or handled."""

    module: str       # dotted module name
    path: str         # file path
    line: int
    kind: str         # send classification, or "handler" / "expect"


@dataclass
class MessageSpec:
    """One wire message: its StructDef plus every use site."""

    name: str
    type_id: Optional[int]
    module: str
    path: str
    line: int
    sends: List[Site] = field(default_factory=list)
    handlers: List[Site] = field(default_factory=list)
    expects: List[Site] = field(default_factory=list)   # reply consumption

    @property
    def is_request(self) -> bool:
        return any(s.kind == SEND_REQUEST for s in self.sends)

    @property
    def is_reply(self) -> bool:
        return (any(s.kind == SEND_REPLY for s in self.sends)
                or bool(self.expects))


@dataclass(frozen=True)
class Edge:
    """One transition of a declared protocol machine."""

    event: str                    # "recv X" / "send X" / "timeout t" / "local op"
    next: str
    bounded: Optional[str] = None  # names the budget bounding a retry loop
    progress: bool = False         # the loop does useful application work
    queue: Optional[str] = None    # "+q" (enqueue) or "-q" (drain)

    @property
    def is_timeout(self) -> bool:
        return self.event.startswith("timeout")

    @property
    def is_silent(self) -> bool:
        """A ``local`` or ``timeout`` edge: taken with no frame."""
        return self.event.split(" ", 1)[0] in ("local", "timeout")

    @property
    def kind(self) -> Optional[str]:
        """The wire kind a ``send``/``recv`` event names, else None."""
        verb, *words = self.event.split() or [""]
        return words[0] if verb in ("send", "recv") and words else None


@dataclass
class Machine:
    """One declared per-module protocol state machine."""

    name: str
    module: str
    path: str
    line: int
    initial: str
    terminal: Tuple[str, ...]
    states: Dict[str, dict] = field(default_factory=dict)  # name -> raw decl
    edges: Dict[str, List[Edge]] = field(default_factory=dict)
    waits: Set[str] = field(default_factory=set)
    # How an instance is entered from outside ("send IVC_OPEN" ->
    # OPENING); none means it starts in ``initial``.
    entry: List[Edge] = field(default_factory=list)
    # The module's integer constants that ``bounded`` edges name.
    bounds: Dict[str, int] = field(default_factory=dict)

    def all_edges(self) -> List[Edge]:
        """Every edge, the entry edges included."""
        return self.entry + [e for edges in self.edges.values()
                             for e in edges]


@dataclass
class KindTable:
    """A ``KIND_NAMES`` table: numeric wire kind -> name."""

    module: str
    path: str
    line: int
    names: Dict[int, str]


@dataclass
class ProtocolModel:
    """Everything the MDL rules and the trace checker consume."""

    messages: Dict[str, MessageSpec] = field(default_factory=dict)
    machines: List[Machine] = field(default_factory=list)
    kind_tables: List[KindTable] = field(default_factory=list)
    # step(obj, "machine", "event") literals: (path, line, machine, event)
    steps: List[Tuple[str, int, str, str]] = field(default_factory=list)
    # declaration parse problems: (module, path, line, message)
    errors: List[Tuple[str, str, int, str]] = field(default_factory=list)

    def by_type_id(self) -> Dict[int, MessageSpec]:
        """The message table keyed by wire type id (typed specs only)."""
        return {m.type_id: m for m in self.messages.values()
                if m.type_id is not None}
