"""NTCS-internal control message bodies.

Control messages carry shift-mode headers (:mod:`repro.ntcs.message`)
and, when they need data fields at all, packed-mode bodies: "Any
necessary data field in an NTCS control message is built in packed
mode.  Since these data fields are relatively rare, this conversion
overhead is not bothersome" (Sec. 5.2).

Type ids 1–9 are reserved for Nucleus control bodies; 10–39 for the
naming service protocol; 40–63 for DRTS services; applications start at
:attr:`ConversionRegistry.FIRST_APPLICATION_TYPE_ID`.

:func:`step` runs the ND- and IP-Layer's declared machines: the one
place an LVC, an IVC or an IVC's credit ledger changes state, and the
one place a bounded edge's budget is spent.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.conversion import ConversionRegistry, Field, StructDef
from repro.errors import ProtocolError
from repro.util.counters import FRAMES_OUT_OF_MODEL

# Nucleus control-plane type ids.
T_LVC_HELLO = 1
T_LVC_HELLO_ACK = 2
T_IVC_OPEN = 3
T_IVC_OPEN_ACK = 4
T_IVC_OPEN_NAK = 5
T_IVC_CLOSE = 6
T_CREDIT_GRANT = 7
T_CREDIT_PROBE = 8

_STRUCTS = [
    # Exchanged during the channel open protocol (Sec. 3.3): each end
    # learns the peer's machine type and listening blob and caches them.
    StructDef("lvc_hello", T_LVC_HELLO, [
        Field("mtype", "char[16]"),
        Field("listen_blob", "char[96]"),
        Field("network", "char[24]"),
    ]),
    StructDef("lvc_hello_ack", T_LVC_HELLO_ACK, [
        Field("mtype", "char[16]"),
        Field("listen_blob", "char[96]"),
    ]),
    # Internet circuit establishment (Sec. 4.2).  Hop count rides in the
    # header aux word; the body carries what gateways route by.
    StructDef("ivc_open", T_IVC_OPEN, [
        Field("dst_network", "char[24]"),
        Field("src_mtype", "char[16]"),
        Field("src_listen_blob", "char[96]"),
    ]),
    StructDef("ivc_open_ack", T_IVC_OPEN_ACK, [
        Field("dst_mtype", "char[16]"),
    ]),
    StructDef("ivc_open_nak", T_IVC_OPEN_NAK, [
        Field("reason", "char[96]"),
    ]),
    StructDef("ivc_close", T_IVC_CLOSE, [
        Field("reason", "char[96]"),
    ]),
    # Flow control (PROTOCOL.md §12).  Credits normally piggyback in the
    # header aux word of DATA frames; these standalone bodies exist for
    # the demand-driven path — a stalled sender probes, the receiver
    # answers with an explicit grant.  Counters are cumulative
    # (sent-to-date / consumed-to-date), so redelivery is idempotent.
    StructDef("credit_grant", T_CREDIT_GRANT, [
        Field("consumed", "u32"),
        Field("window", "u32"),
    ]),
    StructDef("credit_probe", T_CREDIT_PROBE, [
        Field("sent", "u32"),
    ]),
]


def register_nucleus_types(registry: ConversionRegistry) -> None:
    """Install the Nucleus control structures into a registry."""
    for sdef in _STRUCTS:
        registry.register(sdef)


# Each declared machine compiled once, as {state: {event: next}}.  The
# None row enters an instance that has no state yet: the machine's
# entry edges, or, where it declares none, its initial state's edges.
MACHINES: Dict[str, Dict[Optional[str], Dict[str, str]]] = {}
# (machine, state, event) of each bounded self-loop -> its bound.
BOUNDS: Dict[Tuple[str, str, str], int] = {}


def compile_machines(decls, constants: Dict[str, object]) -> None:
    """Compile a module's ``PROTOCOL_MACHINES`` into :data:`MACHINES`,
    reading each ``bounded`` edge's bound from ``constants``, the
    declaring module's globals.  Only a self-loop is bounded."""
    for decl in decls:
        name = decl["name"]
        table = MACHINES[name] = {}
        for state, spec in decl["states"].items():
            edges = (spec or {}).get("edges", ())
            table[state] = {edge["event"]: edge["next"] for edge in edges}
            BOUNDS.update({(name, state, edge["event"]):
                           constants[edge["bounded"]]
                           for edge in edges if "bounded" in edge})
        table[None] = ({edge["event"]: edge["next"] for edge in decl["entry"]}
                       if "entry" in decl else table[decl["initial"]])


def step(obj, machine: str, event: str, counters=None) -> bool:
    """Move ``obj.state`` along ``machine``'s ``event`` edge, if any.  A
    bounded self-loop is refused (False) once taken its bound times in
    one stay in its state (``obj.spent`` counts).  A received frame with
    no edge is counted in ``counters`` and dropped, a finished machine
    (no edges) ignores a local event, any other local event raises
    :class:`~repro.errors.ProtocolError` (PROTOCOL.md §3)."""
    state = obj.state
    edges = MACHINES[machine][state]
    if event in edges:
        if edges[event] != state:
            obj.state = edges[event]
            obj.spent = 0
        elif (machine, state, event) in BOUNDS:
            if obj.spent >= BOUNDS[machine, state, event]:
                return False
            obj.spent += 1
        return True
    if event.startswith("recv"):
        counters[FRAMES_OUT_OF_MODEL] += 1
    elif edges:
        raise ProtocolError(f"{obj!r}: {machine} has no {event!r} edge")
    return False
