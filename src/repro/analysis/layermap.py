"""The declarative layer map: the paper's Fig. 2-1 stack as data.

Each :class:`Layer` names the modules it contains (exact names in
``MODULE_OVERRIDES``, package prefixes in ``prefixes``) and the layers
it may import from (its own layer is always allowed).  The layering
rule walks every import edge in the tree and reports any edge whose
target layer is not in the source layer's ``allowed`` set.

The stack, bottom to top (paper Sec. 2, Fig. 2-1):

====================  =====================================================
layer                 contents
====================  =====================================================
``foundation``        ``repro.errors``, ``repro.util`` — importable anywhere
``netsim``            the simulated physical network
``machine``           simulated machines, processes, clocks (the "OS")
``conversion``        data-conversion system (Sec. 5)
``ipcs``              native inter-process communication substrates
``ntcs_vocab``        shared NTCS vocabulary: addresses, wire messages,
                      control-body structs, well-known table
``protocols``         per-service wire structs (naming, DRTS, WM, URSA) —
                      packed-mode message definitions only (Sec. 5.2)
``nd``                ND-Layer: STD-IF + drivers (Sec. 2.2)
``ip``                IP-Layer: internetting (Sec. 2.2)
``lcm``               LCM-Layer: logical channel management (Sec. 2.3)
``nucleus``           the passive Nucleus assembling ND/IP/LCM
``gateway``           gateway modules (two stacks spliced; Sec. 4)
``nsp``               NSP-Layer / naming service (Sec. 3)
``ali``               ALI-Layer veneer — the ComMod (Sec. 2.1, 2.4)
``apps``              applications: WM, URSA, DRTS services — "to the
                      application, the ComMod is the NTCS"
``harness``           testbed wiring, deployment scripts, realnet
                      substrate, tools — may import anything
====================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Layer:
    """One stratum of the stack: its modules and its import rights."""

    name: str
    prefixes: Tuple[str, ...]
    allowed: FrozenSet[str]


def _layer(name: str, prefixes: Sequence[str], allowed: Sequence[str]) -> Layer:
    return Layer(name=name, prefixes=tuple(prefixes),
                 allowed=frozenset(allowed) | {name})


LAYERS: Tuple[Layer, ...] = (
    _layer("foundation", ["repro.errors", "repro.util"], []),
    _layer("netsim", ["repro.netsim"], ["foundation"]),
    _layer("machine", ["repro.machine"], ["foundation", "netsim"]),
    _layer("conversion", ["repro.conversion"], ["foundation", "machine"]),
    _layer("ipcs", ["repro.ipcs"], ["foundation", "netsim", "machine"]),
    _layer("ntcs_vocab", [], ["foundation", "conversion"]),
    _layer("protocols", [], ["foundation", "conversion", "ntcs_vocab"]),
    _layer("nd", ["repro.ntcs.drivers"],
           ["foundation", "machine", "conversion", "ipcs", "ntcs_vocab"]),
    _layer("ip", [], ["foundation", "conversion", "ntcs_vocab", "nd"]),
    _layer("lcm", [], ["foundation", "conversion", "ntcs_vocab", "ip"]),
    _layer("nucleus", [],
           ["foundation", "machine", "conversion", "ntcs_vocab",
            "nd", "ip", "lcm"]),
    _layer("gateway", [],
           ["foundation", "machine", "conversion", "ntcs_vocab",
            "nd", "ip", "lcm", "nucleus"]),
    _layer("nsp", ["repro.naming"],
           ["foundation", "machine", "conversion", "ntcs_vocab",
            "protocols", "lcm", "nucleus"]),
    _layer("ali", ["repro.commod"],
           ["foundation", "machine", "conversion", "ntcs_vocab",
            "protocols", "lcm", "nucleus", "nsp"]),
    _layer("apps", ["repro.wm", "repro.ursa", "repro.drts"],
           ["foundation", "machine", "conversion", "protocols",
            "nsp", "ali"]),
    _layer("harness",
           ["repro.realnet", "repro.tools", "repro.analysis"],
           [layer for layer in (
               "foundation", "netsim", "machine", "conversion", "ipcs",
               "ntcs_vocab", "protocols", "nd", "ip", "lcm", "nucleus",
               "gateway", "nsp", "ali", "apps")]),
)

# Exact-module assignments, consulted before the prefix rules.  These
# place the NTCS-internal stack (one module per paper layer), the
# per-service wire-struct modules, and the harness-level odd ones out
# (deployment/builder modules living inside app or substrate packages).
MODULE_OVERRIDES: Dict[str, str] = {
    # the NTCS package itself
    "repro.ntcs": "nucleus",
    "repro.ntcs.nucleus": "nucleus",
    "repro.ntcs.gateway": "gateway",
    "repro.ntcs.lcm": "lcm",
    "repro.ntcs.iplayer": "ip",
    "repro.ntcs.flow": "ip",
    "repro.ntcs.ndlayer": "nd",
    "repro.ntcs.stdif": "nd",
    # shared NTCS vocabulary
    "repro.ntcs.address": "ntcs_vocab",
    "repro.ntcs.message": "ntcs_vocab",
    "repro.ntcs.protocol": "ntcs_vocab",
    "repro.ntcs.wellknown": "ntcs_vocab",
    # per-service packed-mode wire structs (Sec. 5.2)
    "repro.naming.protocol": "protocols",
    "repro.drts.protocol": "protocols",
    "repro.wm.protocol": "protocols",
    "repro.ursa.protocol": "protocols",
    # harness-level modules living inside other packages
    "repro": "harness",
    "repro.testbed": "harness",
    "repro.ursa": "harness",        # package init re-exports deploy helpers
    "repro.ursa.deploy": "harness",
}

_BY_NAME: Dict[str, Layer] = {layer.name: layer for layer in LAYERS}


def layer_of(module: str) -> Optional[Layer]:
    """The layer a dotted module name belongs to, or None for modules
    outside the map (non-repro modules, stdlib, third party)."""
    if module in MODULE_OVERRIDES:
        return _BY_NAME[MODULE_OVERRIDES[module]]
    best: Optional[Layer] = None
    best_len = -1
    for layer in LAYERS:
        for prefix in layer.prefixes:
            if (module == prefix or module.startswith(prefix + ".")) \
                    and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


def layer_name(module: str) -> Optional[str]:
    """Convenience: the layer's name for a module, or None."""
    layer = layer_of(module)
    return layer.name if layer else None
