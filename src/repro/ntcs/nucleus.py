"""The Nucleus: the passive core bound with every NTCS module.

"Internally, the NTCS is designed around a single communication
Nucleus, which provides a fundamental set of protocols and access
points supporting all NTCS functions.  The Nucleus is bound with every
NTCS module, just as the ComMod is bound with every application module.
Both ... are completely passive; they do not exist as separate
processes" (Sec. 2.1).

One :class:`Nucleus` composes the three layers (ND, IP, LCM) over one
network driver, and carries the cross-layer state: the module's current
address (a TAdd until registration), the address cache, the well-known
table, recursion accounting (Sec. 6), and the hooks through which the
DRTS services — which are built *on top of* this very Nucleus — are
called back *by* it (time stamps, monitor data, error logging).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from repro.errors import (
    ConversionError, NameServerUnreachable, NtcsError, RecursionLimitExceeded)
from repro.machine.arch import MachineType, machine_type
from repro.machine.process import SimProcess
from repro.ntcs import message as m
from repro.ntcs.address import Address, AddressCache, TAddAllocator
from repro.ntcs.drivers import make_driver
from repro.ntcs.wellknown import WellKnownTable
from repro.util.counters import ERRORS_LOGGED, NUCLEUS, Counters
from repro.util.seeds import derive_rng
from repro.util.trace import Label, LayerTracer, NullTracer, label_text


@dataclass
class NucleusConfig:
    """Per-module NTCS configuration.

    Attributes:
        monitor_enabled: report send/recv events to the DRTS monitor.
        time_enabled: timestamp with the DRTS precision time corrector
            instead of the raw (drifting) machine clock.
        ns_fault_patch: the Sec. 6.3 fix in the LCM address-fault
            handler.  Turn off only to reproduce the runaway recursion.
        recursion_limit: maximum Nucleus re-entry depth — the
        reproduction's stand-in for the C stack limit.
        open_timeout / call_timeout: virtual-seconds deadlines.
        nsp_cache_enabled: the NSP-layer resolution cache and
            single-flight coalescing (PROTOCOL.md §9).  Off reproduces
            the uncached control plane message-for-message.
        repair_max_attempts: circuit-repair rounds the LCM send path
            runs after its per-round relocation attempts exhaust
            (PROTOCOL.md §10).  0 disables repair entirely, reproducing
            the pre-repair fault behavior message for message.
        chaos_seed: base seed for the per-module repair-jitter RNG
            (derived per process and network, so every module draws an
            independent but reproducible stream).
        flow_control_enabled: credit-based IVC flow control and
            end-to-end backpressure (PROTOCOL.md §12).  Off reproduces
            the unbounded pre-flow data plane byte-for-byte: no credit
            kinds on the wire, every DATA aux word zero.
        flow_window: end-to-end IVC window — unconsumed flow-debited
            messages a sender may have outstanding before it stalls.
            It is also the receive-queue depth per LVC above which a
            connectionless arrival is dropped (and counted) instead of
            queued; only a sender that keeps no ledger gets there.
        train_max: maximum back-to-back same-destination frames the
            netsim coalesces into one scheduled delivery event
            (PROTOCOL.md §13) before the next frame opens a fresh
            train.  A delivery-path construct: every non-ACK frame is
            identical for every value (each IPCS acknowledges a train
            with one range ACK per connection), save a CLOSE answering
            a CLOSE of the same train, and 1 reproduces the
            per-frame event schedule event-for-event and the per-frame
            wire byte for byte.
        trace: record layer entry/exit (Sec. 6.2 debugging support).

    Budgets nothing varies are constants beside their readers, not
    fields: ``CALL_RETRIES``, ``NS_FAULT_RETRY_LIMIT`` and
    ``REPAIR_BACKOFF_BASE`` / ``_CAP`` in ``lcm``, ``FLOW_PROBE_TIMEOUT``
    in ``iplayer``, the grant low watermark (a quarter of the window) in
    ``flow.FlowState``, and the negative-resolution TTL
    ``NEGATIVE_TTL`` in ``naming.cache``.
    """

    monitor_enabled: bool = False
    time_enabled: bool = False
    ns_fault_patch: bool = True
    recursion_limit: int = 64
    open_timeout: float = 5.0
    call_timeout: float = 10.0
    nsp_cache_enabled: bool = True
    repair_max_attempts: int = 4
    chaos_seed: int = 0
    flow_control_enabled: bool = True
    flow_window: int = 256
    train_max: int = 64
    trace: bool = False


class _Exit:
    """The end of a :meth:`Nucleus.enter` block: restores the depth.
    One per Nucleus, shared by every untraced entry."""

    __slots__ = ("_nucleus",)

    def __init__(self, nucleus: "Nucleus"):
        self._nucleus = nucleus

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        self._nucleus._depth -= 1


class _TracedExit(_Exit):
    """The end of one traced entry: records the exit, then restores the
    depth."""

    __slots__ = ("_layer", "_operation", "_caller", "_reason")

    def __init__(self, nucleus: "Nucleus", layer: str, operation: str,
                 caller: str, reason: str):
        super().__init__(nucleus)
        self._layer = layer
        self._operation = operation
        self._caller = caller
        self._reason = reason

    def __exit__(self, *exc_info) -> None:
        nucleus = self._nucleus
        nucleus.tracer.record(
            nucleus.process.name, self._layer, self._operation, "exit",
            caller=self._caller, reason=self._reason, depth=nucleus._depth,
        )
        nucleus._depth -= 1


class Nucleus:
    """The per-module (per-network) NTCS core."""

    def __init__(
        self,
        process: SimProcess,
        network_name: str,
        registry,
        wellknown: WellKnownTable,
        config: Optional[NucleusConfig] = None,
        tracer=None,
    ):
        self.process = process
        self.machine = process.machine
        self.scheduler = process.scheduler
        self.registry = registry
        self.wellknown = wellknown
        self.config = config or NucleusConfig()
        self.mtype: MachineType = self.machine.mtype

        self.tadds = TAddAllocator()
        # Repair-jitter stream (PROTOCOL.md §10): derived — not hashed —
        # from the chaos seed and this module's identity, so two runs
        # with the same seed draw identical backoff jitter while
        # distinct modules never share a stream.
        self.repair_rng = derive_rng(
            self.config.chaos_seed, process.name, network_name,
        )
        # "Each module assigns itself one initially" (Sec. 3.4).
        self.self_addr: Address = self.tadds.allocate()
        self._past_addrs: Set[Address] = set()
        self.addr_cache = AddressCache()
        self.counters = Counters(NUCLEUS)
        if tracer is not None:
            self.tracer = tracer
        elif self.config.trace:
            self.tracer = LayerTracer(clock=lambda: self.scheduler.now)
        else:
            self.tracer = NullTracer()

        # Recursion accounting (Sec. 6).
        self._depth = 0
        self._exit = _Exit(self)
        self.max_depth_seen = 0
        self._suppress = 0

        # Hooks filled in by higher components.
        self.nsp = None                   # NSP-Layer (naming service stub)
        self.gateway_handler = None       # set on gateway stacks only
        self.time_client = None           # DRTS precision time corrector
        self.monitor_client = None        # DRTS network monitor client
        self.error_log: List[str] = []
        self.error_client: Optional[Callable[[str], None]] = None
        # Addresses the LCM's Sec. 6.3 patch must recognize as "the
        # naming service" (replicated NSP-Layers add their servers).
        self.ns_addresses: Set[Address] = {wellknown.ns_uadd}

        # The layers, bottom-up.
        ipcs_list = self.machine.ipcs_on(network_name)
        if not ipcs_list:
            raise NtcsError(
                f"machine {self.machine.name!r} has no IPCS on network "
                f"{network_name!r}"
            )
        self.driver = make_driver(ipcs_list[0])
        from repro.ntcs.ndlayer import NdLayer
        from repro.ntcs.iplayer import IpLayer
        from repro.ntcs.lcm import LcmLayer

        self.nd = NdLayer(self)
        self.ip = IpLayer(self)
        self.lcm = LcmLayer(self)

    # -- identity ------------------------------------------------------------

    def set_identity(self, uadd: Address) -> None:
        """Adopt the real UAdd assigned by the naming service; the
        initial TAdd is remembered so in-flight messages still match."""
        self._past_addrs.add(self.self_addr)
        self.self_addr = uadd

    def is_self(self, addr: Address) -> bool:
        """True when an address is (or was) this module's identity."""
        return addr == self.self_addr or addr in self._past_addrs

    def on_tadd_purged(self, old: Address, new: Address) -> None:
        """Propagate a TAdd-to-UAdd replacement to the one table holder
        that keys by TAdds: the LCM (the address cache refuses them)."""
        self.lcm.rekey_route(old, new)

    # -- recursion accounting (Sec. 6) -------------------------------------------

    @property
    def depth(self) -> int:
        return self._depth

    def enter(self, layer: str, operation: str, caller: str = "",
              reason: Label = "") -> "_Exit":
        """Track one layer entry: ``with nucleus.enter(layer, op):``.
        Exceeding the recursion limit raises — the reproduction of the
        paper's observed stack overflow — with the depth restored.

        With tracing off an entry costs nothing extra: the depth count
        and one shared exit object, and no tracer call.  An installed
        tracer records the entry here and the exit when the block
        ends; a ``reason`` given as a callable is built only then."""
        depth = self._depth = self._depth + 1
        if depth > self.max_depth_seen:
            self.max_depth_seen = depth
        tracer = self.tracer
        if isinstance(tracer, NullTracer):
            exit_ = self._exit
        else:
            reason = label_text(reason)
            tracer.record(self.process.name, layer, operation, "enter",
                          caller=caller, reason=reason, depth=depth)
            exit_ = _TracedExit(self, layer, operation, caller, reason)
        if depth > self.config.recursion_limit:
            exit_.__exit__(None, None, None)
            raise RecursionLimitExceeded(
                f"Nucleus re-entered {depth} deep in "
                f"{self.process.name}:{layer}.{operation} "
                f"(limit {self.config.recursion_limit}) — the Sec. 6.3 "
                "stack overflow"
            )
        return exit_

    def trace(self, layer: str, operation: str, caller: str = "",
              reason: str = "") -> None:
        """Record a point event without changing the depth."""
        self.tracer.record(
            self.process.name, layer, operation, "enter",
            caller=caller, reason=reason, depth=self._depth,
        )

    # -- control frames --------------------------------------------------------

    def control(self, kind: int, dst: Address, type_name: str, values: dict,
                aux: int = 0) -> m.Msg:
        """An NTCS control frame of ``kind`` from this module to ``dst``,
        its body ``values`` of control type ``type_name`` — always in
        packed mode (Sec. 5.2)."""
        entry = self.registry.get_by_name(type_name)
        return m.Msg(kind=kind, src=self.self_addr, dst=dst,
                     flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
                     type_id=entry.sdef.type_id, aux=aux,
                     body=entry.pack(values))

    def unpack_internal(self, type_id: int, body: bytes,
                        lvc) -> Optional[dict]:
        """Unpack the NTCS control body of a frame ``lvc`` carried, by
        type id; None when it does not decode, a malformed frame that
        faults ``lvc`` (``NdLayer.malformed``)."""
        try:
            return self.registry.get(type_id).unpack(body)
        except ConversionError:
            self.nd.malformed(lvc)
            return None

    # -- naming-service access -----------------------------------------------

    def require_nsp(self):
        """The attached NSP-Layer; raises if the module has none."""
        if self.nsp is None:
            raise NameServerUnreachable(
                f"module {self.process.name!r} has no NSP-Layer attached"
            )
        return self.nsp

    # -- machine-type directory ------------------------------------------------

    _UNKNOWN_MTYPE = MachineType(name="unknown", byte_order="big",
                                 charset="unknown")

    # name -> MachineType memo, shared across all nuclei: the directory
    # of known machine types is a static table, and the send hot path
    # resolves the peer's name on every message.
    _MTYPE_CACHE: dict = {}

    def mtype_by_name(self, name: str) -> MachineType:
        """Resolve a peer's machine-type name; an unknown or missing
        name yields a type image-compatible with nothing, forcing
        packed mode (the safe default)."""
        if not name:
            return self._UNKNOWN_MTYPE
        mtype = self._MTYPE_CACHE.get(name)
        if mtype is None:
            try:
                mtype = machine_type(name)
            except KeyError:
                mtype = self._UNKNOWN_MTYPE
            self._MTYPE_CACHE[name] = mtype
        return mtype

    # -- DRTS hooks (recursion sources, Sec. 6.1) ----------------------------------

    @contextmanager
    def suppress_services(self):
        """Disable time correction and monitoring for the duration —
        used by the DRTS clients' own sends "to avoid the obvious
        infinite recursion" (Sec. 6.1)."""
        self._suppress += 1
        try:
            yield
        finally:
            self._suppress -= 1

    @property
    def services_suppressed(self) -> bool:
        return self._suppress > 0

    def timestamp(self) -> float:
        """A timestamp for monitor data: corrected time when the time
        service is enabled (possibly a recursive NTCS exchange), the raw
        drifting machine clock otherwise."""
        if (
            self.config.time_enabled
            and self.time_client is not None
            and not self.services_suppressed
        ):
            return self.time_client.corrected_now()
        return self.machine.clock.now()

    @property
    def monitoring_active(self) -> bool:
        return (
            self.config.monitor_enabled
            and self.monitor_client is not None
            and not self.services_suppressed
        )

    def emit_monitor(self, event: dict) -> None:
        """Report one event to the DRTS monitor, if active."""
        if self.monitoring_active:
            self.monitor_client.report(event)

    def log_error(self, text: str) -> None:
        """Record an error locally and ship it to the error-log service."""
        self.error_log.append(text)
        self.counters[ERRORS_LOGGED] += 1
        if self.error_client is not None:
            self.error_client(text)

    def __repr__(self) -> str:
        return (
            f"Nucleus({self.process.name!r} as {self.self_addr} on "
            f"{self.driver.network_name}/{self.driver.protocol})"
        )
