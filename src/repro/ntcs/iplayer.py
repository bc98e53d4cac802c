"""The Internet Protocol Layer: internet virtual circuits (paper Sec. 4).

"The IP-Layer, in conjunction with one or more Gateway modules,
provides internet virtual circuits (IVCs) across disjoint networks and
machines. IVCs are established either as a single LVC on the local
network, or as a chained set of LVCs linked through one or more
Gateways as required."

The internet scheme "decentralize[s] the circuit routing and
establishment, while centralizing the topological information in the
naming service": this layer only ever picks the *first* gateway toward
the destination network; each gateway in turn picks its own next hop
using the same naming-service queries ("used ... by both the IP-layer
and the Gateways themselves").  No inter-gateway routing protocol
exists.

This layer is also where transfer-mode selection happens for outgoing
application data: it is the lowest layer that knows the *end-to-end*
destination machine type (learned from the LVC hello on direct
circuits, from the IVC_OPEN_ACK on chained ones) — Sec. 5's "the
decision to apply them is left to the lowest layers, where the
destination machine type is visible".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.conversion.modes import PACKED, encode_values
from repro.errors import (
    AddressFault,
    ChannelClosed,
    DestinationUnavailable,
    NoSuchAddress,
    RouteNotFound,
    SendWouldBlock,
)
from repro.ntcs import message as m
from repro.ntcs.address import Address, blob_network
from repro.ntcs.flow import FlowState
from repro.ntcs.ndlayer import Lvc
from repro.ntcs.protocol import (
    T_CREDIT_GRANT,
    T_CREDIT_PROBE,
    T_IVC_OPEN,
    T_IVC_OPEN_ACK,
    T_IVC_OPEN_NAK,
    compile_machines,
    step,
)
from repro.util.counters import (
    ALI_SEND_BLOCKED, DROP_CONNECTIONLESS, IP_CLOSE_NOTIFY_LOST, IP_CREDIT_GRANTS,
    IP_CREDIT_PROBES, IP_CREDIT_RESYNCS, IP_CREDIT_STALLS, IP_SUSPECT_FALLBACKS,
    IVC_CHAINED_OPENED, IVC_DIRECT_OPENED, IVC_FRAMES_WITHOUT_CIRCUIT,
    IVC_OPEN_REFUSED, IVC_REQUESTS_RODE_OPEN, IVC_RIDERS_REFUSED,
    LVC_RX_QUEUE_HIGH_WATER, TOPOLOGY_QUERIES,
)
from repro.util.dispatch import handles

MAX_HOPS = 8

# How many credit probes one stall of a zero-credit sender issues (each
# waiting FLOW_PROBE_TIMEOUT virtual seconds for a grant) before the
# send fails as destination-unavailable (PROTOCOL.md §12): the bound of
# the ivc-flow timeout loop, spent by step.
FLOW_PROBE_RETRIES = 3
FLOW_PROBE_TIMEOUT = 1.0

# How many DATA frames the sender of a chained hop's IVC_OPEN sends
# before it is answered: the one call request that rides the open
# (PROTOCOL.md §3, "A call rides its circuit's open").  ``verify
# --trace`` spends it per hop; an originator's rider leaves behind its
# new LVC's LVC_HELLO, whose HELLO_RIDERS (ndlayer) bounds it at run
# time.
OPEN_RIDERS = 1

# The IVC endpoint machine, model-checked by ntcsverify (pure literal),
# run by every Ivc through :func:`~repro.ntcs.protocol.step`, and
# stepped by ``verify --trace`` per hop of every chained circuit, from
# the side that sent that hop's IVC_OPEN.  A direct circuit is
# constructed already in OPEN; a chained one enters OPENING with its
# IVC_OPEN and leaves it on the end-to-end ACK/NAK, on the open timeout
# (which runs the normal close path), on a local close, or on an LVC
# fault underneath.  While OPENING it sends at most
# OPEN_RIDERS DATA frames, each a call's request riding the open
# ("rides_open": FLAG_RIDES_OPEN on a request; the trace walk refuses
# one more, and at run time the originator's new LVC bounds it by
# HELLO_RIDERS), and may still receive a straggler of the circuit that
# last used a kept leg.
# Alongside it, the ivc-flow machine is the sender half of the credit
# protocol (PROTOCOL.md §12), run by every FlowState through the same
# step: every send grows the in-flight ledger and every advertisement
# drains it (progress loops, not stepped), a sender that suspects lost
# frames probes without stalling, and a zero-credit sender stalls.
# Each round of a stall (probe, then wait FLOW_PROBE_TIMEOUT) is one
# step of the bounded timeout loop; credit or a close ends the stall,
# and past FLOW_PROBE_RETRIES rounds it gives up back to READY, where
# the LCM's repair rounds may stall the circuit again.  A handler's
# send on the circuit, run while it is stalled, joins the stall with
# rounds of its own and leaves it STALLED for the send beneath.
PROTOCOL_MACHINES = (
    {
        "name": "ivc-endpoint",
        "initial": "OPENING",
        "entry": (
            {"event": "send IVC_OPEN", "next": "OPENING"},
            {"event": "local direct", "next": "OPEN"},
        ),
        "terminal": ("CLOSED", "FAILED"),
        "states": {
            "OPENING": {
                "waits": True,
                "edges": (
                    {"event": "send DATA rides_open", "next": "OPENING",
                     "bounded": "OPEN_RIDERS"},
                    {"event": "recv DATA", "next": "OPENING"},
                    {"event": "recv IVC_OPEN_ACK", "next": "OPEN"},
                    {"event": "recv IVC_OPEN_NAK", "next": "FAILED"},
                    {"event": "timeout open_timeout", "next": "CLOSED"},
                    {"event": "local close", "next": "CLOSED"},
                    {"event": "recv IVC_CLOSE", "next": "FAILED"},
                    {"event": "local lvc_fault", "next": "FAILED"},
                ),
            },
            "OPEN": {
                "edges": (
                    {"event": "send DATA", "next": "OPEN", "progress": True},
                    {"event": "recv DATA", "next": "OPEN", "progress": True},
                    {"event": "recv IVC_CLOSE", "next": "CLOSED"},
                    {"event": "send IVC_CLOSE", "next": "CLOSED"},
                    {"event": "local close", "next": "CLOSED"},
                    {"event": "local lvc_fault", "next": "CLOSED"},
                ),
            },
            "FAILED": {},
            "CLOSED": {},
        },
    },
    {
        "name": "ivc-flow",
        "initial": "READY",
        "terminal": ("CLOSED",),
        "states": {
            "READY": {
                "edges": (
                    {"event": "send DATA", "next": "READY",
                     "queue": "+inflight", "progress": True},
                    {"event": "recv CREDIT_GRANT", "next": "READY",
                     "queue": "-inflight", "progress": True},
                    {"event": "send CREDIT_PROBE", "next": "READY"},
                    {"event": "local credit_exhausted", "next": "STALLED"},
                    {"event": "local close", "next": "CLOSED"},
                ),
            },
            "STALLED": {
                "waits": True,
                "edges": (
                    {"event": "recv CREDIT_GRANT", "next": "READY",
                     "queue": "-inflight", "progress": True},
                    {"event": "timeout FLOW_PROBE_TIMEOUT", "next": "STALLED",
                     "bounded": "FLOW_PROBE_RETRIES"},
                    {"event": "local credit_exhausted", "next": "STALLED"},
                    {"event": "local close", "next": "CLOSED"},
                    {"event": "local give_up", "next": "READY"},
                ),
            },
            "CLOSED": {},
        },
    },
)
compile_machines(PROTOCOL_MACHINES, globals())


def _readable(mode: int, src, dst) -> bool:
    """Whether a body machine type ``src`` encoded in ``mode`` decodes
    on machine type ``dst``: packed always does, an image only between
    image-compatible types (Sec. 5)."""
    return mode == PACKED or src.image_compatible(dst)


class Ivc:
    """One internet virtual circuit endpoint."""

    _next_id = 0
    state: Optional[str] = None

    def __init__(self, lvc: Lvc, peer_addr: Optional[Address], direct: bool):
        Ivc._next_id += 1
        self.ivc_id = Ivc._next_id
        self.lvc = lvc
        self.peer_addr = peer_addr
        self.peer_mtype_name = lvc.peer_mtype_name
        self.direct = direct
        step(self, "ivc-endpoint",
             "local direct" if direct else "send IVC_OPEN")
        self.nak_reason = ""
        # Credit ledger (PROTOCOL.md §12); None when flow control is
        # off.  Installed by the IP-Layer at construction, never
        # carried across a reopen — a fresh circuit starts fresh.
        self.flow: Optional[FlowState] = None

    @property
    def open(self) -> bool:
        return self.state == "OPEN" and self.lvc.open

    def __repr__(self) -> str:
        shape = "direct" if self.direct else "chained"
        return f"Ivc#{self.ivc_id}({shape}, {self.state}, peer={self.peer_addr})"


@dataclass
class _Plan:
    """How to reach a destination: directly, or via a first gateway;
    ``mtype_name`` is the destination's machine type as the record the
    plan came from holds it ("" when unknown)."""

    direct: bool
    blob: str
    gw_uadd: Optional[Address] = None
    dst_network: str = ""
    mtype_name: str = ""


class IpLayer:
    """The middle Nucleus layer of one module."""

    LAYER = "IP"

    def __init__(self, nucleus):
        self.nucleus = nucleus
        self.nd = nucleus.nd
        self.nd.set_upcalls(
            accept=self._on_lvc_accept,
            message=self._on_lvc_message,
            fault=self._on_lvc_fault,
        )
        self._by_lvc: Dict[Lvc, Ivc] = {}
        # dst network -> (first gateway's UAdd, its blob), planned from
        # the topology or learned from a chained open that proved the
        # hop; cached so a warmed-up system routes with no Name-Server
        # traffic (E2).  Only forget_route evicts from this table, moves
        # the prime index or marks a suspect (PROTOCOL.md §3, "What a
        # Nucleus remembers").
        self.route_cache: Dict[str, Tuple[Address, str]] = {}
        # Which prime gateway we are currently using toward the naming
        # fleet (rotated when one fails; Sec. 3.4's primes are plural).
        self._prime_index = 0
        # Gateways whose circuits recently failed (PROTOCOL.md §10):
        # route planning prefers paths avoiding them until a chained
        # open through one succeeds again.
        self._suspect_gateways: Set[Address] = set()
        self._deliver_upcall: Callable[[Ivc, m.Msg], None] = lambda ivc, msg: None
        self._fault_upcall: Callable[[Ivc, str], None] = lambda ivc, reason: None

    def set_upcalls(self, deliver, fault) -> None:
        """Install the LCM-Layer's deliver/fault callbacks."""
        self._deliver_upcall = deliver
        self._fault_upcall = fault

    @property
    def local_network(self) -> str:
        return self.nd.driver.network_name

    # -- circuit establishment -------------------------------------------------

    def open_ivc(self, dst: Address, reason: str = "",
                 request: Optional[Tuple[m.Msg, int, dict]] = None) -> Ivc:
        """Establish an IVC to ``dst``.  Blocking; raises AddressFault
        or RouteNotFound on failure.

        The circuit's first frames leave right behind its new LVC's
        LVC_HELLO (PROTOCOL.md §3): a chained plan's IVC_OPEN, and
        ``request``, a call's first message as ``(msg, type_id,
        values)``, when the plan knows the destination's machine type.
        The request is encoded for that type and marked
        ``FLAG_RIDES_OPEN``, so the destination answers the handshake
        and the request in one train.  On return the flag is still set
        only when the answer confirmed a type the encoding suits;
        otherwise the caller sends the request as usual."""
        nucleus = self.nucleus
        with nucleus.enter(self.LAYER, "open",
                           reason=reason or (lambda: f"ivc to {dst}")):
            plan = self._plan(dst)
            opened: List[Ivc] = []
            hop_dst = (dst if plan.direct
                       else plan.gw_uadd or nucleus.tadds.allocate())
            try:
                lvc = self.nd.open_lvc(
                    hop_dst, plan.blob,
                    reason="direct ivc" if plan.direct else "first gateway hop",
                    first=lambda lvc: opened.append(
                        self._first_frames(lvc, dst, plan, request)))
            except AddressFault as exc:
                for ivc in opened:
                    self.close(ivc, "no HELLO_ACK", notify=False)
                if plan.direct:
                    raise
                self.forget_route(plan.dst_network, plan.gw_uadd)
                raise AddressFault(dst, f"first-hop gateway unreachable: {exc}")
            ivc = opened[0]
            if plan.direct:
                if lvc.peer_addr != dst:
                    # Another module answered at the destination's cached
                    # blob (Sec. 3.3): a stale address, whose rider the
                    # answerer refused.
                    self.close(ivc, "another module answered", notify=False)
                    nucleus.addr_cache.invalidate(dst)
                    raise AddressFault(
                        dst, f"{lvc.peer_addr} answered at its address")
                ivc.peer_mtype_name = lvc.peer_mtype_name
                nucleus.counters[IVC_DIRECT_OPENED] += 1
            else:
                self._await_chained(dst, ivc, plan, hop=lvc.peer_addr)
            rider = request[0] if request is not None else None
            if (rider is not None and rider.flags & m.FLAG_RIDES_OPEN
                    and ivc.peer_mtype_name != plan.mtype_name):
                self._confirm_rider(dst, ivc, rider)
            return ivc

    def _first_frames(self, lvc: Lvc, dst: Address, plan: _Plan,
                      request: Optional[Tuple[m.Msg, int, dict]]) -> Ivc:
        """A new circuit's first frames, sent behind its LVC_HELLO: a
        chained plan's IVC_OPEN, then the request, where it can ride.
        The circuit exists before the answer, so a reply in the
        answer's train finds it."""
        nucleus = self.nucleus
        ivc = Ivc(lvc, peer_addr=dst, direct=plan.direct)
        self._attach_flow(ivc)
        self._by_lvc[lvc] = ivc
        if not plan.direct:
            self.nd.send(lvc, nucleus.control(m.IVC_OPEN, dst, "ivc_open", {
                "dst_network": plan.dst_network,
                "src_mtype": nucleus.mtype.name,
                "src_listen_blob": self.nd.listen_blob or "",
            }))
        if request is not None and plan.mtype_name:
            self._ride(ivc, plan.mtype_name, *request)
        return ivc

    def _await_chained(self, dst: Address, ivc: Ivc, plan: _Plan,
                       hop: Optional[Address]) -> None:
        """Wait for the end-to-end answer to a chained circuit's
        IVC_OPEN; ``hop`` answered the LVC_HELLO, read before the answer
        can replace a TAdd peer with the destination's UAdd."""
        nucleus = self.nucleus
        nucleus.scheduler.pump_until(
            lambda: ivc.state != "OPENING",
            timeout=nucleus.config.open_timeout,
            what=lambda: f"ivc open to {dst}",
        )
        if ivc.state != "OPEN":
            failure = ivc.nak_reason or "ivc open timed out"
            self.close(ivc, failure, notify=False,
                       event="timeout open_timeout")
            self.forget_route(plan.dst_network, plan.gw_uadd)
            raise AddressFault(dst, failure)
        # A chained open through this gateway just worked: any earlier
        # suspicion of it is disproved.
        self._suspect_gateways.discard(plan.gw_uadd)
        # A proven first hop is a route (PROTOCOL.md §3): remember it
        # under the gateway's real UAdd, so suspect marking and eviction
        # treat it as they treat a topology-planned entry.
        if (plan.dst_network and hop is not None and not hop.temporary
                and not nucleus.is_self(hop)):
            self.route_cache.setdefault(plan.dst_network, (hop, plan.blob))
        nucleus.counters[IVC_CHAINED_OPENED] += 1

    def _ride(self, ivc: Ivc, mtype_name: str, msg: m.Msg, type_id: int,
              values: dict) -> None:
        """Send a call's request behind a new circuit's LVC_HELLO,
        encoded for ``mtype_name`` and marked as riding it; nothing past
        the LVC's HELLO_RIDERS, which on a chained circuit also keeps
        the originator within OPEN_RIDERS.  A fresh circuit always has
        credit, so this debits without a stall check."""
        nucleus = self.nucleus
        msg.type_id = type_id
        mode, msg.body = encode_values(
            nucleus.registry, type_id, values,
            src=nucleus.mtype, dst=nucleus.mtype_by_name(mtype_name),
        )
        msg.set_mode(mode)
        msg.flags |= m.FLAG_RIDES_OPEN
        flow = ivc.flow
        if flow is not None:
            msg.aux = m.encode_credit(flow.advertised())
        if not self.nd.ride(ivc.lvc, msg):
            msg.flags &= ~m.FLAG_RIDES_OPEN
            return
        if flow is not None:
            flow.debit()
        nucleus.counters[IVC_REQUESTS_RODE_OPEN] += 1

    def _confirm_rider(self, dst: Address, ivc: Ivc, rider: m.Msg) -> None:
        """The IVC_OPEN_ACK named another machine type than the one the
        rider was encoded for: the address cache learns the confirmed
        type, and a rider the destination cannot read (it refuses one,
        :func:`_readable`) loses its flag, so the caller sends the
        request again."""
        nucleus = self.nucleus
        entry = nucleus.addr_cache.lookup(dst)
        if entry is not None:
            nucleus.addr_cache.store(dst, entry.blob, ivc.peer_mtype_name)
        if not _readable(rider.mode, nucleus.mtype,
                         nucleus.mtype_by_name(ivc.peer_mtype_name)):
            rider.flags &= ~m.FLAG_RIDES_OPEN

    def _plan(self, dst: Address) -> _Plan:
        nucleus = self.nucleus
        local = self.local_network
        wellknown = nucleus.wellknown

        # Bootstrap case: the Name Server, reachable without any naming
        # service involvement (Sec. 3.4).
        if dst == wellknown.ns_uadd:
            blob = wellknown.blob_for(dst, local)
            mtype_name = wellknown.mtype_for(dst)
            if blob is not None:
                return _Plan(direct=True, blob=blob, mtype_name=mtype_name)
            ns_nets = wellknown.ns_networks()
            return self._prime_plan(ns_nets[0] if ns_nets else "",
                                    mtype_name)

        # Cached physical address?
        entry = nucleus.addr_cache.lookup(dst)
        if entry is not None:
            net = blob_network(entry.blob)
            if net == local:
                return _Plan(direct=True, blob=entry.blob,
                             mtype_name=entry.mtype_name)
            if dst in nucleus.ns_addresses:
                # A naming-fleet member (replica / shard server) on a
                # remote network: take the well-known prime route.
                # Planning through _first_hop would ask the naming
                # service for the topology — and never ask the naming
                # service where the naming service is (Sec. 3.4).
                return self._prime_plan(net, entry.mtype_name)
            return self._gateway_plan(dst, net, entry.mtype_name)

        if dst.temporary:
            raise AddressFault(dst, "temporary addresses cannot be located")
        if dst in nucleus.ns_addresses:
            # Never ask the naming service where the naming service is.
            raise AddressFault(
                dst, "naming-service address not in the well-known tables"
            )

        # Ask the naming service — the recursive path (Sec. 3.1).
        record = nucleus.require_nsp().resolve_uadd(dst)
        location = record.location(local)
        if location is None:
            raise NoSuchAddress(f"{dst} has no physical addresses registered")
        dst_network, blob = location
        nucleus.addr_cache.store(dst, blob, record.mtype_name)
        if dst_network == local:
            return _Plan(direct=True, blob=blob, mtype_name=record.mtype_name)
        return self._gateway_plan(dst, dst_network, record.mtype_name)

    def _prime_plan(self, dst_network: str, mtype_name: str) -> _Plan:
        """The well-known route to a naming-fleet member: through the
        local network's current prime gateway (Sec. 3.4)."""
        local = self.local_network
        prime = self.nucleus.wellknown.prime_gateway_blob(
            local, self._prime_index)
        if prime is None:
            raise RouteNotFound(
                f"no well-known path to the naming fleet from {local!r}")
        return _Plan(direct=False, blob=prime, dst_network=dst_network,
                     mtype_name=mtype_name)

    def forget_route(self, dst_network: str,
                     gw_uadd: Optional[Address]) -> None:
        """A chained open toward ``dst_network`` through first hop
        ``gw_uadd`` failed to connect, was NAKed or timed out: the one
        place this layer forgets a route (PROTOCOL.md §3, "The route
        cache").  The cached hop goes, so the retry replans.  A prime
        plan (``gw_uadd`` None) moves on to the next prime gateway; any
        other gateway is suspect until a chained open through it
        succeeds again (§10)."""
        self.route_cache.pop(dst_network, None)
        if gw_uadd is None:
            self._prime_index += 1
        else:
            self._suspect_gateways.add(gw_uadd)

    def _gateway_plan(self, dst: Address, dst_network: str,
                      mtype_name: str = "") -> _Plan:
        cached = self.route_cache.get(dst_network)
        if cached is None:
            cached = self._first_hop(self.local_network, dst_network)
            self.route_cache[dst_network] = cached
        gw_uadd, gw_blob = cached
        return _Plan(direct=False, blob=gw_blob, gw_uadd=gw_uadd,
                     dst_network=dst_network, mtype_name=mtype_name)

    def _first_hop(self, local: str, dst_network: str) -> Tuple[Address, str]:
        """Pick the first gateway toward ``dst_network`` from the
        topology registered in the naming service: a breadth-first
        search over gateway adjacency, computed locally from centrally
        stored information (Sec. 4.2).

        Suspect gateways (recent circuit faults) are avoided when an
        alternative path exists; when every path leads through a
        suspect, the search falls back to the full gateway set rather
        than declaring the destination unreachable."""
        gateways = self.nucleus.require_nsp().list_gateways()
        self.nucleus.counters[TOPOLOGY_QUERIES] += 1
        if self._suspect_gateways:
            healthy = [gw for gw in gateways
                       if gw.uadd not in self._suspect_gateways]
            hop = self._bfs_first_hop(local, dst_network, healthy)
            if hop is not None:
                return hop
            self.nucleus.counters[IP_SUSPECT_FALLBACKS] += 1
        hop = self._bfs_first_hop(local, dst_network, gateways)
        if hop is None:
            raise RouteNotFound(
                f"no gateway chain from {local!r} to {dst_network!r}")
        return hop

    def _bfs_first_hop(self, local: str, dst_network: str,
                       gateways: List) -> Optional[Tuple[Address, str]]:
        """One breadth-first pass over a candidate gateway set; None
        when no chain reaches ``dst_network``."""
        # networks adjacency: network -> [(gateway record, its networks)]
        frontier = [(local, None)]  # (network, first-hop gateway record)
        seen = {local}
        while frontier:
            next_frontier = []
            for network, first_hop in frontier:
                for gw in gateways:
                    nets = gw.networks()
                    if network not in nets:
                        continue
                    hop = first_hop or gw
                    for reachable in nets:
                        if reachable in seen:
                            continue
                        if reachable == dst_network:
                            blob = hop.blob_on(local)
                            if blob is None:
                                continue
                            return hop.uadd, blob
                        seen.add(reachable)
                        next_frontier.append((reachable, hop))
            frontier = next_frontier
        return None

    # -- data path ---------------------------------------------------------------

    def send_values(self, ivc: Ivc, msg: m.Msg, type_id: int, values: dict,
                    force_mode: Optional[int] = None,
                    block: bool = True) -> None:
        """Encode application values for ``ivc``'s end-to-end peer
        machine type, then transmit."""
        nucleus = self.nucleus
        dst_mtype = nucleus.mtype_by_name(ivc.peer_mtype_name)
        msg.type_id = type_id
        mode, wire = encode_values(
            nucleus.registry, type_id, values,
            src=nucleus.mtype, dst=dst_mtype, mode=force_mode,
        )
        msg.set_mode(mode)
        msg.body = wire
        self.send_raw(ivc, msg, block=block)

    def send_raw(self, ivc: Ivc, msg: m.Msg, block: bool = True) -> None:
        """Transmit an already-encoded message over an IVC.

        Flow control (PROTOCOL.md §12) runs here.  A flow-debited
        message (:func:`~repro.ntcs.message.flow_debited`) spends one
        credit; at zero credit the sender stalls on the run queue behind
        a bounded probe loop — or, with ``block=False`` or on a
        connectionless message, reports :class:`SendWouldBlock` instead
        of waiting.
        Every non-internal DATA message also piggybacks this end's
        cumulative consumed counter in the aux word, so steady
        bidirectional traffic needs no standalone credit frames at
        all."""
        if not ivc.open:
            raise ChannelClosed(f"{ivc} is not open")
        flow = ivc.flow
        if flow is not None and msg.kind == m.DATA and not msg.internal:
            if m.flow_debited(msg.kind, msg.flags):
                if flow.credit <= 0:
                    if not msg.flags & (m.FLAG_REPLY_EXPECTED
                                        | m.FLAG_CONNECTIONLESS):
                        # Only the ALI sends one-way: counted here, so
                        # a nested send counts only its own stall.
                        self.nucleus.counters[ALI_SEND_BLOCKED] += 1
                    if msg.connectionless or not block:
                        raise SendWouldBlock(
                            f"no flow-control credit on {ivc} "
                            f"({flow.tx_sent - flow.tx_consumed_seen} of "
                            f"{flow.window} unconsumed)"
                        )
                    self._stall_for_credit(ivc, flow)
                flow.debit()
            # Replies piggyback too: the reverse half of a call is the
            # cheapest carrier for this end's consumed counter.
            msg.aux = m.encode_credit(flow.advertised())
        self.nd.send(ivc.lvc, msg)

    # -- flow control (PROTOCOL.md §12) -------------------------------------------

    def _attach_flow(self, ivc: Ivc) -> None:
        cfg = self.nucleus.config
        if cfg.flow_control_enabled:
            ivc.flow = FlowState(cfg.flow_window)

    def _stall_for_credit(self, ivc: Ivc, flow: FlowState) -> None:
        """Park the sending module until the peer advertises credit, by
        a walk of the ``ivc-flow`` table: each round its timeout loop
        allows, probe, then pump the run queue under the probe timeout
        (Sec. 6: block the caller, keep the system running).

        A handler's send on a circuit stalled beneath it (the pump runs
        handlers) joins the stall with a stay of its own: it leaves the
        circuit STALLED for the send beneath, whose spent rounds resume
        when it ends."""
        nucleus = self.nucleus
        nucleus.counters[IP_CREDIT_STALLS] += 1
        beneath = flow.spent if flow.state == "STALLED" else None
        step(flow, "ivc-flow", "local credit_exhausted")
        flow.spent = 0
        try:
            while step(flow, "ivc-flow", "timeout FLOW_PROBE_TIMEOUT"):
                self._send_probe(ivc, flow)
                nucleus.scheduler.pump_until(
                    lambda: flow.credit > 0 or not ivc.open,
                    timeout=FLOW_PROBE_TIMEOUT,
                    what=f"credit on {ivc}",
                )
                if not ivc.open:
                    step(flow, "ivc-flow", "local close")
                    raise ChannelClosed(
                        f"{ivc} closed while stalled for credit")
                if flow.credit > 0:
                    if beneath is None:
                        step(flow, "ivc-flow", "recv CREDIT_GRANT")
                    return
            if beneath is None:
                step(flow, "ivc-flow", "local give_up")
            raise DestinationUnavailable(
                f"no flow-control credit on {ivc} after {FLOW_PROBE_RETRIES} "
                f"probes ({flow.tx_sent - flow.tx_consumed_seen} unconsumed)"
            )
        finally:
            if beneath is not None:
                flow.spent = beneath

    def _send_probe(self, ivc: Ivc, flow: FlowState) -> None:
        """Tell the peer our cumulative sent counter and ask where its
        consumed counter is.  The aux word carries the same counter so
        gateways can track the direction's high watermark."""
        nucleus = self.nucleus
        self.nd.send(ivc.lvc, nucleus.control(
            m.CREDIT_PROBE, ivc.peer_addr or nucleus.self_addr,
            "credit_probe", {"sent": flow.tx_sent},
            aux=m.encode_credit(flow.tx_sent)))
        nucleus.counters[IP_CREDIT_PROBES] += 1

    def _send_grant(self, ivc: Ivc, consumed: int, window: int) -> None:
        """Advertise the cumulative ``consumed`` counter, in the body and
        in the aux word a gateway can clamp."""
        nucleus = self.nucleus
        self.nd.send(ivc.lvc, nucleus.control(
            m.CREDIT_GRANT, ivc.peer_addr or nucleus.self_addr,
            "credit_grant", {"consumed": consumed, "window": window},
            aux=m.encode_credit(consumed)))
        nucleus.counters[IP_CREDIT_GRANTS] += 1

    def _on_credit_grant(self, ivc: Ivc, msg: m.Msg) -> None:
        flow = ivc.flow
        if flow is None:
            return
        # Prefer the aux-word advertisement: that is the copy a gateway
        # can clamp in place on the splice path (PROTOCOL.md §12), so
        # honoring it keeps the enforcement end-to-end.  The body is
        # the fallback for a grant whose aux was never stamped.
        advertised = m.decode_credit(msg.aux)
        if advertised is None:
            values = self.nucleus.unpack_internal(
                T_CREDIT_GRANT, msg.body, ivc.lvc)
            if values is None:
                return
            advertised = values["consumed"]
        flow.on_advertised(advertised)

    def _on_credit_probe(self, ivc: Ivc, msg: m.Msg) -> None:
        nucleus = self.nucleus
        values = nucleus.unpack_internal(T_CREDIT_PROBE, msg.body, ivc.lvc)
        if values is None:
            return
        flow = ivc.flow
        if flow is None:
            # Flow control is off on this end but the peer runs it:
            # answer with a full grant so a mixed deployment never
            # wedges.  (The all-off ablation sees no probes at all, so
            # its wire stays byte-identical.)
            self._send_grant(ivc, values["sent"], nucleus.config.flow_window)
            return
        flow.on_probe(values["sent"])
        self._send_grant(ivc, flow.advertised(), flow.window)
        # While the receive queue stays deep the grant could not have
        # freed much: owe the peer an unsolicited grant for when
        # consumption drains it past the low watermark.
        flow.grant_owed = flow.rx_queued > flow.low_watermark

    # -- the receive-side ledger (PROTOCOL.md §12) ------------------------------
    #
    # The LCM reports how it disposed of each DATA message this layer
    # delivered; whether the message spent credit, and what its
    # disposal frees, is decided here alone.

    def note_handling(self, ivc: Ivc, msg: m.Msg) -> None:
        """LCM report: ``msg`` was decoded and goes to a handler."""
        flow = ivc.flow
        if flow is not None and m.flow_debited(msg.kind, msg.flags):
            flow.on_arrival(False)

    def note_handled(self, ivc: Ivc, msg: m.Msg) -> None:
        """LCM report: the handler ``msg`` went to has returned."""
        flow = ivc.flow
        if flow is not None and m.flow_debited(msg.kind, msg.flags):
            self._consume(ivc, flow)

    def note_discarded(self, ivc: Ivc, msg: m.Msg) -> None:
        """Report: ``msg`` was disposed of without delivery — suppressed
        as a duplicate or undecodable (the LCM), or a refused rider."""
        flow = ivc.flow
        if flow is not None and m.flow_debited(msg.kind, msg.flags):
            flow.on_arrival(False)
            self._consume(ivc, flow)

    def note_queued(self, ivc: Ivc, msg: m.Msg) -> Tuple[bool, Optional[Ivc]]:
        """LCM report: ``msg`` is about to enter the receive queue.
        Returns whether to queue it, and the circuit
        :meth:`note_dequeued` credits when it is popped (None when it
        spent no credit).  Overload: a flow-debited connectionless
        arrival that finds a full window queued from its LVC is dropped
        and counted instead — best-effort traffic never buffers past
        the window, so only a sender that keeps no ledger gets here."""
        flow = ivc.flow
        if flow is None or not m.flow_debited(msg.kind, msg.flags):
            return True, None
        lvc = ivc.lvc
        counters = self.nucleus.counters
        if msg.connectionless and lvc.rx_depth >= flow.window:
            counters[DROP_CONNECTIONLESS] += 1
            flow.on_arrival(False)
            self._consume(ivc, flow)
            return False, None
        flow.on_arrival(True)
        lvc.rx_depth += 1
        if lvc.rx_depth > counters[LVC_RX_QUEUE_HIGH_WATER]:
            counters[LVC_RX_QUEUE_HIGH_WATER] = lvc.rx_depth
        return True, ivc

    def note_dequeued(self, ivc: Ivc) -> None:
        """LCM report: ``receive()`` popped a message :meth:`note_queued`
        debited on ``ivc``."""
        if ivc.lvc.rx_depth > 0:
            ivc.lvc.rx_depth -= 1
        self._consume(ivc, ivc.flow, from_queue=True)

    def _consume(self, ivc: Ivc, flow: FlowState,
                 from_queue: bool = False) -> None:
        """Credit one disposal back, and send the owed grant once the
        queue drains to the low watermark."""
        flow.on_consumed(from_queue)
        if (flow.grant_owed and ivc.open
                and flow.rx_queued <= flow.low_watermark):
            flow.grant_owed = False
            self._send_grant(ivc, flow.advertised(), flow.window)

    def resync_credit(self, ivc: Optional[Ivc]) -> None:
        """After circuit repair (PROTOCOL.md §10): a freshly reopened
        circuit carries a fresh ledger and needs nothing, but a circuit
        that *survived* a fault window with messages in doubt must find
        out which of them the peer actually consumed — probe, and let
        the grant's loss reconciliation settle the ledger."""
        if ivc is None:
            return
        flow = ivc.flow
        if flow is None or not ivc.open:
            return
        if flow.tx_sent - flow.tx_consumed_seen > 1:
            self._send_probe(ivc, flow)
            self.nucleus.counters[IP_CREDIT_RESYNCS] += 1

    def close(self, ivc: Ivc, reason: str, notify: bool = True,
              event: str = "local close") -> None:
        """Close an IVC (optionally notifying the peer with IVC_CLOSE),
        taking ``event``'s edge; a FAILED circuit is only released."""
        if ivc.state == "CLOSED":
            return
        nucleus = self.nucleus
        if notify and ivc.open:
            event = "send IVC_CLOSE"
            close_msg = nucleus.control(
                m.IVC_CLOSE, ivc.peer_addr or nucleus.self_addr,
                "ivc_close", {"reason": reason[:90]})
            try:
                self.nd.send(ivc.lvc, close_msg)
            except ChannelClosed:
                # The channel died before the courtesy close got out.
                nucleus.counters[IP_CLOSE_NOTIFY_LOST] += 1
        step(ivc, "ivc-endpoint", event)
        self._by_lvc.pop(ivc.lvc, None)
        self.nd.close(ivc.lvc, reason)

    # -- upcalls from the ND-Layer ------------------------------------------------

    def _on_lvc_accept(self, lvc: Lvc) -> Ivc:
        # Until proven otherwise this inbound circuit is a direct IVC;
        # an IVC_OPEN arriving on it upgrades it to a chained endpoint.
        ivc = Ivc(lvc, peer_addr=lvc.peer_addr, direct=True)
        self._attach_flow(ivc)
        self._by_lvc[lvc] = ivc
        return ivc

    def _on_lvc_message(self, lvc: Lvc, msg: m.Msg) -> None:
        nucleus = self.nucleus
        gateway = nucleus.gateway_handler
        if gateway is not None and gateway.handle(nucleus, lvc, msg):
            # The leg belongs to the pass-through plane: the endpoint
            # entry its accept created is not a circuit of ours.
            self._by_lvc.pop(lvc, None)
            return
        ivc = self._by_lvc.get(lvc)
        if ivc is None:
            if msg.kind != m.IVC_OPEN or not lvc.inbound:
                # No circuit: the followers of a refused open, or a
                # straggler of a circuit that has closed.
                nucleus.counters[IVC_FRAMES_WITHOUT_CIRCUIT] += 1
                return
            # A kept inbound leg (PROTOCOL.md §3) awaits its next
            # circuit's IVC_OPEN as it did at accept.
            ivc = self._on_lvc_accept(lvc)
        # This message terminates here: settle the checksum deferred by
        # the ND-Layer (once end-to-end, not once per hop).
        if not msg.checksum_ok():
            self.nd.malformed(lvc)
            return
        # A control body is decoded before its step (a body that does not
        # decode faults the LVC as a checksum mismatch does).
        if msg.kind == m.IVC_OPEN:
            self._on_ivc_open_as_endpoint(ivc, msg)
        elif msg.kind == m.IVC_OPEN_ACK:
            values = nucleus.unpack_internal(T_IVC_OPEN_ACK, msg.body, lvc)
            if values is not None and step(
                    ivc, "ivc-endpoint", "recv IVC_OPEN_ACK", nucleus.counters):
                ivc.peer_mtype_name = values["dst_mtype"]
        elif msg.kind == m.IVC_OPEN_NAK:
            values = nucleus.unpack_internal(T_IVC_OPEN_NAK, msg.body, lvc)
            if values is not None and step(
                    ivc, "ivc-endpoint", "recv IVC_OPEN_NAK", nucleus.counters):
                ivc.nak_reason = values["reason"]
        elif msg.kind == m.IVC_CLOSE:
            # The circuit closes; the leg is closed by the side that
            # opened it (PROTOCOL.md §3).
            self._teardown(ivc, "closed by remote", "recv IVC_CLOSE",
                           keep_leg=lvc.inbound)
        elif msg.kind == m.CREDIT_GRANT:
            self._on_credit_grant(ivc, msg)
        elif msg.kind == m.CREDIT_PROBE:
            self._on_credit_probe(ivc, msg)
        else:
            if (msg.flags & m.FLAG_RIDES_OPEN and msg.kind == m.DATA
                    and not ((msg.dst == nucleus.self_addr if ivc.direct
                              else nucleus.is_self(msg.dst)) and _readable(
                        msg.mode, nucleus.mtype_by_name(ivc.peer_mtype_name),
                        nucleus.mtype))):
                # A request that rode the open, for another module (a
                # cached blob now ours), or as an image its sender
                # guessed this machine could read: never delivered, never
                # decoded under that guess.  The sender learns the truth
                # from our answer to its open (PROTOCOL.md §3).  Whom it
                # is for follows the sender's rule for the answer: a
                # direct open keeps only the UAdd it dialled, so only
                # our current one takes a direct rider; a chained open
                # is taken by any identity of ours, and so is its rider.
                nucleus.counters[IVC_RIDERS_REFUSED] += 1
                self.note_discarded(ivc, msg)
                return
            flow = ivc.flow
            if flow is not None and msg.kind == m.DATA and not msg.internal:
                # Piggybacked advertisement: the peer's cumulative
                # consumed counter rides the aux word of its DATA.
                advertised = m.decode_credit(msg.aux)
                if advertised is not None:
                    flow.on_advertised(advertised)
            self._deliver_upcall(ivc, msg)

    def _on_ivc_open_as_endpoint(self, ivc: Ivc, msg: m.Msg) -> None:
        """The final destination of a chained circuit: record the
        originator's identity/machine type and acknowledge end-to-end."""
        nucleus = self.nucleus
        values = nucleus.unpack_internal(T_IVC_OPEN, msg.body, ivc.lvc)
        if values is None:
            return
        if not nucleus.is_self(msg.dst):
            # A chained open for someone else arriving at a plain module:
            # only gateways may forward.  The leg carries no circuit of
            # ours, so what follows on it until the next IVC_OPEN — a
            # request riding this one — is dropped, never delivered.
            nucleus.counters[IVC_OPEN_REFUSED] += 1
            self._by_lvc.pop(ivc.lvc, None)
            self.nd.send(ivc.lvc, nucleus.control(
                m.IVC_OPEN_NAK, msg.src, "ivc_open_nak",
                {"reason": "not a gateway and not the destination"}))
            return
        if msg.src.temporary:
            ivc.peer_addr = nucleus.tadds.allocate()
        else:
            ivc.peer_addr = msg.src
            if values["src_listen_blob"]:
                nucleus.addr_cache.store(
                    msg.src, values["src_listen_blob"], values["src_mtype"]
                )
        ivc.peer_mtype_name = values["src_mtype"]
        ivc.direct = False
        self.nd.send(ivc.lvc, nucleus.control(
            m.IVC_OPEN_ACK, msg.src, "ivc_open_ack",
            {"dst_mtype": nucleus.mtype.name}))

    def _on_lvc_fault(self, lvc: Lvc, reason: str) -> None:
        gateway = self.nucleus.gateway_handler
        if gateway is not None and gateway.on_fault(self.nucleus, lvc, reason):
            # The splice owned this leg; only the accept-time entry is
            # left to forget.
            self._by_lvc.pop(lvc, None)
            return
        ivc = self._by_lvc.get(lvc)
        if ivc is not None:
            self._teardown(ivc, reason, "local lvc_fault")

    @handles("ivc_close")
    def _teardown(self, ivc: Ivc, reason: str, event: str,
                  keep_leg: bool = False) -> None:
        """``event`` (``recv IVC_CLOSE`` or ``local lvc_fault``) ends the
        circuit; the table says FAILED (``open_ivc`` reports) or CLOSED."""
        if not step(ivc, "ivc-endpoint", event, self.nucleus.counters):
            return
        ivc.nak_reason = ivc.nak_reason or reason
        self._by_lvc.pop(ivc.lvc, None)
        if not keep_leg:
            self.nd.close(ivc.lvc, reason)
        if ivc.state == "CLOSED":
            # "Notification is simply passed upward" — the LCM-Layer
            # owns relocation and recovery.
            self._fault_upcall(ivc, reason)

    # -- introspection -----------------------------------------------------------

    def open_ivc_count(self) -> int:
        """Number of currently open IVCs."""
        return sum(1 for ivc in self._by_lvc.values() if ivc.open)
