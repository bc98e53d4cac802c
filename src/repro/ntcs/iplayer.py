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

from repro.conversion.modes import encode_values
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
)
from repro.util.counters import (
    ALI_SEND_BLOCKED, IP_CLOSE_NOTIFY_LOST, IP_CREDIT_GRANTS, IP_CREDIT_PROBES,
    IP_CREDIT_RESYNCS, IP_CREDIT_STALLS, IP_SUSPECT_FALLBACKS, IVC_CHAINED_OPENED,
    IVC_DIRECT_OPENED, IVC_OPEN_REFUSED, LVC_RX_QUEUE_HIGH_WATER,
    ND_MALFORMED_MESSAGES, TOPOLOGY_QUERIES,
)
from repro.util.dispatch import handles

MAX_HOPS = 8

# How many credit probes a zero-credit sender issues (each waiting
# FLOW_PROBE_TIMEOUT virtual seconds for a grant) before the send
# fails as destination-unavailable (PROTOCOL.md §12).
FLOW_PROBE_RETRIES = 3
FLOW_PROBE_TIMEOUT = 1.0

# The IVC endpoint machine, model-checked by ntcsverify (pure literal).
# Anchored: the state names must match the ``.state`` strings this
# module actually assigns/compares.  A direct circuit is constructed
# already in OPEN; a chained one starts in OPENING and leaves it on the
# end-to-end ACK/NAK, on the open timeout (which runs the normal close
# path), or on an LVC fault underneath.
# Alongside it, the ivc-flow machine declares the sender half of the
# credit protocol (PROTOCOL.md §12): every send grows the in-flight
# ledger, every advertisement drains it, and a zero-credit sender
# stalls behind a bounded, timed probe loop — never an unbounded wait.
PROTOCOL_MACHINES = (
    {
        "name": "ivc-endpoint",
        "anchor": True,
        "initial": "OPENING",
        "terminal": ("CLOSED", "FAILED"),
        "states": {
            "OPENING": {
                "waits": True,
                "edges": (
                    {"event": "recv IVC_OPEN_ACK", "next": "OPEN"},
                    {"event": "recv IVC_OPEN_NAK", "next": "FAILED"},
                    {"event": "timeout open_timeout", "next": "CLOSED"},
                    {"event": "recv IVC_CLOSE", "next": "FAILED"},
                    {"event": "local lvc_fault", "next": "FAILED"},
                ),
            },
            "OPEN": {
                "edges": (
                    {"event": "send DATA", "next": "OPEN", "progress": True},
                    {"event": "recv DATA", "next": "OPEN", "progress": True},
                    {"event": "recv IVC_CLOSE", "next": "CLOSED"},
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
                    {"event": "local give_up", "next": "CLOSED"},
                ),
            },
            "CLOSED": {},
        },
    },
)


class Ivc:
    """One internet virtual circuit endpoint."""

    _next_id = 0

    def __init__(self, lvc: Lvc, peer_addr: Optional[Address], direct: bool):
        Ivc._next_id += 1
        self.ivc_id = Ivc._next_id
        self.lvc = lvc
        self.peer_addr = peer_addr
        self.peer_mtype_name = lvc.peer_mtype_name
        self.direct = direct
        self.state = "OPEN" if direct else "OPENING"
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
    """How to reach a destination: directly, or via a first gateway."""

    direct: bool
    blob: str
    gw_uadd: Optional[Address] = None
    dst_network: str = ""


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
        # traffic (E2).
        self.route_cache: Dict[str, Tuple[Optional[Address], str]] = {}
        # Which prime gateway we are currently using toward the Name
        # Server (rotated when one fails; Sec. 3.4's primes are plural).
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

    def open_ivc(self, dst: Address, reason: str = "") -> Ivc:
        """Establish an IVC to ``dst``.  Blocking; raises AddressFault
        or RouteNotFound on failure."""
        nucleus = self.nucleus
        with nucleus.enter(self.LAYER, "open", reason=reason or f"ivc to {dst}"):
            plan = self._plan(dst)
            if plan.direct:
                lvc = self.nd.open_lvc(dst, plan.blob, reason="direct ivc")
                ivc = Ivc(lvc, peer_addr=lvc.peer_addr or dst, direct=True)
                self._attach_flow(ivc)
                self._by_lvc[lvc] = ivc
                nucleus.counters[IVC_DIRECT_OPENED] += 1
                return ivc
            # Chained: open the LVC to the first gateway, then run the
            # end-to-end IVC_OPEN handshake through it.
            gw_dst = plan.gw_uadd or nucleus.tadds.allocate()
            try:
                lvc = self.nd.open_lvc(gw_dst, plan.blob,
                                       reason="first gateway hop")
            except AddressFault as exc:
                # The cached first hop is dead: drop it so the retry
                # replans — from the naming service's current topology,
                # or, for the Name Server itself, the next prime gateway.
                self.route_cache.pop(plan.dst_network, None)
                self.note_gateway_fault(plan.gw_uadd)
                if dst == nucleus.wellknown.ns_uadd:
                    self._prime_index += 1
                raise AddressFault(dst, f"first-hop gateway unreachable: {exc}")
            # Who answered the HELLO, read before the end-to-end reply
            # can replace a TAdd peer with the destination's UAdd.
            hop = lvc.peer_addr
            ivc = Ivc(lvc, peer_addr=dst, direct=False)
            self._attach_flow(ivc)
            self._by_lvc[lvc] = ivc
            open_msg = m.Msg(
                kind=m.IVC_OPEN,
                src=nucleus.self_addr,
                dst=dst,
                flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
                aux=0,
            )
            open_msg.type_id, open_msg.body = nucleus.pack_internal("ivc_open", {
                "dst_network": plan.dst_network,
                "src_mtype": nucleus.mtype.name,
                "src_listen_blob": self.nd.listen_blob or "",
            })
            self.nd.send(lvc, open_msg)
            nucleus.scheduler.pump_until(
                lambda: ivc.state != "OPENING",
                timeout=nucleus.config.open_timeout,
                what=f"ivc open to {dst}",
            )
            if ivc.state != "OPEN":
                failure = ivc.nak_reason or "ivc open timed out"
                self.close(ivc, failure, notify=False)
                # A NAK naming a stale route means the cached first hop
                # may be wrong; drop it so the retry replans.
                self.route_cache.pop(plan.dst_network, None)
                self.note_gateway_fault(plan.gw_uadd)
                if dst == nucleus.wellknown.ns_uadd:
                    self._prime_index += 1
                raise AddressFault(dst, failure)
            if plan.gw_uadd is not None:
                # A chained open through this gateway just worked: any
                # earlier suspicion of it is disproved.
                self._suspect_gateways.discard(plan.gw_uadd)
            # A proven first hop is a route (PROTOCOL.md §3): remember
            # it under the gateway's real UAdd, so suspect marking and
            # eviction treat it as they treat a topology-planned entry.
            if (plan.dst_network and hop is not None and not hop.temporary
                    and not nucleus.is_self(hop)):
                self.route_cache.setdefault(plan.dst_network, (hop, plan.blob))
            nucleus.counters[IVC_CHAINED_OPENED] += 1
            return ivc

    def _plan(self, dst: Address) -> _Plan:
        nucleus = self.nucleus
        local = self.local_network
        wellknown = nucleus.wellknown

        # Bootstrap case: the Name Server, reachable without any naming
        # service involvement (Sec. 3.4).
        if dst == wellknown.ns_uadd:
            blob = wellknown.blob_for(dst, local)
            if blob is not None:
                return _Plan(direct=True, blob=blob)
            prime = wellknown.prime_gateway_blob(local, self._prime_index)
            if prime is None:
                raise RouteNotFound(
                    f"no well-known path to the Name Server from {local!r}"
                )
            ns_nets = wellknown.ns_networks()
            return _Plan(direct=False, blob=prime, gw_uadd=None,
                         dst_network=ns_nets[0] if ns_nets else "")

        # Cached physical address?
        entry = nucleus.addr_cache.lookup(dst)
        if entry is not None:
            net = blob_network(entry.blob)
            if net == local:
                return _Plan(direct=True, blob=entry.blob)
            if dst in nucleus.ns_addresses:
                # A naming-fleet member (replica / shard server) on a
                # remote network: take the well-known prime route.
                # Planning through _first_hop would ask the naming
                # service for the topology — and never ask the naming
                # service where the naming service is (Sec. 3.4).
                prime = wellknown.prime_gateway_blob(local, self._prime_index)
                if prime is None:
                    raise RouteNotFound(
                        f"no well-known path to the naming fleet "
                        f"from {local!r}"
                    )
                return _Plan(direct=False, blob=prime, gw_uadd=None,
                             dst_network=net)
            return self._gateway_plan(dst, net)

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
            return _Plan(direct=True, blob=blob)
        return self._gateway_plan(dst, dst_network)

    def note_gateway_fault(self, gw_uadd: Optional[Address]) -> None:
        """Mark a first-hop gateway suspect (its circuit just failed):
        route planning prefers alternatives until a chained open through
        it succeeds again.  Gateways call this on next-hop failures so
        repaired sends replan around the dead hop."""
        if gw_uadd is not None:
            self._suspect_gateways.add(gw_uadd)

    def _gateway_plan(self, dst: Address, dst_network: str) -> _Plan:
        nucleus = self.nucleus
        local = self.local_network
        cached = self.route_cache.get(dst_network)
        if cached is not None:
            gw_uadd, gw_blob = cached
            return _Plan(direct=False, blob=gw_blob, gw_uadd=gw_uadd,
                         dst_network=dst_network)
        gw_uadd, gw_blob = self._first_hop(local, dst_network)
        self.route_cache[dst_network] = (gw_uadd, gw_blob)
        return _Plan(direct=False, blob=gw_blob, gw_uadd=gw_uadd,
                     dst_network=dst_network)

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

        Flow control (PROTOCOL.md §12) runs here.  An application DATA
        message (not internal, not a reply) debits one credit; at zero
        credit the sender stalls on the run queue behind a bounded
        probe loop — or, with ``block=False`` or on a connectionless
        message, reports :class:`SendWouldBlock` instead of waiting.
        Every non-internal DATA message also piggybacks this end's
        cumulative consumed counter in the aux word, so steady
        bidirectional traffic needs no standalone credit frames at
        all."""
        if not ivc.open:
            raise ChannelClosed(f"{ivc} is not open")
        flow = ivc.flow
        if flow is not None and msg.kind == m.DATA and not msg.internal:
            if not msg.is_reply:
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
        """Park the sending module until the peer advertises credit:
        probe, then pump the run queue under the probe timeout — the
        reproduction's "block the caller, keep the system running"
        idiom (Sec. 6) — for at most FLOW_PROBE_RETRIES rounds."""
        nucleus = self.nucleus
        nucleus.counters[IP_CREDIT_STALLS] += 1
        flow.stalls += 1
        for _ in range(FLOW_PROBE_RETRIES):
            self._send_probe(ivc, flow)
            nucleus.scheduler.pump_until(
                lambda: flow.credit > 0 or not ivc.open,
                timeout=FLOW_PROBE_TIMEOUT,
                what=f"credit on {ivc}",
            )
            if not ivc.open:
                raise ChannelClosed(f"{ivc} closed while stalled for credit")
            if flow.credit > 0:
                return
        raise DestinationUnavailable(
            f"no flow-control credit on {ivc} after {FLOW_PROBE_RETRIES} "
            f"probes ({flow.tx_sent - flow.tx_consumed_seen} unconsumed)"
        )

    def _send_probe(self, ivc: Ivc, flow: FlowState) -> None:
        """Tell the peer our cumulative sent counter and ask where its
        consumed counter is.  The aux word carries the same counter so
        gateways can track the direction's high watermark."""
        nucleus = self.nucleus
        probe = m.Msg(
            kind=m.CREDIT_PROBE,
            src=nucleus.self_addr,
            dst=ivc.peer_addr or nucleus.self_addr,
            flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
            aux=m.encode_credit(flow.tx_sent),
        )
        probe.type_id, probe.body = nucleus.pack_internal(
            "credit_probe", {"sent": flow.tx_sent}
        )
        self.nd.send(ivc.lvc, probe)
        nucleus.counters[IP_CREDIT_PROBES] += 1

    def _send_grant(self, ivc: Ivc, flow: FlowState) -> None:
        nucleus = self.nucleus
        advertised = flow.advertised()
        grant = m.Msg(
            kind=m.CREDIT_GRANT,
            src=nucleus.self_addr,
            dst=ivc.peer_addr or nucleus.self_addr,
            flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
            aux=m.encode_credit(advertised),
        )
        grant.type_id, grant.body = nucleus.pack_internal(
            "credit_grant", {"consumed": advertised, "window": flow.window}
        )
        flow.grant_owed = False
        self.nd.send(ivc.lvc, grant)
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
            values = self.nucleus.unpack_internal(T_CREDIT_GRANT, msg.body)
            advertised = values["consumed"]
        flow.on_advertised(advertised)

    def _on_credit_probe(self, ivc: Ivc, msg: m.Msg) -> None:
        nucleus = self.nucleus
        values = nucleus.unpack_internal(T_CREDIT_PROBE, msg.body)
        flow = ivc.flow
        if flow is None:
            # Flow control is off on this end but the peer runs it:
            # answer with a full grant so a mixed deployment never
            # wedges.  (The all-off ablation sees no probes at all, so
            # its wire stays byte-identical.)
            grant = m.Msg(
                kind=m.CREDIT_GRANT,
                src=nucleus.self_addr,
                dst=ivc.peer_addr or nucleus.self_addr,
                flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
                aux=m.encode_credit(values["sent"]),
            )
            grant.type_id, grant.body = nucleus.pack_internal(
                "credit_grant", {"consumed": values["sent"],
                                 "window": nucleus.config.flow_window}
            )
            self.nd.send(ivc.lvc, grant)
            nucleus.counters[IP_CREDIT_GRANTS] += 1
            return
        flow.on_probe(values["sent"])
        self._send_grant(ivc, flow)
        if flow.rx_queued > flow.low_watermark:
            # The grant could not have freed much: the receive queue is
            # still deep.  Owe the peer an unsolicited grant for when
            # consumption drains it past the low watermark.
            flow.grant_owed = True

    def note_arrival(self, ivc: Ivc, queued: bool) -> None:
        """LCM hook: one flow-debited message arrived on ``ivc``;
        ``queued`` when it entered the receive queue."""
        flow = ivc.flow
        if flow is None:
            return
        flow.on_arrival(queued)
        if queued:
            lvc = ivc.lvc
            lvc.rx_depth += 1
            if lvc.rx_depth > lvc.rx_high_water:
                lvc.rx_high_water = lvc.rx_depth
                counters = self.nucleus.counters
                if lvc.rx_depth > counters[LVC_RX_QUEUE_HIGH_WATER]:
                    counters[LVC_RX_QUEUE_HIGH_WATER] = lvc.rx_depth

    def note_consumed(self, ivc: Ivc, from_queue: bool = True) -> None:
        """LCM hook: one flow-debited message was disposed of (handler
        returned, ``receive()`` popped it, duplicate suppressed, or
        overload-dropped).  Sends the owed grant once the queue drains
        to the low watermark."""
        flow = ivc.flow
        if flow is None:
            return
        flow.on_consumed(from_queue)
        if from_queue:
            lvc = ivc.lvc
            if lvc.rx_depth > 0:
                lvc.rx_depth -= 1
        if (flow.grant_owed and ivc.open
                and flow.rx_queued <= flow.low_watermark):
            self._send_grant(ivc, flow)

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

    def close(self, ivc: Ivc, reason: str, notify: bool = True) -> None:
        """Close an IVC (optionally notifying the peer with IVC_CLOSE)."""
        if ivc.state == "CLOSED":
            return
        if notify and ivc.open:
            close_msg = m.Msg(
                kind=m.IVC_CLOSE,
                src=self.nucleus.self_addr,
                dst=ivc.peer_addr or self.nucleus.self_addr,
                flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
            )
            close_msg.type_id, close_msg.body = self.nucleus.pack_internal(
                "ivc_close", {"reason": reason[:90]}
            )
            try:
                self.nd.send(ivc.lvc, close_msg)
            except ChannelClosed:
                # The channel died before the courtesy close got out.
                self.nucleus.counters[IP_CLOSE_NOTIFY_LOST] += 1
        ivc.state = "CLOSED"
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
                return
            # A kept inbound leg (PROTOCOL.md §3) awaits its next
            # circuit's IVC_OPEN as it did at accept.
            ivc = self._on_lvc_accept(lvc)
        # This message terminates here: settle the checksum deferred by
        # the ND-Layer (once end-to-end, not once per hop).
        if not msg.checksum_ok():
            nucleus.counters[ND_MALFORMED_MESSAGES] += 1
            self._teardown(ivc, "header checksum mismatch")
            return
        if msg.kind == m.IVC_OPEN:
            self._on_ivc_open_as_endpoint(ivc, msg)
        elif msg.kind == m.IVC_OPEN_ACK:
            values = nucleus.unpack_internal(T_IVC_OPEN_ACK, msg.body)
            ivc.peer_mtype_name = values["dst_mtype"]
            ivc.state = "OPEN"
        elif msg.kind == m.IVC_OPEN_NAK:
            values = nucleus.unpack_internal(T_IVC_OPEN_NAK, msg.body)
            ivc.nak_reason = values["reason"]
            ivc.state = "FAILED"
        elif msg.kind == m.IVC_CLOSE:
            # The circuit closes; the leg is closed by the side that
            # opened it (PROTOCOL.md §3).
            self._teardown(ivc, "closed by remote", keep_leg=lvc.inbound)
        elif msg.kind == m.CREDIT_GRANT:
            self._on_credit_grant(ivc, msg)
        elif msg.kind == m.CREDIT_PROBE:
            self._on_credit_probe(ivc, msg)
        else:
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
        values = nucleus.unpack_internal(T_IVC_OPEN, msg.body)
        if not nucleus.is_self(msg.dst):
            # A chained open for someone else arriving at a plain module:
            # only gateways may forward.
            nucleus.counters[IVC_OPEN_REFUSED] += 1
            nak = m.Msg(
                kind=m.IVC_OPEN_NAK, src=nucleus.self_addr, dst=msg.src,
                flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
            )
            nak.type_id, nak.body = nucleus.pack_internal(
                "ivc_open_nak", {"reason": "not a gateway and not the destination"}
            )
            self.nd.send(ivc.lvc, nak)
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
        ack = m.Msg(
            kind=m.IVC_OPEN_ACK, src=nucleus.self_addr, dst=msg.src,
            flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
        )
        ack.type_id, ack.body = nucleus.pack_internal(
            "ivc_open_ack", {"dst_mtype": nucleus.mtype.name}
        )
        self.nd.send(ivc.lvc, ack)

    def _on_lvc_fault(self, lvc: Lvc, reason: str) -> None:
        gateway = self.nucleus.gateway_handler
        if gateway is not None and gateway.on_fault(self.nucleus, lvc, reason):
            # The splice owned this leg; only the accept-time entry is
            # left to forget.
            self._by_lvc.pop(lvc, None)
            return
        ivc = self._by_lvc.get(lvc)
        if ivc is not None:
            self._teardown(ivc, reason)

    @handles("ivc_close")
    def _teardown(self, ivc: Ivc, reason: str, keep_leg: bool = False) -> None:
        if ivc.state == "CLOSED":
            return
        was_opening = ivc.state == "OPENING"
        ivc.state = "FAILED" if was_opening else "CLOSED"
        ivc.nak_reason = ivc.nak_reason or reason
        self._by_lvc.pop(ivc.lvc, None)
        if not keep_leg:
            self.nd.close(ivc.lvc, reason)
        if not was_opening:
            # "Notification is simply passed upward" — the LCM-Layer
            # owns relocation and recovery.
            self._fault_upcall(ivc, reason)

    # -- introspection -----------------------------------------------------------

    def open_ivc_count(self) -> int:
        """Number of currently open IVCs."""
        return sum(1 for ivc in self._by_lvc.values() if ivc.open)
