"""The portable Gateway module (paper Secs. 4.1–4.3).

"The Gateway and IP-layers are both entirely portable.  This not only
simplified their design, but allows the *same* Gateway module to be
used for all networks and machines.  The ability for each Gateway
module to communicate with different networks is handled by the
independent ComMods with which it binds.  Each ComMod is bound with an
ND-Layer designed for one of the networks.  Thus, no network-dependent
issues are visible within the Gateway."

A :class:`Gateway` owns one Nucleus *stack* per attached network and a
splice table pairing inbound and outbound LVCs of pass-through
circuits.  It establishes each circuit hop autonomously, consulting
only the naming service for topology ("no inter-gateway communication
ever takes place" — there is no gateway-to-gateway routing protocol,
and :attr:`inter_gateway_control_messages` counts the proof).

Failure handling follows Sec. 4.3 exactly: a dead LVC on one side makes
the gateway "instruct the IP-layer on the other side of the link to
close the associated IVC", propagating the teardown hop-by-hop back to
the originating module.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import (
    AddressFault,
    NameServerUnreachable,
    NoSuchAddress,
    NtcsError,
    ProtocolError,
    RouteNotFound,
)
from repro.ntcs import message as m
from repro.ntcs.address import Address
from repro.ntcs.iplayer import MAX_HOPS
from repro.ntcs.ndlayer import Lvc
from repro.ntcs.nucleus import Nucleus, NucleusConfig
from repro.ntcs.protocol import T_IVC_OPEN
from repro.util.counters import (
    GATEWAY_CHECKSUM_VERIFIES_DEFERRED,
    GATEWAY_CREDIT_CLAMPS,
    GATEWAY_CREDIT_DROPS,
)


class _SpliceCredit:
    """What one spliced LVC's direction has shown the gateway: frames
    it debited through, and the cumulative counters gleaned from the
    headers (PROTOCOL.md §12).  Dies with the splice — a re-established
    circuit starts a fresh ledger, matching the endpoints' fresh
    :class:`~repro.ntcs.flow.FlowState`."""

    __slots__ = ("debits", "sent_seen", "consumed_seen")

    def __init__(self):
        # Flow-debited DATA frames forwarded from this leg.
        self.debits = 0
        # The sender's cumulative tx counter, from credit probes.
        self.sent_seen = 0
        # The far receiver's cumulative consumed counter, from
        # advertisements arriving on the *other* leg.
        self.consumed_seen = 0


class Gateway:
    """One gateway module, spanning every network its machine touches.

    Args:
        process: the gateway's process (its machine must be attached to
            at least two networks).
        registry: the deployment's conversion registry.
        wellknown: the deployment's well-known address table.
        config: Nucleus configuration shared by all stacks.
        bindings: optional network -> binding (TCP port / MBX pathname)
            pinning each stack's listening endpoint.  A restarted
            gateway passes its previous bindings so well-known prime
            blobs and peers' cached routes stay valid (PROTOCOL.md §10).
    """

    def __init__(self, process, registry, wellknown,
                 config: Optional[NucleusConfig] = None,
                 bindings: Optional[Dict[str, str]] = None):
        self.process = process
        self.wellknown = wellknown
        networks = process.machine.networks
        if len(networks) < 2:
            raise NtcsError(
                f"gateway host {process.machine.name} is attached to "
                f"{len(networks)} network(s); a gateway needs at least 2"
            )
        self.stacks: Dict[str, Nucleus] = {}
        for network in networks:
            nucleus = Nucleus(process, network, registry, wellknown, config=config)
            nucleus.gateway_handler = self
            nucleus.nd.create_resource((bindings or {}).get(network))
            self.stacks[network] = nucleus
        # inbound/outbound pairing of pass-through circuits.
        self._splices: Dict[Lvc, Tuple[Nucleus, Lvc]] = {}
        # Per-leg credit observations for flow enforcement on the
        # splice path (PROTOCOL.md §12); all stacks share one config.
        self._splice_credit: Dict[Lvc, _SpliceCredit] = {}
        self.config = next(iter(self.stacks.values())).config
        self.uadd: Optional[Address] = None
        self.name: str = f"gateway.{process.name}"
        # E5's absence proof: never incremented anywhere.
        self.inter_gateway_control_messages = 0
        self.circuits_established = 0
        self.circuits_refused = 0
        self.messages_forwarded = 0
        self.teardowns_propagated = 0
        # Fast-path accounting (PROTOCOL.md, "Fast path and wire
        # invariance"): frames spliced through without re-serialization,
        # and header-checksum verifications this hop did *not* perform.
        self.frames_forwarded_zero_copy = 0
        self.checksum_verifies_deferred = 0
        # Flow enforcement on the splice path (PROTOCOL.md §12).
        self.credit_overruns_dropped = 0
        self.credit_clamps = 0
        # Always 0: read by bench_e2e/workloads.py (SimWorkload.counters).
        self.train_splices = 0

    # -- registration (Sec. 4.1: "their logical name and connected
    # networks are registered with the naming service; the same as any
    # application module") ----------------------------------------------------

    def register(self) -> Address:
        """Register this gateway (name + all networks) with the naming
        service, through the NSP-Layer its builder attached to each
        stack (``nucleus.nsp``; the gateway sits below the NSP-Layer
        in Fig. 2-1 and does not construct one itself)."""
        addresses = [
            (network, nucleus.nd.listen_blob)
            for network, nucleus in sorted(self.stacks.items())
        ]
        primary = self._primary_stack()
        self.uadd = primary.require_nsp().register(
            name=self.name,
            attrs={"kind": "gateway", "networks": ",".join(sorted(self.stacks))},
            addresses=addresses,
            mtype_name=self.process.machine.mtype.name,
        )
        for nucleus in self.stacks.values():
            nucleus.set_identity(self.uadd)

        # Best effort, like any module's graceful death: lets the
        # naming service exclude this gateway from future routes.
        self.process.at_kill(
            lambda: primary.require_nsp().deregister_on_death(self.uadd))
        return self.uadd

    def _primary_stack(self) -> Nucleus:
        # Prefer a stack that can reach the Name Server directly.
        for network, nucleus in sorted(self.stacks.items()):
            if self.wellknown.ns_reachable_directly(network):
                return nucleus
        return self.stacks[sorted(self.stacks)[0]]

    # -- the hook the IP-Layer calls ---------------------------------------------

    def handle(self, nucleus: Nucleus, lvc: Lvc, msg: m.Msg) -> bool:
        """First crack at every message on this stack.  Returns True
        when the message belonged to the pass-through plane."""
        if lvc in self._splices:
            # Only a teardown gets here decoded: the frame tap forwards
            # every other kind on a spliced LVC from its header view.
            self._forward_close(lvc, msg)
            return True
        if msg.kind == m.IVC_OPEN and not self._is_mine(msg.dst):
            # The gateway terminates the IVC_OPEN at each hop (it
            # unpacks the body to route), so the deferred header
            # checksum is settled here before the body is touched.
            if not msg.checksum_ok():
                nucleus.counters.incr("nd_malformed_messages")
                nucleus.nd.close(lvc, "IVC_OPEN header checksum mismatch")
                return True
            self._establish(nucleus, lvc, msg)
            return True
        return False

    def on_fault(self, nucleus: Nucleus, lvc: Lvc, reason: str) -> bool:
        """A spliced LVC died: close the other side (Sec. 4.3)."""
        splice = self._dismantle(lvc)
        if splice is None:
            return False
        other_nucleus, other_lvc = splice
        close_msg = m.Msg(
            kind=m.IVC_CLOSE,
            src=nucleus.self_addr,
            dst=other_lvc.peer_addr or nucleus.self_addr,
            flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
        )
        close_msg.type_id, close_msg.body = nucleus.pack_internal(
            "ivc_close", {"reason": f"upstream circuit failed: {reason}"[:90]}
        )
        try:
            other_nucleus.nd.send(other_lvc, close_msg)
        except NtcsError:
            # Best-effort: the surviving leg may already be down too.
            other_nucleus.counters.incr("gateway_close_notify_lost")
        other_nucleus.ip.close_spliced(other_lvc, "splice peer failed")
        return True

    def _dismantle(self, lvc: Lvc) -> Optional[Tuple[Nucleus, Lvc]]:
        """Forget the splice ``lvc`` is one leg of — both directions,
        both credit ledgers — and return its other leg, or None when
        ``lvc`` is not spliced."""
        splice = self._splices.pop(lvc, None)
        if splice is None:
            return None
        other_lvc = splice[1]
        self._splices.pop(other_lvc, None)
        self._splice_credit.pop(lvc, None)
        self._splice_credit.pop(other_lvc, None)
        self.teardowns_propagated += 1
        return splice

    def _is_mine(self, addr: Address) -> bool:
        if self.uadd is not None and addr == self.uadd:
            return True
        return any(nucleus.is_self(addr) for nucleus in self.stacks.values())

    # -- circuit establishment -----------------------------------------------

    def _establish(self, in_nucleus: Nucleus, in_lvc: Lvc, msg: m.Msg) -> None:
        values = in_nucleus.unpack_internal(T_IVC_OPEN, msg.body)
        dst_network = values["dst_network"]
        hops = msg.aux
        if hops >= MAX_HOPS:
            self.circuits_refused += 1
            self._nak(in_nucleus, in_lvc, msg, "hop count exceeded")
            return
        try:
            out_nucleus, out_lvc = self._open_next_hop(msg.dst, dst_network)
        except (AddressFault, RouteNotFound, NoSuchAddress, NtcsError) as exc:
            self.circuits_refused += 1
            self._nak(in_nucleus, in_lvc, msg, str(exc))
            return
        # Splice before forwarding so the returning IVC_OPEN_ACK already
        # has a path back upstream.
        self._splices[in_lvc] = (out_nucleus, out_lvc)
        self._splices[out_lvc] = (in_nucleus, in_lvc)
        # Spliced frames bypass decoding entirely: the ND-Layer hands
        # each raw inbound frame to _fast_forward, which routes on the
        # header view alone (words 1–6) without materializing a Msg.
        in_lvc.frame_tap = lambda raw: self._fast_forward(in_lvc, raw)
        out_lvc.frame_tap = lambda raw: self._fast_forward(out_lvc, raw)
        self.circuits_established += 1
        # Forward the original frame with only the hop-count (aux) and
        # checksum words patched in place — no header re-serialization.
        out_nucleus.nd.send_frame(
            out_lvc, m.patch_frame_aux(msg.encode(), hops + 1)
        )

    def _open_next_hop(self, dst: Address, dst_network: str) -> Tuple[Nucleus, Lvc]:
        """Open the next LVC of the chain: to the destination itself
        when its network is one of ours, else to the next gateway
        toward it — chosen with the same naming-service machinery the
        originating IP-Layer used (Sec. 4.1)."""
        if dst_network in self.stacks:
            out_nucleus = self.stacks[dst_network]
            blob = self.wellknown.blob_for(dst, dst_network)
            if blob is None:
                record = self._resolve_via_any_stack(dst, preferred=out_nucleus)
                blob = record.blob_on(dst_network)
                if blob is None:
                    raise AddressFault(
                        dst, f"not reachable on {dst_network!r}"
                    )
            lvc = out_nucleus.nd.open_lvc(dst, blob, reason="final chain hop")
            return out_nucleus, lvc
        # Route onward: first hop toward dst_network from any of our
        # stacks (each stack's IP-Layer owns the BFS and its cache).
        errors = []
        for network, nucleus in sorted(self.stacks.items()):
            try:
                plan = nucleus.ip._gateway_plan(dst, dst_network)
            except (RouteNotFound, NtcsError) as exc:
                errors.append(str(exc))
                continue
            gw_dst = plan.gw_uadd or nucleus.tadds.allocate()
            if self.uadd is not None and plan.gw_uadd == self.uadd:
                continue  # never route through ourselves
            try:
                lvc = nucleus.nd.open_lvc(gw_dst, plan.blob,
                                          reason="next gateway hop")
            except AddressFault as exc:
                # The chosen next gateway is dead (Sec. 4.3): evict the
                # stale route so the next establishment replans from the
                # naming service's current topology, mark the hop
                # suspect, and try the remaining stacks.
                nucleus.ip.route_cache.pop(dst_network, None)
                nucleus.ip.note_gateway_fault(plan.gw_uadd)
                errors.append(str(exc))
                continue
            return nucleus, lvc
        raise RouteNotFound(
            f"no onward route to {dst_network!r}: {'; '.join(errors) or 'no gateways'}"
        )

    def _resolve_via_any_stack(self, dst: Address, preferred: Nucleus):
        """Resolve a UAdd through whichever of our stacks can currently
        reach the naming service.  All stacks query the same service;
        a stack whose own bootstrap route toward it is down (e.g. its
        prime gateway died) must not doom the resolution."""
        candidates = [preferred] + [
            nucleus for nucleus in self.stacks.values()
            if nucleus is not preferred
        ]
        last_error: Optional[Exception] = None
        for nucleus in candidates:
            try:
                return nucleus.require_nsp().resolve_uadd(dst)
            except NameServerUnreachable as exc:
                last_error = exc
        raise last_error

    def _nak(self, nucleus: Nucleus, lvc: Lvc, msg: m.Msg, reason: str) -> None:
        nak = m.Msg(
            kind=m.IVC_OPEN_NAK, src=nucleus.self_addr, dst=msg.src,
            flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
        )
        nak.type_id, nak.body = nucleus.pack_internal(
            "ivc_open_nak", {"reason": reason[:90]}
        )
        try:
            nucleus.nd.send(lvc, nak)
        except NtcsError:
            # Best-effort refusal: the opener may already be gone.
            nucleus.counters.incr("gateway_nak_lost")

    # -- pass-through forwarding -----------------------------------------------

    def _fast_forward(self, in_lvc: Lvc, raw: bytes) -> bool:
        """The zero-copy splice: forward a raw inbound frame from its
        header view alone.  Returns False (frame not consumed) for
        anything needing the full path — IVC_CLOSE teardown, malformed
        frames, or a dismantled splice — which then goes through decode
        and :meth:`handle` as before."""
        splice = self._splices.get(in_lvc)
        if splice is None:
            return False
        try:
            header = m.HeaderView(raw)
        except ProtocolError:
            return False  # let the ND-Layer's malformed handling run
        if header.kind == m.IVC_CLOSE:
            return False
        out_nucleus, out_lvc = splice
        raw, forward = self._enforce_credit(
            in_lvc, out_nucleus, out_lvc, header, raw)
        if not forward:
            return True  # consumed: dropped by flow enforcement
        self.messages_forwarded += 1
        self.frames_forwarded_zero_copy += 1
        # This hop neither verified the header sum nor re-serialized:
        # the terminating endpoint settles the checksum once.
        self.checksum_verifies_deferred += 1
        out_nucleus.counters.incr(GATEWAY_CHECKSUM_VERIFIES_DEFERRED)
        try:
            out_nucleus.nd.send_frame(out_lvc, raw)
        except NtcsError:
            # The downstream leg died with traffic in flight: messages
            # "may get lost in Gateway queues during this
            # reconfiguration" (Sec. 4.3).
            out_nucleus.counters.incr("gateway_messages_dropped")
        return True

    def _enforce_credit(self, in_lvc: Lvc, out_nucleus: Nucleus,
                        out_lvc: Lvc, header: m.HeaderView,
                        raw: bytes) -> Tuple[bytes, bool]:
        """Credit bookkeeping on the zero-copy path (PROTOCOL.md §12).

        The gateway is not a flow endpoint — it keeps no queue of its
        own to defend — but it can police the circuits it splices from
        the header words alone: a sender that has overrun its window
        twice over (a flow-disabled or misbehaving stack flooding a
        stalled receiver) gets its excess dropped here instead of
        accumulating downstream, and an advertisement inflated beyond
        anything ever sent is patched down in place — aux and checksum
        words only, no Msg materialized — so forged credit cannot mint
        window the sender never earned.  Returns the (possibly
        patched) frame and whether to forward it."""
        if not self.config.flow_control_enabled:
            return raw, True
        state = self._splice_credit.get(in_lvc)
        if state is None:
            state = self._splice_credit[in_lvc] = _SpliceCredit()
        if header.kind == m.CREDIT_PROBE:
            sent = header.credit
            if sent is not None and sent > state.sent_seen:
                state.sent_seen = sent
            return raw, True
        advertised = header.credit
        if advertised is not None and header.kind in (m.DATA, m.CREDIT_GRANT):
            # An advertisement arriving on this leg covers traffic of
            # the opposite direction: frames that arrived on out_lvc.
            peer = self._splice_credit.get(out_lvc)
            if peer is None:
                peer = self._splice_credit[out_lvc] = _SpliceCredit()
            bound = max(peer.debits, peer.sent_seen)
            if advertised > bound:
                raw = m.patch_frame_aux(raw, m.encode_credit(bound))
                self.credit_clamps += 1
                out_nucleus.counters.incr(GATEWAY_CREDIT_CLAMPS)
                advertised = bound
            if advertised > peer.consumed_seen:
                peer.consumed_seen = advertised
        if (header.kind == m.DATA and not header.flags & m.FLAG_INTERNAL
                and not header.flags & m.FLAG_IS_REPLY):
            if (state.debits - state.consumed_seen
                    >= 2 * self.config.flow_window):
                self.credit_overruns_dropped += 1
                out_nucleus.counters.incr(GATEWAY_CREDIT_DROPS)
                return raw, False
            state.debits += 1
        return raw, True

    def _forward_close(self, in_lvc: Lvc, msg: m.Msg) -> None:
        """Propagate an IVC_CLOSE and dismantle the splice (Sec. 4.3)."""
        out_nucleus, out_lvc = self._dismantle(in_lvc)
        try:
            out_nucleus.nd.send(out_lvc, msg)
        except NtcsError:
            # The other leg is failing with the circuit; the close
            # below dismantles it regardless.
            out_nucleus.counters.incr("gateway_close_notify_lost")
        out_nucleus.ip.close_spliced(out_lvc, "ivc closed")

    # -- introspection -------------------------------------------------------

    def splice_count(self) -> int:
        """Number of pass-through circuits currently spliced."""
        return len(self._splices) // 2
