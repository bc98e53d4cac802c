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
and :attr:`inter_gateway_control_messages` is the proof: a constant 0).

Failure handling follows Sec. 4.3 exactly: a dead LVC on one side makes
the gateway "instruct the IP-layer on the other side of the link to
close the associated IVC", propagating the teardown hop-by-hop back to
the originating module.  The teardown closes the *circuit*, not the
legs: an LVC is closed by the side that opened it, and a gateway parks
the legs it opened for the next circuit to the same peer (PROTOCOL.md
§3, "Kept legs").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import (
    AddressFault,
    NameServerUnreachable,
    NoSuchAddress,
    NtcsError,
    ProtocolError,
    RouteNotFound,
)
from repro.ntcs import message as m
from repro.ntcs.address import Address, blob_network
from repro.ntcs.iplayer import MAX_HOPS, OPEN_RIDERS
from repro.ntcs.ndlayer import Lvc
from repro.ntcs.nucleus import Nucleus, NucleusConfig
from repro.ntcs.protocol import T_IVC_OPEN
from repro.util.counters import (
    GATEWAY_CIRCUITS_ESTABLISHED, GATEWAY_CIRCUITS_REFUSED, GATEWAY_CLOSE_NOTIFY_LOST,
    GATEWAY_CREDIT_CLAMPS, GATEWAY_CREDIT_DROPS, GATEWAY_FRAMES_SPLICED,
    GATEWAY_HELD_DROPPED, GATEWAY_LEGS_REUSED, GATEWAY_MESSAGES_DROPPED, GATEWAY_NAK_LOST,
    GATEWAY_STALE_ADDR_FALLBACKS, GATEWAY_TEARDOWNS,
)


# What an originator may send on a leg before its IVC_OPEN is answered:
# the request riding the open, and an IVC_CLOSE.  A gateway holds that
# much while it dials the next hop (PROTOCOL.md §3).
HOLD_LIMIT = OPEN_RIDERS + 1


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


def _stacks_total(metric: str) -> property:
    """A read-only Gateway attribute: ``metric`` summed over its stacks."""
    return property(lambda self: sum(
        nucleus.counters[metric] for nucleus in self.stacks.values()))


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

    Its counts live in its stacks' stores, each event on the stack where
    it happens; the attributes below are their sums.
    """

    # E5's absence proofs: no code path sends gateway-to-gateway control
    # (Sec. 4.2), and the splice forwards frame by frame.
    inter_gateway_control_messages = 0
    train_splices = 0
    circuits_established = _stacks_total(GATEWAY_CIRCUITS_ESTABLISHED)
    circuits_refused = _stacks_total(GATEWAY_CIRCUITS_REFUSED)
    teardowns_propagated = _stacks_total(GATEWAY_TEARDOWNS)
    # Fast-path accounting (PROTOCOL.md, "Fast path and wire
    # invariance"): every forwarded frame went through zero-copy, and
    # this hop deferred its header-checksum verification.
    messages_forwarded = _stacks_total(GATEWAY_FRAMES_SPLICED)
    frames_forwarded_zero_copy = checksum_verifies_deferred = messages_forwarded
    # Flow enforcement on the splice path (PROTOCOL.md §12).
    credit_overruns_dropped = _stacks_total(GATEWAY_CREDIT_DROPS)
    credit_clamps = _stacks_total(GATEWAY_CREDIT_CLAMPS)
    # Circuits that took a parked leg instead of dialling (PROTOCOL.md §3).
    legs_reused = _stacks_total(GATEWAY_LEGS_REUSED)

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
        # inbound/outbound pairing of pass-through circuits: each leg
        # maps to the other leg, and to whether the circuit shares legs
        # (takes a parked one, and parks its own at teardown).
        self._splices: Dict[Lvc, Tuple[Nucleus, Lvc, bool]] = {}
        # Per-leg credit observations for flow enforcement on the
        # splice path (PROTOCOL.md §12); all stacks share one config.
        self._splice_credit: Dict[Lvc, _SpliceCredit] = {}
        # Open legs this gateway dialled whose circuits have closed, by
        # the peer UAdd they reach: the next circuit to that peer takes
        # one instead of dialling.  A leg leaves when it is taken, when
        # it dies (its fault upcall), or with the gateway.
        self._parked: Dict[Address, List[Tuple[Nucleus, Lvc]]] = {}
        process.at_kill(self._parked.clear)
        self.config = next(iter(self.stacks.values())).config
        self.uadd: Optional[Address] = None
        self.name: str = f"gateway.{process.name}"

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
            self._forward_close(nucleus, lvc, msg)
            return True
        if msg.kind == m.IVC_OPEN and not self._is_mine(msg.dst):
            # The gateway terminates the IVC_OPEN at each hop (it
            # unpacks the body to route), so the deferred header
            # checksum is settled here before the body is touched.
            if not msg.checksum_ok():
                nucleus.nd.malformed(lvc)
                return True
            self._establish(nucleus, lvc, msg)
            return True
        return False

    def on_fault(self, nucleus: Nucleus, lvc: Lvc, reason: str) -> bool:
        """A spliced LVC died: close the circuit on the other side
        (Sec. 4.3).  A parked leg that died just leaves the idle set."""
        splice = self._dismantle(lvc)
        if splice is None:
            self._unpark(nucleus, lvc)
            return False
        other_nucleus, other_lvc, shared = splice
        close_msg = nucleus.control(
            m.IVC_CLOSE, other_lvc.peer_addr or nucleus.self_addr, "ivc_close",
            {"reason": f"upstream circuit failed: {reason}"[:90]})
        try:
            other_nucleus.nd.send(other_lvc, close_msg)
        except NtcsError:
            # Best-effort: the surviving leg may already be down too.
            other_nucleus.counters[GATEWAY_CLOSE_NOTIFY_LOST] += 1
        self._release(other_nucleus, other_lvc, shared, "splice peer failed")
        return True

    def _dismantle(self, lvc: Lvc) -> Optional[Tuple[Nucleus, Lvc, bool]]:
        """Forget the splice ``lvc`` is one leg of — both directions,
        both credit ledgers — and return its other leg and whether the
        circuit shares legs, or None when ``lvc`` is not spliced."""
        splice = self._splices.pop(lvc, None)
        if splice is None:
            return None
        other_nucleus, other_lvc, _shared = splice
        self._splices.pop(other_lvc, None)
        self._splice_credit.pop(lvc, None)
        self._splice_credit.pop(other_lvc, None)
        lvc.frame_tap = other_lvc.frame_tap = None
        other_nucleus.counters[GATEWAY_TEARDOWNS] += 1
        return splice

    # -- kept legs (PROTOCOL.md §3) ----------------------------------------------

    def _release(self, nucleus: Nucleus, lvc: Lvc, shared: bool,
                 reason: str) -> None:
        """A leg whose circuit just closed.  An LVC is closed by the
        side that opened it: an open inbound leg is left to its opener;
        an open leg this gateway dialled for a circuit that shares legs
        is parked for the next circuit to its peer, when that peer is
        registered and is the one that answered; anything else is
        closed."""
        if lvc.open:
            if lvc.inbound:
                return
            peer = lvc.dialled
            if shared and not peer.temporary and peer == lvc.peer_addr:
                self._parked.setdefault(peer, []).append((nucleus, lvc))
                return
        nucleus.nd.close(lvc, reason)

    def _take_parked(self, nucleus: Nucleus, peer: Address) -> Optional[Lvc]:
        """A parked, still-open leg from ``nucleus`` to ``peer``, taken
        out of the idle set and guarded by :meth:`_until_open_reply`;
        None when there is none."""
        for owner, lvc in reversed(self._parked.get(peer, ())):
            if owner is nucleus and lvc.open:
                self._unpark(nucleus, lvc)
                nucleus.counters[GATEWAY_LEGS_REUSED] += 1
                lvc.frame_tap = lambda raw: self._until_open_reply(lvc, raw)
                return lvc
        return None

    def _until_open_reply(self, lvc: Lvc, raw: bytes) -> bool:
        """The frame tap of a taken leg until its new circuit's
        IVC_OPEN is answered.  The peer answers that IVC_OPEN before it
        sends the new circuit anything else, so another frame arriving
        first was sent on the circuit that closed: it is consumed and
        dropped.  An IVC_CLOSE goes on to :meth:`handle`, since it may
        end the circuit still opening."""
        try:
            kind = m.HeaderView(raw).kind
        except ProtocolError:
            return False  # let the ND-Layer's malformed handling run
        if kind == m.IVC_CLOSE:
            return False
        if kind in (m.IVC_OPEN_ACK, m.IVC_OPEN_NAK):
            lvc.frame_tap = lambda frame: self._fast_forward(lvc, frame)
            return self._fast_forward(lvc, raw)
        return True

    def _unpark(self, nucleus: Nucleus, lvc: Lvc) -> None:
        """Take ``lvc`` out of the idle set, if it is parked."""
        legs = self._parked.get(lvc.dialled)
        if legs and (nucleus, lvc) in legs:
            legs.remove((nucleus, lvc))
            if not legs:
                del self._parked[lvc.dialled]

    def _is_mine(self, addr: Address) -> bool:
        if self.uadd is not None and addr == self.uadd:
            return True
        return any(nucleus.is_self(addr) for nucleus in self.stacks.values())

    # -- circuit establishment -----------------------------------------------

    def _establish(self, in_nucleus: Nucleus, in_lvc: Lvc, msg: m.Msg) -> None:
        values = in_nucleus.unpack_internal(T_IVC_OPEN, msg.body, in_lvc)
        if values is None:
            return
        dst_network = values["dst_network"]
        hops = msg.aux
        if hops >= MAX_HOPS:
            in_nucleus.counters[GATEWAY_CIRCUITS_REFUSED] += 1
            self._nak(in_nucleus, in_lvc, msg, "hop count exceeded")
            return
        # A naming circuit from our direct neighbour (a gateway's own,
        # above all) stays open as long as its module: it dials its own
        # legs and closes them with it, leaving the parked legs to the
        # circuits that come and go (PROTOCOL.md §3, "Kept legs").
        shared = (msg.src != in_lvc.peer_addr
                  or msg.dst not in in_nucleus.ns_addresses)
        # Dialling pumps the run queue, and a request riding the open
        # may arrive meanwhile: hold what the leg carries until the
        # IVC_OPEN has gone on, so it follows in arrival order.
        held: List[bytes] = []
        in_lvc.frame_tap = lambda raw: self._hold(in_nucleus, held, raw)
        try:
            out_nucleus, out_lvc = self._open_next_hop(
                msg.dst, dst_network, shared)
        except (AddressFault, RouteNotFound, NoSuchAddress, NtcsError) as exc:
            in_lvc.frame_tap = None
            in_nucleus.counters[GATEWAY_CIRCUITS_REFUSED] += 1
            # A refused circuit splices nothing that followed its open.
            in_nucleus.counters[GATEWAY_HELD_DROPPED] += len(held)
            self._nak(in_nucleus, in_lvc, msg, str(exc))
            return
        if not in_lvc.open or any(
                m.HeaderView(raw).kind == m.IVC_CLOSE for raw in held):
            # The circuit ended while its next hop was dialled: nothing
            # goes on, and the new leg is kept or closed as at teardown.
            in_lvc.frame_tap = out_lvc.frame_tap = None
            in_nucleus.counters[GATEWAY_HELD_DROPPED] += len(held)
            self._release(out_nucleus, out_lvc, shared, "ivc closed")
            return
        # Splice before forwarding so the returning IVC_OPEN_ACK already
        # has a path back upstream.
        self._splices[in_lvc] = (out_nucleus, out_lvc, shared)
        self._splices[out_lvc] = (in_nucleus, in_lvc, shared)
        # Spliced frames bypass decoding entirely: the ND-Layer hands
        # each raw inbound frame to _fast_forward, which routes on the
        # header view alone (words 1–6) without materializing a Msg.
        # (A leg taken from the idle set arrives with a guarding tap of
        # its own, which hands over at the IVC_OPEN's answer.)
        in_lvc.frame_tap = lambda raw: self._fast_forward(in_lvc, raw)
        if out_lvc.frame_tap is None:
            out_lvc.frame_tap = lambda raw: self._fast_forward(out_lvc, raw)
        in_nucleus.counters[GATEWAY_CIRCUITS_ESTABLISHED] += 1
        # Forward the original frame with only the hop-count (aux) and
        # checksum words patched in place — no header re-serialization.
        out_nucleus.nd.send_frame(
            out_lvc, m.patch_frame_aux(msg.encode(), hops + 1)
        )
        for raw in held:
            self._fast_forward(in_lvc, raw)

    def _hold(self, nucleus: Nucleus, held: List[bytes], raw: bytes) -> bool:
        """The frame tap of an inbound leg whose IVC_OPEN is being
        established: keep up to HOLD_LIMIT frames in arrival order, drop
        (and count) any beyond.  A malformed frame goes on to the
        ND-Layer's handling."""
        try:
            m.HeaderView(raw)
        except ProtocolError:
            return False
        if len(held) < HOLD_LIMIT:
            held.append(raw)
        else:
            nucleus.counters[GATEWAY_HELD_DROPPED] += 1
        return True

    def _open_next_hop(self, dst: Address, dst_network: str,
                       shared: bool) -> Tuple[Nucleus, Lvc]:
        """Open the next LVC of the chain: to the destination itself
        when its network is one of ours, else to the next gateway
        toward it — chosen with the same naming-service machinery the
        originating IP-Layer used (Sec. 4.1).  A ``shared`` circuit takes
        a parked leg to that peer before anything is dialled."""
        if dst_network in self.stacks:
            return self._open_final_hop(dst, dst_network, shared)
        # Route onward: first hop toward dst_network from any of our
        # stacks (each stack's IP-Layer owns the BFS and its cache).
        errors = []
        for network, nucleus in sorted(self.stacks.items()):
            try:
                plan = nucleus.ip._gateway_plan(dst, dst_network)
            except (RouteNotFound, NtcsError) as exc:
                errors.append(str(exc))
                continue
            if self.uadd is not None and plan.gw_uadd == self.uadd:
                continue  # never route through ourselves
            if shared:
                lvc = self._take_parked(nucleus, plan.gw_uadd)
                if lvc is not None:
                    return nucleus, lvc
            try:
                lvc = nucleus.nd.open_lvc(plan.gw_uadd, plan.blob,
                                          reason="next gateway hop")
            except AddressFault as exc:
                # The chosen next gateway is dead (Sec. 4.3): the stack
                # forgets the route, and the remaining stacks are tried.
                nucleus.ip.forget_route(dst_network, plan.gw_uadd)
                errors.append(str(exc))
                continue
            return nucleus, lvc
        raise RouteNotFound(
            f"no onward route to {dst_network!r}: {'; '.join(errors) or 'no gateways'}"
        )

    def _open_final_hop(self, dst: Address, dst_network: str,
                        shared: bool) -> Tuple[Nucleus, Lvc]:
        """Open the chain's last LVC, straight to ``dst`` on
        ``dst_network``: for a ``shared`` circuit, a parked leg to ``dst``
        when there is one, so no blob is needed at all.  Else the blob comes
        from the well-known table, else
        from this stack's address cache (the open protocol taught it at
        the peer's last HELLO, Sec. 3.3), else from the naming service.
        A cached blob that no longer answers is resolved afresh; when
        naming still names the same blob the destination is dead, and
        its fault stands without a second connect round (PROTOCOL.md
        §3, "IVC through gateways")."""
        out_nucleus = self.stacks[dst_network]
        lvc = self._take_parked(out_nucleus, dst) if shared else None
        if lvc is not None:
            return out_nucleus, lvc
        blob = self.wellknown.blob_for(dst, dst_network)
        if blob is None:
            entry = out_nucleus.addr_cache.lookup(dst)
            if entry is not None and blob_network(entry.blob) == dst_network:
                try:
                    return out_nucleus, out_nucleus.nd.open_lvc(
                        dst, entry.blob, reason="final chain hop")
                except AddressFault as fault:
                    # The connect already invalidated the stale entry.
                    out_nucleus.counters[GATEWAY_STALE_ADDR_FALLBACKS] += 1
                    blob = self._resolve_blob(dst, dst_network, out_nucleus)
                    if blob == entry.blob:
                        raise fault
            else:
                blob = self._resolve_blob(dst, dst_network, out_nucleus)
        return out_nucleus, out_nucleus.nd.open_lvc(
            dst, blob, reason="final chain hop")

    def _resolve_blob(self, dst: Address, dst_network: str,
                      preferred: Nucleus) -> str:
        """``dst``'s blob on ``dst_network``, from the naming service."""
        blob = self._resolve_via_any_stack(dst, preferred).blob_on(dst_network)
        if blob is None:
            raise AddressFault(dst, f"not reachable on {dst_network!r}")
        return blob

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
        nak = nucleus.control(m.IVC_OPEN_NAK, msg.src, "ivc_open_nak",
                              {"reason": reason[:90]})
        try:
            nucleus.nd.send(lvc, nak)
        except NtcsError:
            # Best-effort refusal: the opener may already be gone.
            nucleus.counters[GATEWAY_NAK_LOST] += 1

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
        out_nucleus, out_lvc, _shared = splice
        raw, forward = self._enforce_credit(
            in_lvc, out_nucleus, out_lvc, header, raw)
        if not forward:
            return True  # consumed: dropped by flow enforcement
        # This hop neither verified the header sum nor re-serialized:
        # the terminating endpoint settles the checksum once.
        out_nucleus.counters[GATEWAY_FRAMES_SPLICED] += 1
        try:
            out_nucleus.nd.send_frame(out_lvc, raw)
        except NtcsError:
            # The downstream leg died with traffic in flight: messages
            # "may get lost in Gateway queues during this
            # reconfiguration" (Sec. 4.3).
            out_nucleus.counters[GATEWAY_MESSAGES_DROPPED] += 1
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
                out_nucleus.counters[GATEWAY_CREDIT_CLAMPS] += 1
                advertised = bound
            if advertised > peer.consumed_seen:
                peer.consumed_seen = advertised
        if m.flow_debited(header.kind, header.flags):
            if (state.debits - state.consumed_seen
                    >= 2 * self.config.flow_window):
                out_nucleus.counters[GATEWAY_CREDIT_DROPS] += 1
                return raw, False
            state.debits += 1
        return raw, True

    def _forward_close(self, in_nucleus: Nucleus, in_lvc: Lvc,
                       msg: m.Msg) -> None:
        """Propagate an IVC_CLOSE and dismantle the splice (Sec. 4.3);
        both legs outlive the circuit by :meth:`_release`'s rule."""
        out_nucleus, out_lvc, shared = self._dismantle(in_lvc)
        try:
            out_nucleus.nd.send(out_lvc, msg)
        except NtcsError:
            # The other leg is failing with the circuit; its close
            # below is the fault's.
            out_nucleus.counters[GATEWAY_CLOSE_NOTIFY_LOST] += 1
        self._release(out_nucleus, out_lvc, shared, "ivc closed")
        if not in_lvc.inbound:
            self._release(in_nucleus, in_lvc, shared, "ivc closed")

    # -- introspection -------------------------------------------------------

    def splice_count(self) -> int:
        """Number of pass-through circuits currently spliced."""
        return len(self._splices) // 2
