"""The Network Dependent Layer: local virtual circuits (paper Sec. 2.2).

The ND-Layer owns everything the paper localizes at the bottom of the
Nucleus:

* the module's communication resource (created at registration time),
* LVC open with retry ("there is no automatic relocation or recovery
  from failed channels (except for retry on open); notification is
  simply passed upward"),
* the open protocol's half of the UAdd → physical-address mapping:
  "information exchanged between modules during the channel open
  protocol ... is then locally cached" in the Nucleus's address cache,
  and a connect that fails evicts it (the other half, "through the
  NSP-layer services", is the IP-Layer's planning),
* the TAdd machinery for inbound connections from unregistered modules
  (Sec. 3.4).

LVCs "are limited to destinations supported directly by the local
IPCS" — crossing networks is the IP-Layer's job.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import (
    AddressFault,
    ChannelClosed,
    ConnectionRefused,
    IpcsError,
    NetworkUnreachable,
    ProtocolError,
)
from repro.ntcs import message as m
from repro.ntcs.address import Address, blob_network
from repro.ntcs.protocol import (
    T_LVC_HELLO, T_LVC_HELLO_ACK, compile_machines, step)
from repro.ntcs.stdif import MessageChannel
from repro.util.counters import (
    ND_CHANNEL_FAULTS, ND_MALFORMED_MESSAGES, ND_MESSAGES_SENT, ND_OPEN_RETRIES,
    TADDS_ASSIGNED, TADDS_PURGED)


# How many call requests an outbound LVC sends behind its LVC_HELLO
# before the answer (PROTOCOL.md §3, "A call rides its circuit's
# open"); spent by step.
HELLO_RIDERS = 1

# The LVC machine, model-checked by ntcsverify (pure literal), run by
# every Lvc through :func:`~repro.ntcs.protocol.step`, and stepped by
# ``verify --trace`` at each end of every hop, where every kind but the
# two HELLOs is the DATA the LVC carries.  An outbound circuit runs the
# HELLO handshake under ``open_timeout`` (a peer that hangs up first is
# a transport fault); an inbound one sits in AWAIT_HELLO without a
# local timer (the *peer's* hello timeout bounds that wait — its close
# tears the transport, which surfaces here as a fault edge) and answers
# the HELLO once OPEN.  While HELLO_SENT, an outbound LVC sends its
# circuit's first frames behind the HELLO without waiting for the
# answer (PROTOCOL.md §3): a chained plan's IVC_OPEN, and at most
# HELLO_RIDERS call requests ("rides_open": FLAG_RIDES_OPEN on a
# request; step refuses one more).
# Alongside it, the lvc-rx-queue machine declares the per-LVC
# receive-queue discipline (PROTOCOL.md §12): every arrival that grows
# the queue is balanced by a consume or an overload drop, so the MDL005
# queue-drain rule can prove the queue is not grow-only.
PROTOCOL_MACHINES = (
    {
        "name": "lvc",
        "initial": "NEW",
        "terminal": ("CLOSED",),
        "states": {
            "NEW": {
                "edges": (
                    {"event": "send LVC_HELLO", "next": "HELLO_SENT"},
                    {"event": "local accept", "next": "AWAIT_HELLO"},
                ),
            },
            "HELLO_SENT": {
                "waits": True,
                "edges": (
                    {"event": "send DATA", "next": "HELLO_SENT"},
                    {"event": "send DATA rides_open", "next": "HELLO_SENT",
                     "bounded": "HELLO_RIDERS"},
                    {"event": "recv LVC_HELLO_ACK", "next": "OPEN"},
                    {"event": "timeout open_timeout", "next": "CLOSED"},
                    {"event": "local transport_fault", "next": "CLOSED"},
                ),
            },
            "AWAIT_HELLO": {
                "edges": (
                    {"event": "recv LVC_HELLO", "next": "OPEN"},
                    {"event": "local transport_fault", "next": "CLOSED"},
                ),
            },
            "OPEN": {
                "edges": (
                    {"event": "send LVC_HELLO_ACK", "next": "OPEN"},
                    {"event": "send DATA", "next": "OPEN", "progress": True},
                    {"event": "recv DATA", "next": "OPEN", "progress": True},
                    {"event": "local close", "next": "CLOSED"},
                    {"event": "local transport_fault", "next": "CLOSED"},
                ),
            },
            "CLOSED": {},
        },
    },
    {
        "name": "lvc-rx-queue",
        "initial": "PUMPING",
        "terminal": (),
        "states": {
            "PUMPING": {
                "edges": (
                    {"event": "recv DATA", "next": "PUMPING",
                     "queue": "+lvcq"},
                    {"event": "local consume", "next": "PUMPING",
                     "queue": "-lvcq", "progress": True},
                    {"event": "local overload_drop_connectionless",
                     "next": "PUMPING", "queue": "-lvcq"},
                ),
            },
        },
    },
)
compile_machines(PROTOCOL_MACHINES, globals())


class Lvc:
    """One local virtual circuit, as seen above the STD-IF."""

    _next_id = 0
    state: Optional[str] = None  # moved only by step(lvc, "lvc", ...)

    def __init__(self, mchan: MessageChannel, inbound: bool):
        Lvc._next_id += 1
        self.lvc_id = Lvc._next_id
        self.mchan = mchan
        self.inbound = inbound
        self.peer_addr: Optional[Address] = None
        # The address an outbound LVC was opened to reach (None when
        # inbound); the peer that answers its HELLO may be another.
        self.dialled: Optional[Address] = None
        self.peer_mtype_name: str = ""
        self.peer_blob: str = ""
        self.close_reason: Optional[str] = None
        self.messages_sent = 0
        self.messages_received = 0
        # Flow-control accounting (PROTOCOL.md §12): how many of the
        # LCM receive queue's flow-debited messages arrived over this
        # circuit.  Kept by the IP-Layer's credit ledger; here because
        # the LVC is the unit whose memory the window bounds.
        self.rx_depth = 0
        # Optional fast-path hook (installed by the Gateway on spliced
        # LVCs): called with each raw inbound frame *before* decoding;
        # returning True means the frame was consumed (forwarded) and
        # the normal decode/dispatch path is skipped.
        self.frame_tap: Optional[Callable[[bytes], bool]] = None

    @property
    def open(self) -> bool:
        return self.state == "OPEN" and self.mchan.open

    def __repr__(self) -> str:
        direction = "in" if self.inbound else "out"
        return f"Lvc#{self.lvc_id}({direction}, {self.state}, peer={self.peer_addr})"


class NdLayer:
    """The bottom Nucleus layer of one module."""

    LAYER = "ND"
    OPEN_RETRIES = 2  # "retry on open" is the ND-Layer's only recovery

    def __init__(self, nucleus):
        self.nucleus = nucleus
        self.driver = nucleus.driver
        self.listen_blob: Optional[str] = None
        self._lvcs: Dict[int, Lvc] = {}
        # Upcalls installed by the IP-Layer.
        self._accept_upcall: Callable[[Lvc], None] = lambda lvc: None
        self._message_upcall: Callable[[Lvc, m.Msg], None] = lambda lvc, msg: None
        self._fault_upcall: Callable[[Lvc, str], None] = lambda lvc, reason: None

    # -- wiring -------------------------------------------------------------

    def set_upcalls(self, accept, message, fault) -> None:
        """Install the IP-Layer's accept/message/fault callbacks."""
        self._accept_upcall = accept
        self._message_upcall = message
        self._fault_upcall = fault

    # -- resource creation -----------------------------------------------------

    def create_resource(self, binding: Optional[str] = None) -> str:
        """Create this module's listening endpoint (TCP port / MBX
        mailbox) and return its blob.  ``binding`` pins a well-known
        port/pathname."""
        if self.listen_blob is None:
            self.listen_blob = self.driver.listen(
                self.nucleus.process, self._on_accept, binding=binding
            )
        return self.listen_blob

    # -- active open ------------------------------------------------------------

    def open_lvc(self, dst: Address, blob: str, reason: str = "",
                 first: Optional[Callable[[Lvc], None]] = None) -> Lvc:
        """Open an LVC to ``dst`` at physical address ``blob`` (the
        IP-Layer or a gateway planned it) and run the HELLO handshake.
        Blocking.

        ``first``, when given, is called with the new LVC right after
        its LVC_HELLO is sent and before the wait: the circuit's first
        frames leave with the handshake (PROTOCOL.md §3), a call's
        request through :meth:`ride`.  A peer that answers in the same
        train finds them sent."""
        nucleus = self.nucleus
        with nucleus.enter(self.LAYER, "open",
                           reason=reason or (lambda: f"open to {dst}")):
            if blob_network(blob) != self.driver.network_name:
                raise AddressFault(
                    dst, f"blob {blob!r} is not on local network "
                    f"{self.driver.network_name!r}"
                )
            mchan = self._connect_with_retry(dst, blob)
            lvc = Lvc(mchan, inbound=False)
            lvc.dialled = dst
            self._install(lvc)
            hello = nucleus.control(m.LVC_HELLO, dst, "lvc_hello", {
                "mtype": nucleus.mtype.name,
                "listen_blob": self.listen_blob or "",
                "network": self.driver.network_name,
            })
            step(lvc, "lvc", "send LVC_HELLO")
            self.send(lvc, hello)
            if first is not None:
                first(lvc)
            nucleus.scheduler.pump_until(
                lambda: lvc.state != "HELLO_SENT",
                timeout=nucleus.config.open_timeout,
                what=lambda: f"LVC hello to {dst}",
            )
            if lvc.state != "OPEN":
                self.close(lvc, "hello handshake failed", "timeout open_timeout")
                raise AddressFault(dst, "no HELLO_ACK from peer")
            # Cache what the open protocol taught us (Sec. 3.3).
            if not dst.temporary and lvc.peer_blob:
                self.nucleus.addr_cache.store(dst, lvc.peer_blob, lvc.peer_mtype_name)
            return lvc

    def ride(self, lvc: Lvc, msg: m.Msg) -> bool:
        """Send a call's request behind ``lvc``'s LVC_HELLO, before the
        answer; False, sending nothing, past HELLO_RIDERS."""
        if not step(lvc, "lvc", "send DATA rides_open"):
            return False
        self.send(lvc, msg)
        return True

    def _connect_with_retry(self, dst: Address, blob: str) -> MessageChannel:
        last_error: Optional[Exception] = None
        for attempt in range(self.OPEN_RETRIES):
            try:
                return self.driver.connect(
                    self.nucleus.process, blob,
                    timeout=self.nucleus.config.open_timeout,
                )
            except (ConnectionRefused, NetworkUnreachable) as exc:
                last_error = exc
                self.nucleus.counters[ND_OPEN_RETRIES] += 1
        # A stale or dead physical address is exactly an address fault
        # (Sec. 3.5); notification is passed upward.  Naming-service
        # addresses are exempt from invalidation: they are well-known
        # constants, and losing them would force the layers below the
        # NSP to locate the naming service *through* the naming service
        # (the Sec. 6.3 recursion, in yet another guise).
        if dst not in self.nucleus.ns_addresses:
            self.nucleus.addr_cache.invalidate(dst)
        raise AddressFault(dst, str(last_error))

    # -- data path ------------------------------------------------------------

    def send(self, lvc: Lvc, msg: m.Msg) -> None:
        """Transmit one encoded message over an open LVC."""
        self._transmit(lvc, msg.encode())

    def send_frame(self, lvc: Lvc, frame: bytes) -> None:
        """Transmit an already-encoded frame verbatim — the gateway
        splice path forwards the received bytes without rebuilding a
        :class:`~repro.ntcs.message.Msg` (PROTOCOL.md, "Fast path and
        wire invariance")."""
        self._transmit(lvc, frame)

    def _transmit(self, lvc: Lvc, frame: bytes) -> None:
        if not lvc.mchan.open:
            raise ChannelClosed(f"{lvc} is closed ({lvc.close_reason})")
        try:
            lvc.mchan.send_message(frame)
        except IpcsError as exc:
            raise ChannelClosed(str(exc))
        lvc.messages_sent += 1
        self.nucleus.counters[ND_MESSAGES_SENT] += 1

    def close(self, lvc: Lvc, reason: str, event: str = "local close") -> None:
        """Close an LVC locally (the IPCS notifies the peer) by ``event``."""
        if not step(lvc, "lvc", event):
            return
        lvc.close_reason = reason
        lvc.mchan.close()
        self._lvcs.pop(lvc.lvc_id, None)

    # -- inbound ------------------------------------------------------------

    def _install(self, lvc: Lvc) -> None:
        self._lvcs[lvc.lvc_id] = lvc
        lvc.mchan.set_message_handler(lambda raw: self._on_raw(lvc, raw))
        lvc.mchan.set_close_handler(lambda reason: self._on_closed(lvc, reason))

    def _on_accept(self, mchan: MessageChannel) -> None:
        lvc = Lvc(mchan, inbound=True)
        step(lvc, "lvc", "local accept")
        self._install(lvc)

    def _on_raw(self, lvc: Lvc, raw: bytes) -> None:
        # Structure (length/magic/body length) is validated here, but
        # the header-checksum comparison is deferred to the terminating
        # endpoint: HELLO traffic terminates in this layer, so it is
        # verified below; everything else is verified by the IP-Layer
        # when it dispatches — never on gateway pass-through hops
        # (PROTOCOL.md, "Fast path and wire invariance").
        tap = lvc.frame_tap
        if tap is not None and tap(raw):
            # Spliced pass-through: the Gateway forwarded the raw frame
            # from its header view alone — no Msg was materialized.
            lvc.messages_received += 1
            return
        try:
            msg = m.Msg.decode(raw, verify=False)
        except ProtocolError:
            self.malformed(lvc)
            return
        lvc.messages_received += 1
        self.nucleus.trace(self.LAYER, "receive", caller="wire",
                           reason=msg.kind_name)
        if msg.kind in (m.LVC_HELLO, m.LVC_HELLO_ACK):
            if not msg.checksum_ok():
                self.malformed(lvc)
                return
            if msg.kind == m.LVC_HELLO:
                self._on_hello(lvc, msg)
            else:
                self._on_hello_ack(lvc, msg)
        else:
            # DATA has an edge only from OPEN, where it is a progress
            # loop and goes unstepped; before the HELLO it is dropped.
            if lvc.state != "OPEN" and not step(
                    lvc, "lvc", "recv DATA", self.nucleus.counters):
                return
            self._maybe_purge_tadd(lvc, msg)
            self._message_upcall(lvc, msg)

    def malformed(self, lvc: Lvc) -> None:
        """Count a frame that failed to decode or its checksum; fault it."""
        self.nucleus.counters[ND_MALFORMED_MESSAGES] += 1
        self.close(lvc, "malformed message", "local transport_fault")
        self._fault_upcall(lvc, "malformed message")

    def _on_hello(self, lvc: Lvc, msg: m.Msg) -> None:
        # Decoded before the step: a body that does not decode is
        # malformed, whatever the state.
        nucleus = self.nucleus
        values = nucleus.unpack_internal(T_LVC_HELLO, msg.body, lvc)
        if values is None or not step(
                lvc, "lvc", "recv LVC_HELLO", nucleus.counters):
            return
        if msg.src.temporary:
            # The source's TAdd is not unique here: assign our own
            # (Sec. 3.4, "each Nucleus layer assigns its own TAdd to
            # each incoming connection from a TAdd source").
            lvc.peer_addr = nucleus.tadds.allocate()
            nucleus.counters[TADDS_ASSIGNED] += 1
        else:
            lvc.peer_addr = msg.src
            if values["listen_blob"]:
                nucleus.addr_cache.store(
                    msg.src, values["listen_blob"], values["mtype"]
                )
        lvc.peer_mtype_name = values["mtype"]
        lvc.peer_blob = values["listen_blob"]
        ack = nucleus.control(m.LVC_HELLO_ACK, msg.src, "lvc_hello_ack", {
            "mtype": nucleus.mtype.name,
            "listen_blob": self.listen_blob or "",
        })
        self.send(lvc, ack)
        self._accept_upcall(lvc)

    def _on_hello_ack(self, lvc: Lvc, msg: m.Msg) -> None:
        values = self.nucleus.unpack_internal(T_LVC_HELLO_ACK, msg.body, lvc)
        if values is None or not step(
                lvc, "lvc", "recv LVC_HELLO_ACK", self.nucleus.counters):
            return
        lvc.peer_mtype_name = values["mtype"]
        lvc.peer_blob = values["listen_blob"]
        if lvc.peer_addr is None:
            lvc.peer_addr = msg.src

    def _maybe_purge_tadd(self, lvc: Lvc, msg: m.Msg) -> None:
        """Sec. 3.4: "upon receipt of a message from a UAdd source, if
        the local tables still refer to an old TAdd, this is replaced
        with the new UAdd"."""
        if (
            lvc.peer_addr is not None
            and lvc.peer_addr.temporary
            and not msg.src.temporary
        ):
            old = lvc.peer_addr
            lvc.peer_addr = msg.src
            self.nucleus.counters[TADDS_PURGED] += 1
            self.nucleus.on_tadd_purged(old, msg.src)

    def _on_closed(self, lvc: Lvc, reason: str) -> None:
        was_open = lvc.state == "OPEN"
        if not step(lvc, "lvc", "local transport_fault"):
            return
        lvc.close_reason = reason
        self._lvcs.pop(lvc.lvc_id, None)
        self.nucleus.counters[ND_CHANNEL_FAULTS] += 1
        if was_open:
            # "Notification is simply passed upward."
            self._fault_upcall(lvc, reason)

    # -- introspection ---------------------------------------------------------

    def open_lvc_count(self) -> int:
        """Number of currently open LVCs."""
        return sum(1 for lvc in self._lvcs.values() if lvc.open)
