"""The Network Dependent Layer: local virtual circuits (paper Sec. 2.2).

The ND-Layer owns everything the paper localizes at the bottom of the
Nucleus:

* the module's communication resource (created at registration time),
* LVC open with retry ("there is no automatic relocation or recovery
  from failed channels (except for retry on open); notification is
  simply passed upward"),
* the UAdd → physical-address mapping, "either through the NSP-layer
  services, or by information exchanged between modules during the
  channel open protocol.  This information is then locally cached",
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
from repro.ntcs.protocol import T_LVC_HELLO, T_LVC_HELLO_ACK
from repro.ntcs.stdif import MessageChannel
from repro.util.counters import ND_FRAMES_FORWARDED


# The LVC machine, model-checked by ntcsverify (pure literal).
# Anchored: state names must match this module's ``.state``
# strings.  An outbound circuit runs the HELLO handshake under
# ``open_timeout``; an inbound one sits in AWAIT_HELLO without a
# local timer (the *peer's* hello timeout bounds that wait — its
# close tears the transport, which surfaces here as a fault edge).
# Alongside it, the lvc-rx-queue machine declares the per-LVC
# receive-queue discipline (PROTOCOL.md §12): every arrival that grows
# the queue is balanced by a consume or an overload drop, so the MDL005
# queue-drain rule can prove the queue is not grow-only.
PROTOCOL_MACHINES = (
    {
        "name": "lvc",
        "anchor": True,
        "initial": "NEW",
        "terminal": ("CLOSED",),
        "states": {
            "NEW": {
                "edges": (
                    {"event": "local connect", "next": "HELLO_SENT"},
                    {"event": "local accept", "next": "AWAIT_HELLO"},
                ),
            },
            "HELLO_SENT": {
                "waits": True,
                "edges": (
                    {"event": "recv LVC_HELLO_ACK", "next": "OPEN"},
                    {"event": "timeout open_timeout", "next": "CLOSED"},
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


class Lvc:
    """One local virtual circuit, as seen above the STD-IF."""

    _next_id = 0

    def __init__(self, mchan: MessageChannel, inbound: bool):
        Lvc._next_id += 1
        self.lvc_id = Lvc._next_id
        self.mchan = mchan
        self.inbound = inbound
        self.state = "NEW"  # NEW / HELLO_SENT / AWAIT_HELLO / OPEN / CLOSED
        self.peer_addr: Optional[Address] = None
        self.peer_mtype_name: str = ""
        self.peer_blob: str = ""
        self.close_reason: Optional[str] = None
        self.messages_sent = 0
        self.messages_received = 0
        # Flow-control accounting (PROTOCOL.md §12): how many of the
        # LCM receive queue's messages arrived over this circuit, and
        # the deepest that attribution has ever been.  Maintained by
        # the layers above (LCM queues, IP credits); kept here because
        # the LVC is the unit whose memory the watermarks bound.
        self.rx_depth = 0
        self.rx_high_water = 0
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

    def open_lvc(self, dst: Address, blob: Optional[str] = None,
                 reason: str = "") -> Lvc:
        """Open an LVC to ``dst``, resolving its physical address if no
        blob was supplied, and run the HELLO handshake.  Blocking."""
        nucleus = self.nucleus
        with nucleus.enter(self.LAYER, "open", reason=reason or f"open to {dst}"):
            if blob is None:
                blob = self._resolve_blob(dst)
            if blob_network(blob) != self.driver.network_name:
                raise AddressFault(
                    dst, f"blob {blob!r} is not on local network "
                    f"{self.driver.network_name!r}"
                )
            mchan = self._connect_with_retry(dst, blob)
            lvc = Lvc(mchan, inbound=False)
            self._install(lvc)
            hello = m.Msg(
                kind=m.LVC_HELLO,
                src=nucleus.self_addr,
                dst=dst,
                flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
            )
            hello.type_id, hello.body = nucleus.pack_internal("lvc_hello", {
                "mtype": nucleus.mtype.name,
                "listen_blob": self.listen_blob or "",
                "network": self.driver.network_name,
            })
            lvc.state = "HELLO_SENT"
            self.send(lvc, hello)
            nucleus.scheduler.pump_until(
                lambda: lvc.state != "HELLO_SENT",
                timeout=nucleus.config.open_timeout,
                what=f"LVC hello to {dst}",
            )
            if lvc.state != "OPEN":
                self.close(lvc, "hello handshake failed")
                raise AddressFault(dst, "no HELLO_ACK from peer")
            # Cache what the open protocol taught us (Sec. 3.3).
            if not dst.temporary and lvc.peer_blob:
                self.nucleus.addr_cache.store(dst, lvc.peer_blob, lvc.peer_mtype_name)
            return lvc

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
                self.nucleus.counters.incr("nd_open_retries")
        # A stale or dead physical address is exactly an address fault
        # (Sec. 3.5); notification is passed upward.  Naming-service
        # addresses are exempt from invalidation: they are well-known
        # constants, and losing them would force the layers below the
        # NSP to locate the naming service *through* the naming service
        # (the Sec. 6.3 recursion, in yet another guise).
        if dst not in self.nucleus.ns_addresses:
            self.nucleus.addr_cache.invalidate(dst)
        raise AddressFault(dst, str(last_error))

    def _resolve_blob(self, dst: Address) -> str:
        nucleus = self.nucleus
        entry = nucleus.addr_cache.lookup(dst)
        if entry is not None:
            return entry.blob
        wk_blob = nucleus.wellknown.blob_for(dst, self.driver.network_name)
        if wk_blob is not None:
            return wk_blob
        if dst.temporary:
            raise AddressFault(dst, "temporary addresses cannot be located")
        # Recursive resolution through the naming service (Sec. 3).
        record = nucleus.require_nsp().resolve_uadd(dst)
        blob = record.blob_on(self.driver.network_name)
        if blob is None:
            raise AddressFault(
                dst, f"no physical address on network {self.driver.network_name!r}"
            )
        nucleus.addr_cache.store(dst, blob, record.mtype_name)
        return blob

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
        self.nucleus.counters.incr(ND_FRAMES_FORWARDED)

    def _transmit(self, lvc: Lvc, frame: bytes) -> None:
        if not lvc.mchan.open:
            raise ChannelClosed(f"{lvc} is closed ({lvc.close_reason})")
        try:
            lvc.mchan.send_message(frame)
        except IpcsError as exc:
            raise ChannelClosed(str(exc))
        lvc.messages_sent += 1
        self.nucleus.counters.incr("nd_messages_sent")

    def close(self, lvc: Lvc, reason: str) -> None:
        """Close an LVC locally (the IPCS notifies the peer)."""
        if lvc.state == "CLOSED":
            return
        lvc.state = "CLOSED"
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
        lvc.state = "AWAIT_HELLO"
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
            self._malformed(lvc)
            return
        lvc.messages_received += 1
        self.nucleus.trace(self.LAYER, "receive", caller="wire",
                           reason=msg.kind_name)
        if msg.kind in (m.LVC_HELLO, m.LVC_HELLO_ACK):
            if not msg.checksum_ok():
                self._malformed(lvc)
                return
            if msg.kind == m.LVC_HELLO:
                self._on_hello(lvc, msg)
            else:
                self._on_hello_ack(lvc, msg)
        else:
            self._maybe_purge_tadd(lvc, msg)
            self._message_upcall(lvc, msg)

    def _malformed(self, lvc: Lvc) -> None:
        self.nucleus.counters.incr("nd_malformed_messages")
        self.close(lvc, "malformed message")
        self._fault_upcall(lvc, "malformed message")

    def _on_hello(self, lvc: Lvc, msg: m.Msg) -> None:
        nucleus = self.nucleus
        values = nucleus.unpack_internal(T_LVC_HELLO, msg.body)
        if msg.src.temporary:
            # The source's TAdd is not unique here: assign our own
            # (Sec. 3.4, "each Nucleus layer assigns its own TAdd to
            # each incoming connection from a TAdd source").
            lvc.peer_addr = nucleus.tadds.allocate()
            nucleus.counters.incr("tadds_assigned_for_inbound")
        else:
            lvc.peer_addr = msg.src
            if values["listen_blob"]:
                nucleus.addr_cache.store(
                    msg.src, values["listen_blob"], values["mtype"]
                )
        lvc.peer_mtype_name = values["mtype"]
        lvc.peer_blob = values["listen_blob"]
        ack = m.Msg(
            kind=m.LVC_HELLO_ACK,
            src=nucleus.self_addr,
            dst=msg.src,
            flags=m.FLAG_PACKED | m.FLAG_INTERNAL,
        )
        ack.type_id, ack.body = nucleus.pack_internal("lvc_hello_ack", {
            "mtype": nucleus.mtype.name,
            "listen_blob": self.listen_blob or "",
        })
        lvc.state = "OPEN"
        self.send(lvc, ack)
        self._accept_upcall(lvc)

    def _on_hello_ack(self, lvc: Lvc, msg: m.Msg) -> None:
        values = self.nucleus.unpack_internal(T_LVC_HELLO_ACK, msg.body)
        lvc.peer_mtype_name = values["mtype"]
        lvc.peer_blob = values["listen_blob"]
        if lvc.peer_addr is None:
            lvc.peer_addr = msg.src
        lvc.state = "OPEN"

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
            self.nucleus.addr_cache.replace_tadd(old, msg.src)
            self.nucleus.counters.incr("tadds_purged")
            self.nucleus.on_tadd_purged(old, msg.src)

    def _on_closed(self, lvc: Lvc, reason: str) -> None:
        if lvc.state == "CLOSED":
            return
        was_open = lvc.state == "OPEN"
        lvc.state = "CLOSED"
        lvc.close_reason = reason
        self._lvcs.pop(lvc.lvc_id, None)
        self.nucleus.counters.incr("nd_channel_faults")
        if was_open:
            # "Notification is simply passed upward."
            self._fault_upcall(lvc, reason)

    # -- introspection ---------------------------------------------------------

    def open_lvc_count(self) -> int:
        """Number of currently open LVCs."""
        return sum(1 for lvc in self._lvcs.values() if lvc.open)
