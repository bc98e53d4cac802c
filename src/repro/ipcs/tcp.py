"""Simulated Unix-TCP-style IPCS: byte streams over (host, port).

Faithful-to-purpose TCP behaviours the ND-Layer driver must cope with:

* active/passive open with SYN / SYNACK (and RST on refusal), the SYN
  retransmitted until answered,
* **byte-stream semantics** — contiguous segments are coalesced into a
  single delivery, so receivers must frame their own messages,
* one range acknowledgement per connection per arrival train, running
  to everything the train made contiguous; an out-of-order segment is
  acknowledged alone and at once, a duplicate with the cumulative range
  ``(0, next_recv_seq - 1)``, and every acknowledgement sent while data
  past a hole is held names the hole (``next_recv_seq``),
* one retransmission timer per connection (RFC 6298 §5): it covers the
  oldest unacknowledged segment at that segment's own deadline (its
  send time + ``rto``) and retransmits only that segment, which an
  acknowledgement naming it as the hole also retransmits, at once and
  once.  The timer's ``MAX_RETRIES``-th expiry on one oldest segment
  aborts the channel ("the link failed"),
* RST notification when the peer process dies while its host survives;
  silent loss (caught by retransmission timeout) when the host crashes.

Open, acknowledgement, close and abort are the shared connection core
in :mod:`repro.ipcs.base`; this module is the stream shell around it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.errors import AddressInUse
from repro.ipcs.base import (
    ESTABLISHED,
    FAILED,
    OPENING,
    Channel,
    Conn,
    Ipcs,
    Listener,
)
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.netsim.network import Datagram, Network
from repro.util.idgen import SequenceGenerator


class SimTcpIpcs(Ipcs):
    """The TCP-like native IPCS of one machine on one network."""

    protocol = "tcp"
    OPEN, ACCEPT, REFUSE = "SYN", "SYNACK", "RST"
    DATA, ACK, CLOSE = "DATA", "ACK", "CLOSE"
    REFUSED = "refused"
    OPEN_ERROR = "tcp connect to {}: {}"
    MAX_RETRIES = 5

    def __init__(self, machine: Machine, network: Network, ephemeral_base: int = 32768):
        super().__init__(machine, network)
        self._listeners: Dict[int, Listener] = {}
        # Passive connections by (peer host, peer's connection id): the
        # duplicate-SYN table.
        self._by_peer: Dict[Tuple[str, int], Conn] = {}
        # Connections holding in-order bytes not yet handed up, in
        # arrival order; drained when the arrival train ends.
        self._rx_ready: Deque[Conn] = deque()
        self._ephemeral = SequenceGenerator(ephemeral_base)
        # The retransmission timeout must cover serialization delay on
        # bandwidth-limited networks or ACKs lose the race to the timer.
        serialization_headroom = (
            65536 / network.bandwidth if network.bandwidth else 0.0
        )
        self.rto = network.latency * 4 + 0.005 + serialization_headroom
        self.segments_sent = 0
        self.segments_retransmitted = 0

    # -- addressing -----------------------------------------------------------

    def address_blob_for(self, binding: str) -> str:
        """Blob for a port: tcp:<network>:<host>:<port>."""
        return f"tcp:{self.network.name}:{self.iface.host}:{binding}"

    @staticmethod
    def parse_blob(blob: str) -> Tuple[str, str, int]:
        """Split a tcp address blob into (network, host, port)."""
        kind, network, host, port = blob.split(":")
        if kind != "tcp":
            raise ValueError(f"not a tcp address blob: {blob!r}")
        return network, host, int(port)

    # -- passive open ------------------------------------------------------------

    def listen(self, owner: SimProcess, binding: Optional[str] = None) -> Listener:
        """Listen on a port (ephemeral when binding is None)."""
        port = int(binding) if binding is not None else self._ephemeral.next()
        if port in self._listeners:
            raise AddressInUse(f"tcp port {port} on {self.iface.host}")
        listener = Listener(self, str(port), owner)
        self._listeners[port] = listener
        return listener

    def _listener_closed(self, listener: Listener) -> None:
        self._listeners.pop(int(listener.binding), None)

    def _handle_open(self, datagram: Datagram) -> None:
        _, src_host, dst_port, remote_id = datagram.payload
        existing = self._by_peer.get((src_host, remote_id))
        if existing is not None:
            # Duplicate SYN (our SYNACK was lost): re-answer, don't re-open.
            self.iface.send(src_host, self.protocol,
                            (self.ACCEPT, remote_id, existing.local_id))
            return
        self._accept(self._listeners.get(dst_port), src_host, remote_id)

    def _new_conn(self, owner: SimProcess, host: str,
                  remote_id: Optional[int] = None) -> Conn:
        conn = super()._new_conn(owner, host, remote_id)
        if remote_id is not None:
            conn.peer_key = (host, remote_id)
            self._by_peer[conn.peer_key] = conn
        return conn

    def _drop(self, conn: Conn) -> None:
        self._conns.pop(conn.local_id, None)
        if conn.peer_key is not None:
            self._by_peer.pop(conn.peer_key, None)

    # -- active open ------------------------------------------------------------

    def _send_open(self, conn: Conn, port: int, tries: int = 1) -> None:
        if tries > self.MAX_RETRIES:
            conn.state = FAILED
            conn.fail_reason = "timed out"
            return
        self.iface.send(
            conn.remote_host, self.protocol,
            (self.OPEN, self.iface.host, port, conn.local_id))
        conn.open_timer = self.scheduler.schedule(
            self.rto, lambda: self._open_timeout(conn, port, tries),
            note="tcp syn rto")

    def _open_timeout(self, conn: Conn, port: int, tries: int) -> None:
        if conn.state == OPENING:
            self.segments_retransmitted += 1
            self._send_open(conn, port, tries + 1)

    # -- data transfer ----------------------------------------------------

    def _channel_send(self, channel: Channel, data: bytes) -> None:
        conn = self._conns.get(channel.channel_id)
        if conn is None or conn.state != ESTABLISHED:
            return
        seq = conn.next_send_seq
        conn.next_send_seq += 1
        self.segments_sent += 1
        self.iface.send(conn.remote_host, self.protocol,
                        (self.DATA, conn.remote_id, seq, data),
                        Network.DEFAULT_FRAME_SIZE + len(data))
        self._track(conn, seq, data, self.rto)

    def _expire(self, conn: Conn) -> None:
        """The oldest segment's deadline passed unanswered: retransmit
        it, or give up at the ``MAX_RETRIES``-th expiry."""
        if conn.tries >= self.MAX_RETRIES:
            self._abort(conn, "retransmission timeout", notify_peer=False)
        else:
            conn.tries += 1
            self._retransmit(conn)

    def _retransmit(self, conn: Conn) -> None:
        """Send the oldest unacknowledged segment again and restart the
        timer for it."""
        seq = next(iter(conn.unacked))
        data = conn.unacked[seq]
        self.segments_retransmitted += 1
        self.segments_sent += 1
        self.iface.send(conn.remote_host, self.protocol,
                        (self.DATA, conn.remote_id, seq, data),
                        Network.DEFAULT_FRAME_SIZE + len(data))
        conn.timer.cancel()
        self._arm(conn, self.rto)

    def _handle_data(self, datagram: Datagram) -> None:
        _, local_id, seq, data = datagram.payload
        conn = self._conns.get(local_id)
        if conn is None or conn.state != ESTABLISHED:
            return
        if seq != conn.next_recv_seq:
            # Answered alone and at once: a segment past a gap with
            # itself, a duplicate (its acknowledgement was lost) with
            # everything received so far.  Either answer names the hole
            # while data past one is held.
            if seq > conn.next_recv_seq:
                conn.out_of_order[seq] = data
                first = seq
            else:
                first, seq = 0, conn.next_recv_seq - 1
            ack = (self.ACK, conn.remote_id, first, seq)
            if conn.out_of_order:
                ack += (conn.next_recv_seq,)
            self.iface.send(conn.remote_host, self.protocol, ack)
            return
        if conn.ack_from is None:
            conn.ack_from = seq
            self._acks_owed.append(conn)
        rx_pending = conn.rx_pending
        if not rx_pending:
            # Byte-stream semantics: hold the bytes until the arrival
            # train ends, so segments arriving at the same instant
            # coalesce into one chunk — receivers must frame their own
            # messages.
            self._rx_ready.append(conn)
        rx_pending.append(data)
        seq += 1
        out_of_order = conn.out_of_order
        while seq in out_of_order:
            rx_pending.append(out_of_order.pop(seq))
            seq += 1
        conn.next_recv_seq = seq
        # The owed range runs to what this arrival made contiguous, so
        # it also covers segments whose own answers were lost.
        conn.ack_to = seq - 1

    def _hand_up(self) -> None:
        """Every stream chunk the train carried is born: one per
        connection, first arrival first."""
        ready = self._rx_ready
        while ready:
            conn = ready.popleft()
            chunk = b"".join(conn.rx_pending)
            conn.rx_pending.clear()
            conn.channel._deliver(chunk)
