"""Abstract IPCS interface shared by both simulated native IPC systems.

This is *not* the paper's STD-IF — it is the messy, machine-specific
layer below it.  Each concrete IPCS exposes the idioms of its system
(ports vs mailbox pathnames, streams vs records); the ND-Layer drivers
translate these into the uniform STD-IF virtual circuits.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ChannelClosed, ConnectionRefused, NetworkUnreachable
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.netsim.network import Datagram, Interface, Network
from repro.util.idgen import SequenceGenerator


class Channel:
    """One established full-duplex channel.

    Concrete IPCSs create these; users interact through this class.
    ``send`` queues data for the peer; delivery invokes the receive
    handler.  When the channel dies (peer close, process death, network
    failure), the close handler runs exactly once with a reason string.

    The owning process holds the channel only while it lives: it is
    owned from construction and disowned the moment it closes, so a
    long-lived server references its open circuits, not its history.
    """

    def __init__(self, ipcs: "Ipcs", channel_id: int, owner: SimProcess):
        self.ipcs = ipcs
        self.channel_id = channel_id
        self.owner = owner
        owner.own(self)
        self.open = False
        self._receive_handler: Optional[Callable[[bytes], None]] = None
        self._close_handler: Optional[Callable[[str], None]] = None
        self._closed_reason: Optional[str] = None
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- user side ----------------------------------------------------------

    def set_receive_handler(self, handler: Callable[[bytes], None]) -> None:
        """Install the callback invoked per delivered chunk/record."""
        self._receive_handler = handler

    def set_close_handler(self, handler: Callable[[str], None]) -> None:
        """Install the callback invoked once when the channel dies."""
        self._close_handler = handler
        if self._closed_reason is not None:
            # Already dead: report immediately so no close is ever missed.
            handler(self._closed_reason)

    def send(self, data: bytes) -> None:
        """Queue ``data`` for the peer.  Raises ChannelClosed if dead."""
        if not self.open:
            raise ChannelClosed(
                f"{self.ipcs.protocol} channel {self.channel_id}: "
                f"{self._closed_reason or 'not open'}"
            )
        self.bytes_sent += len(data)
        self.ipcs._channel_send(self, data)

    def close(self) -> None:
        """Locally close the channel; the peer is notified."""
        if self.open:
            self.ipcs._channel_close(self, "closed by local end", notify_peer=True)

    # -- IPCS side ------------------------------------------------------------

    def _deliver(self, data: bytes) -> None:
        if not self.open:
            return
        self.bytes_received += len(data)
        if self._receive_handler is not None:
            self._receive_handler(data)

    def _mark_closed(self, reason: str) -> None:
        if self._closed_reason is not None:
            return
        self.open = False
        self._closed_reason = reason
        self.owner.disown(self)
        if self._close_handler is not None:
            self._close_handler(reason)

    @property
    def closed_reason(self) -> Optional[str]:
        return self._closed_reason

    def __repr__(self) -> str:
        state = "open" if self.open else f"closed({self._closed_reason})"
        return f"Channel({self.ipcs.protocol}#{self.channel_id}, {state})"


class Listener:
    """A passive endpoint other processes can connect to.

    Its :meth:`address_blob` is the machine/network-dependent physical
    address string that the naming service stores *uninterpreted*
    (Sec. 3.2) and that only the matching ND-Layer driver can parse.
    """

    def __init__(self, ipcs: "Ipcs", binding: str, owner: SimProcess):
        self.ipcs = ipcs
        self.binding = binding
        self.owner = owner
        self.open = True
        owner.own(self)
        self.on_accept: Optional[Callable[[Channel], None]] = None

    def address_blob(self) -> str:
        """The physical-address blob for this endpoint (uninterpreted upstream)."""
        return self.ipcs.address_blob_for(self.binding)

    def close(self) -> None:
        """Close this endpoint."""
        if self.open:
            self.open = False
            self.owner.disown(self)
            self.ipcs._listener_closed(self)

    def __repr__(self) -> str:
        return f"Listener({self.address_blob()!r}, {'open' if self.open else 'closed'})"


OPENING = "OPENING"
ESTABLISHED = "ESTABLISHED"
FAILED = "FAILED"
CLOSED = "CLOSED"


class Conn:
    """Book-keeping for one end of a connection, in either IPCS."""

    __slots__ = (
        "local_id", "remote_id", "remote_host", "channel", "state",
        "next_send_seq", "next_recv_seq", "unacked", "deadlines",
        "timer", "tries", "resent", "out_of_order", "rx_pending",
        "open_timer", "fail_reason", "peer_key", "ack_from", "ack_to",
        "peer_closed",
    )

    def __init__(self, local_id: int, remote_host: str, channel: Channel,
                 remote_id: Optional[int]):
        self.local_id = local_id
        self.remote_id = remote_id
        self.remote_host = remote_host
        self.channel = channel
        self.state = OPENING if remote_id is None else ESTABLISHED
        self.next_send_seq = 0
        self.next_recv_seq = 0
        # seq -> data sent and not yet acknowledged, oldest first.  One
        # timer per connection covers the oldest entry, at that entry's
        # own deadline: it retransmits (TCP) or aborts (MBX).  An entry
        # sent while the timer runs keeps its deadline in ``deadlines``
        # until an acknowledgement makes it the oldest.  ``tries``
        # counts the oldest entry's transmissions by the timer;
        # ``resent`` is the last entry retransmitted because an
        # acknowledgement named it as a hole (TCP).
        self.unacked: Dict[int, bytes] = {}
        self.deadlines: Dict[int, float] = {}
        self.timer = None
        self.tries = 1
        self.resent: Optional[int] = None
        self.out_of_order: Dict[int, bytes] = {}
        self.rx_pending: List[bytes] = []
        self.open_timer = None
        self.fail_reason = ""
        # Passive TCP side only: this connection's key in the
        # duplicate-SYN table, remembered so closing is O(1).
        self.peer_key: Optional[Tuple[str, int]] = None
        # The range this arrival train owes an acknowledgement for;
        # ``ack_from`` is None when nothing is owed.
        self.ack_from: Optional[int] = None
        self.ack_to = 0
        # The peer's CLOSE has arrived: the peer has aborted and
        # cancelled its timers, so it is sent no ACK and no CLOSE.
        self.peer_closed = False


class Ipcs:
    """The connection core both simulated native IPCSs share.

    Open / accept / refuse, one range acknowledgement per connection
    per arrival train, one acknowledgement timer per connection, close
    and abort are the same in both; each subclass declares its wire
    kinds (``OPEN``, ``ACCEPT``, ``REFUSE``, ``DATA``, ``ACK``,
    ``CLOSE``) and implements only what differs:

      * :meth:`listen` and :meth:`_handle_open` — the binding namespace,
      * :meth:`_send_open` — how an active open goes out,
      * :meth:`_channel_send` and :meth:`_handle_data` — sending,
        sequencing and the owed-range rule per arrival,
      * :meth:`_expire` — what the connection timer does when the
        oldest unacknowledged entry falls due, and :meth:`_retransmit`
        (TCP only),
      * :meth:`_hand_up` — what the train tail delivers,
      * :meth:`address_blob_for` / :meth:`parse_blob`.
    """

    protocol = "abstract"
    # Each IPCS declares its wire kinds, why a refused open failed and
    # how a failed open is reported (``OPEN_ERROR.format(blob, why)``).
    OPEN = ACCEPT = REFUSE = DATA = ACK = CLOSE = REFUSED = OPEN_ERROR = ""

    def __init__(self, machine: Machine, network: Network):
        self.machine = machine
        self.scheduler = machine.scheduler
        self.network = network
        self.iface: Interface = machine.interface(network.name)
        self.iface.bind_protocol(self.protocol, self._on_datagram,
                                 self._on_train_end)
        machine.register_ipcs(network.name, self.protocol, self)
        self._conns: Dict[int, Conn] = {}
        self._conn_ids = SequenceGenerator()
        # Connections owed a range acknowledgement, in arrival order;
        # sent before the train's first upcall.
        self._acks_owed: Deque[Conn] = deque()
        self.close_notify_failures = 0

    # -- to implement -------------------------------------------------------

    def listen(self, owner: SimProcess, binding: Optional[str] = None) -> Listener:
        """Create a passive endpoint; see concrete IPCS for semantics."""
        raise NotImplementedError

    def address_blob_for(self, binding: str) -> str:
        """Format the physical-address blob for a local binding."""
        raise NotImplementedError

    @staticmethod
    def parse_blob(blob: str) -> Tuple[str, str, object]:
        """Split an address blob into (network, host, binding)."""
        raise NotImplementedError

    def _send_open(self, conn: Conn, binding) -> None:
        raise NotImplementedError

    def _handle_open(self, datagram: Datagram) -> None:
        raise NotImplementedError

    def _handle_data(self, datagram: Datagram) -> None:
        raise NotImplementedError

    def _hand_up(self) -> None:
        raise NotImplementedError

    def _expire(self, conn: Conn) -> None:
        raise NotImplementedError

    def _channel_send(self, channel: Channel, data: bytes) -> None:
        raise NotImplementedError

    def _listener_closed(self, listener: Listener) -> None:
        pass

    # -- open ----------------------------------------------------------------

    def connect(self, owner: SimProcess, address_blob: str, timeout: float = 5.0) -> Channel:
        """Blocking active open to a physical address blob."""
        network, host, binding = self.parse_blob(address_blob)
        if network != self.network.name:
            raise NetworkUnreachable(
                f"{self.protocol} IPCS on {self.network.name} cannot reach "
                f"network {network}")
        conn = self._new_conn(owner, host)
        self._send_open(conn, binding)
        self.scheduler.pump_until(
            lambda: conn.state in (ESTABLISHED, FAILED),
            timeout=timeout,
            what=f"{self.protocol} connect {address_blob}",
        )
        if conn.state != ESTABLISHED:
            # Cancels a pending open retry too: a given-up connect sends
            # nothing more.
            self._abort(conn, "connect failed", notify_peer=False)
            raise ConnectionRefused(self.OPEN_ERROR.format(
                address_blob, conn.fail_reason or "timed out"))
        return conn.channel

    def _new_conn(self, owner: SimProcess, host: str,
                  remote_id: Optional[int] = None) -> Conn:
        """A registered connection: opening, or — given the peer's id —
        established."""
        local_id = self._conn_ids.next()
        conn = Conn(local_id, host, Channel(self, local_id, owner), remote_id)
        self._conns[local_id] = conn
        return conn

    def _accept(self, listener: Optional[Listener], host: str,
                remote_id: int) -> None:
        """Answer an OPEN: refuse it, or establish the passive end,
        answer ACCEPT and hand the channel up — after the train so far,
        so upcalls keep arrival order."""
        if listener is None or not listener.open:
            self.iface.send(host, self.protocol, (self.REFUSE, remote_id))
            return
        conn = self._new_conn(listener.owner, host, remote_id)
        conn.channel.open = True
        self.iface.send(host, self.protocol,
                        (self.ACCEPT, remote_id, conn.local_id))
        if listener.on_accept is not None:
            self._on_train_end()
            listener.on_accept(conn.channel)

    def _handle_accept(self, datagram: Datagram) -> None:
        _, local_id, remote_id = datagram.payload
        conn = self._conns.get(local_id)
        if conn is None or conn.state != OPENING:
            return
        if conn.open_timer is not None:
            conn.open_timer.cancel()
        conn.remote_id = remote_id
        conn.state = ESTABLISHED
        conn.channel.open = True

    def _handle_refuse(self, datagram: Datagram) -> None:
        conn = self._conns.get(datagram.payload[1])
        if conn is not None and conn.state == OPENING:
            if conn.open_timer is not None:
                conn.open_timer.cancel()
            conn.state = FAILED
            conn.fail_reason = self.REFUSED

    # -- wire ----------------------------------------------------------------

    def _on_datagram(self, datagram: Datagram) -> None:
        kind = datagram.payload[0]
        if kind == self.DATA:
            self._handle_data(datagram)
        elif kind == self.ACK:
            self._handle_ack(datagram)
        elif kind == self.OPEN:
            self._handle_open(datagram)
        elif kind == self.ACCEPT:
            self._handle_accept(datagram)
        elif kind == self.REFUSE:
            self._handle_refuse(datagram)
        elif kind == self.CLOSE:
            self._handle_close(datagram)

    def _on_train_end(self) -> None:
        """The interface has no more frames in this train (PROTOCOL.md
        §13).  First every connection owed an acknowledgement gets one
        range ACK, so no upcall — however long it blocks — holds one
        back past the sender's timer; then :meth:`_hand_up` delivers
        what the train carried, each entry popped *before* its upcall,
        so a handler that blocks while another train arrives leaves the
        rest to the nested call, in arrival order.  Also called ahead of
        an accept or close upcall, so upcalls keep arrival order; a
        connection whose CLOSE the train carried is owed nothing.  A
        connection holding data past a hole names the hole in its
        acknowledgement (:meth:`_handle_ack`)."""
        owed = self._acks_owed
        while owed:
            conn = owed.popleft()
            first = conn.ack_from
            conn.ack_from = None
            if not conn.peer_closed:
                ack = (self.ACK, conn.remote_id, first, conn.ack_to)
                if conn.out_of_order:
                    ack += (conn.next_recv_seq,)
                self.iface.send(conn.remote_host, self.protocol, ack)
        self._hand_up()

    def _track(self, conn: Conn, seq: int, data: bytes,
               timeout: float) -> None:
        """Hold ``data`` (sequence ``seq``, just sent) until it is
        acknowledged.  The send that finds the connection timer idle
        arms it for ``timeout``; one sent while it runs records its
        deadline, read only if an acknowledgement makes it the oldest."""
        conn.unacked[seq] = data
        if conn.timer is None:
            # :meth:`_arm` inlined: every send that finds the timer
            # idle comes through here.
            conn.timer = self.scheduler.schedule(
                timeout, lambda: self._expire(conn), "ipcs ack timer")
        else:
            conn.deadlines[seq] = self.scheduler.now + timeout

    def _handle_ack(self, datagram: Datagram) -> None:
        """Forget what an acknowledgement covers: the range
        ``(ACK, id, first, last)``, and — when the receiver holds data
        past a hole and so names it, ``(ACK, id, first, last, hole)`` —
        everything below the hole.  When that includes the oldest entry,
        the connection timer moves to the new oldest, at that entry's
        own deadline.  A named hole that is the oldest entry is
        retransmitted at once, once per oldest entry."""
        payload = datagram.payload
        conn = self._conns.get(payload[1])
        if conn is None or not conn.unacked:
            return
        first, last = payload[2], payload[3]
        hole = payload[4] if len(payload) > 4 else None
        unacked = conn.unacked
        deadlines = conn.deadlines
        oldest = next(iter(unacked))
        if hole is not None:
            acked = [seq for seq in unacked
                     if seq < hole or first <= seq <= last]
        # Walk the range or the outstanding entries, whichever is
        # shorter: never more than what is outstanding.
        elif last - first < len(unacked):
            acked = range(first, last + 1)
        else:
            acked = [seq for seq in unacked if first <= seq <= last]
        for seq in acked:
            if unacked.pop(seq, None) is not None:
                deadlines.pop(seq, None)
        if oldest not in unacked:
            conn.timer.cancel()
            conn.timer = None
            conn.tries = 1
            if not unacked:
                return
            oldest = next(iter(unacked))
            self._arm(conn, max(0.0, deadlines.pop(oldest)
                                - self.scheduler.now))
        if hole == oldest and conn.tries == 1 and conn.resent != oldest:
            conn.resent = oldest
            self._retransmit(conn)

    def _arm(self, conn: Conn, delay: float) -> None:
        """(Re)start the connection timer ``delay`` from now."""
        conn.timer = self.scheduler.schedule(
            delay, lambda: self._expire(conn), "ipcs ack timer")

    def _retransmit(self, conn: Conn) -> None:
        """Send the oldest unacknowledged entry again.  Only TCP
        retransmits: an MBX acknowledgement never names a hole."""
        raise NotImplementedError

    def _handle_close(self, datagram: Datagram) -> None:
        conn = self._conns.get(datagram.payload[1])
        if conn is not None:
            # Marked before the train so far goes up, so neither its
            # owed ACK nor an upcall's close reaches the gone peer.
            conn.peer_closed = True
            self._on_train_end()
            self._abort(conn, "closed by peer", notify_peer=False)

    # -- close / abort -------------------------------------------------------

    def _channel_close(self, channel: Channel, reason: str, notify_peer: bool) -> None:
        conn = self._conns.get(channel.channel_id)
        if conn is None:
            channel._mark_closed(reason)
            return
        self._abort(conn, reason, notify_peer=notify_peer)

    def _abort(self, conn: Conn, reason: str, notify_peer: bool) -> None:
        """Close ``conn`` now.  Data of the current train not yet handed
        up is discarded: the channel is closed before its turn comes."""
        if conn.state == CLOSED:
            return
        was_established = conn.state == ESTABLISHED
        conn.state = CLOSED
        if conn.timer is not None:
            conn.timer.cancel()
            conn.timer = None
        conn.unacked.clear()
        conn.deadlines.clear()
        if conn.open_timer is not None:
            conn.open_timer.cancel()
        if notify_peer and was_established and not conn.peer_closed:
            try:
                self.iface.send(conn.remote_host, self.protocol,
                                (self.CLOSE, conn.remote_id))
            except NetworkUnreachable:
                # Peer unreachable: it will time the connection out.
                self.close_notify_failures += 1
        self._drop(conn)
        conn.channel._mark_closed(reason)

    def _drop(self, conn: Conn) -> None:
        self._conns.pop(conn.local_id, None)
