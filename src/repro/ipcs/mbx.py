"""Simulated Apollo-MBX-style IPCS: record channels to named mailboxes.

Contrasts with :mod:`repro.ipcs.tcp` in every dimension the ND-Layer
must paper over:

* addressing is by **pathname** ("//host/path"), not numeric port,
* **record semantics** — each send is delivered as exactly one record;
  boundaries are preserved, never coalesced,
* no retransmission: the destination's mailbox daemon acknowledges
  the records of each arrival train with one range per connection, and
  a missing acknowledgement aborts the channel (the Apollo ring was
  assumed reliable; failure means the peer died).  One timer per
  connection watches the oldest unacknowledged record, at that
  record's own deadline (its send time + ``ack_timeout``).

Open, acknowledgement, close and abort are the shared connection core
in :mod:`repro.ipcs.base`; this module is the record shell around it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.errors import AddressInUse
from repro.ipcs.base import ESTABLISHED, Channel, Conn, Ipcs, Listener
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.netsim.network import Datagram, Network
from repro.util.idgen import SequenceGenerator


class SimMbxIpcs(Ipcs):
    """The MBX-like native IPCS of one machine on one network."""

    protocol = "mbx"
    OPEN, ACCEPT, REFUSE = "MBX_OPEN", "MBX_OPEN_ACK", "MBX_NAK"
    DATA, ACK, CLOSE = "MBX_PUT", "MBX_PUT_ACK", "MBX_CLOSE"
    REFUSED = "no such mailbox"
    OPEN_ERROR = "mbx open {}: {}"

    def __init__(self, machine: Machine, network: Network):
        super().__init__(machine, network)
        self._mailboxes: Dict[str, Listener] = {}
        self._auto_names = SequenceGenerator()
        # Records of the current arrival train not yet handed up, in
        # arrival order (PROTOCOL.md §13).
        self._records: Deque[Tuple[Conn, bytes]] = deque()
        serialization_headroom = (
            65536 / network.bandwidth if network.bandwidth else 0.0
        )
        self.ack_timeout = network.latency * 6 + 0.01 + serialization_headroom
        self.records_sent = 0

    # -- addressing ---------------------------------------------------------

    def address_blob_for(self, binding: str) -> str:
        """Blob for a mailbox pathname: mbx:<network>://<host><path>."""
        return f"mbx:{self.network.name}://{self.iface.host}{binding}"

    @staticmethod
    def parse_blob(blob: str) -> Tuple[str, str, str]:
        """Split an mbx address blob into (network, host, path)."""
        kind, network, pathname = blob.split(":", 2)
        if kind != "mbx" or not pathname.startswith("//"):
            raise ValueError(f"not an mbx address blob: {blob!r}")
        host, _, path = pathname[2:].partition("/")
        return network, host, "/" + path

    # -- open ----------------------------------------------------------------

    def listen(self, owner: SimProcess, binding: Optional[str] = None) -> Listener:
        """Create a server mailbox (auto-named when binding is None)."""
        path = binding or f"/mbx/auto{self._auto_names.next()}"
        if not path.startswith("/"):
            path = "/" + path
        if path in self._mailboxes:
            raise AddressInUse(f"mailbox {path} on {self.iface.host}")
        listener = Listener(self, path, owner)
        self._mailboxes[path] = listener
        return listener

    def _listener_closed(self, listener: Listener) -> None:
        self._mailboxes.pop(listener.binding, None)

    def _handle_open(self, datagram: Datagram) -> None:
        _, path, remote_id = datagram.payload
        self._accept(self._mailboxes.get(path), datagram.src_host, remote_id)

    def _send_open(self, conn: Conn, path: str) -> None:
        self.iface.send(conn.remote_host, self.protocol,
                        (self.OPEN, path, conn.local_id))

    # -- data transfer ----------------------------------------------------

    def _channel_send(self, channel: Channel, data: bytes) -> None:
        conn = self._conns.get(channel.channel_id)
        if conn is None or conn.state != ESTABLISHED:
            return
        seq = conn.next_send_seq
        conn.next_send_seq += 1
        self.records_sent += 1
        self.iface.send(conn.remote_host, self.protocol,
                        (self.DATA, conn.remote_id, seq, data),
                        Network.DEFAULT_FRAME_SIZE + len(data))
        self._track(conn, seq, data, self.ack_timeout)

    def _expire(self, conn: Conn) -> None:
        """No retransmission in MBX: an unacknowledged record means the
        peer (or its host) is gone."""
        self._abort(conn, "record not acknowledged", notify_peer=False)

    def _handle_data(self, datagram: Datagram) -> None:
        _, local_id, seq, data = datagram.payload
        conn = self._conns.get(local_id)
        if conn is None or conn.state != ESTABLISHED:
            return
        if conn.ack_from is None:
            conn.ack_from = conn.ack_to = seq
            self._acks_owed.append(conn)
        elif seq == conn.ack_to + 1:
            conn.ack_to = seq
        else:
            # A record in between went missing: acknowledge this one
            # alone, so the owed range never claims the lost record —
            # whose sender must still abort.
            self.iface.send(conn.remote_host, self.protocol,
                            (self.ACK, conn.remote_id, seq, seq))
        self._records.append((conn, data))

    def _hand_up(self) -> None:
        """The train's records go up — record semantics, one send, one
        delivery, boundaries intact, in arrival order."""
        records = self._records
        while records:
            conn, data = records.popleft()
            conn.channel._deliver(data)
