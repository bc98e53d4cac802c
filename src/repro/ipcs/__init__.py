"""Native interprocess-communication systems (IPCSs).

The paper builds the NTCS "on top of the existing interprocess
communication system on each machine" (Sec. 1) — Unix TCP on the VAX
and Sun systems, the MBX mailbox facility on Apollo.  This package
provides both flavours over the simulated networks:

* :class:`SimTcpIpcs` — connection-oriented **byte streams** addressed
  by (host, port), with a SYN/SYNACK handshake, one range
  acknowledgement per connection per arrival train and bounded
  retransmission.  Receivers may see sends coalesced or fragmented, so
  users must frame their own messages.
* :class:`SimMbxIpcs` — Apollo-style **mailboxes** addressed by
  pathname ("//host/path"), with record (message-boundary-preserving)
  semantics, one acknowledgement range per connection per arrival
  train and no retransmission: a lost record aborts the channel.

The two deliberately differ in addressing, semantics and failure
behaviour; unifying them behind one interface is exactly the job of the
NTCS ND-Layer (Sec. 2.2).  Everything else is one connection core, the
:class:`Ipcs` base class: the connection record, the blocking open and
its accept / refuse answers, the range-ACK train tail, close and abort
(a connection whose CLOSE has arrived is sent nothing more).  Each
IPCS declares its wire kinds and keeps only what differs: bindings,
how an open goes out, the per-arrival acknowledgement rule, recovery
(TCP retransmits, MBX aborts) and what the train tail hands up.
"""

from repro.ipcs.base import Channel, Ipcs, Listener
from repro.ipcs.tcp import SimTcpIpcs
from repro.ipcs.mbx import SimMbxIpcs

__all__ = ["Channel", "Ipcs", "Listener", "SimTcpIpcs", "SimMbxIpcs"]
