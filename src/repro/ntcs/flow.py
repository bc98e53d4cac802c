"""Credit accounting for IVC flow control (PROTOCOL.md §12).

One :class:`FlowState` lives on each end of an IVC and holds both
directions of the credit ledger in pure, side-effect-free arithmetic —
the IP-Layer decides *when* to probe, grant, or stall; this module
decides only *how much*.

The scheme is cumulative, in the DECnet-NSP style: the sender counts
every flow-debited message it has ever transmitted on the circuit
(``tx_sent``); the receiver counts every one it has ever disposed of
(``rx_consumed`` — handed to a handler, popped by ``receive``,
suppressed as a duplicate, or dropped under overload).  The sender's
available credit is::

    credit = window - (tx_sent - tx_consumed_seen)

where ``tx_consumed_seen`` is the receiver's consumed counter as last
advertised (piggybacked in DATA aux words or carried by an explicit
credit grant).  Cumulative counters make every advertisement idempotent
— a retransmitted or reordered grant can only move ``tx_consumed_seen``
forward — and make loss self-healing: a receiver that learns the
sender's cumulative ``sent`` counter (from a credit probe) can tell how
many frames died in flight (``sent`` minus everything that arrived) and
fold them into its advertisement so their credit is never stranded.

Credit state never survives a circuit: a repaired/reopened IVC starts a
fresh :class:`FlowState` on both sides (see ``IpLayer.resync_credit``),
which is the whole resynchronization story — no merge, no carry-over.
"""

from __future__ import annotations

__all__ = ["FlowState"]


class FlowState:
    """Both directions of one IVC endpoint's credit ledger."""

    __slots__ = (
        "window",
        "low_watermark",
        "tx_sent",
        "tx_consumed_seen",
        "rx_arrivals",
        "rx_consumed",
        "rx_queued",
        "peer_sent",
        "grant_owed",
        "stalls",
    )

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"flow window must be >= 1, got {window}")
        self.window = window
        # Receive-queue depth at which an owed grant goes out.
        self.low_watermark = max(1, window // 4)
        self.reset()

    def reset(self) -> None:
        """Return to the just-opened state (both ledgers zero)."""
        self.tx_sent = 0
        self.tx_consumed_seen = 0
        self.rx_arrivals = 0
        self.rx_consumed = 0
        self.rx_queued = 0
        self.peer_sent = 0
        self.grant_owed = False
        self.stalls = 0

    # -- sender side ------------------------------------------------------

    @property
    def credit(self) -> int:
        """Flow-debited messages this end may still send."""
        return self.window - (self.tx_sent - self.tx_consumed_seen)

    def debit(self) -> None:
        """Account one outbound flow-debited message."""
        self.tx_sent += 1

    def on_advertised(self, consumed: int) -> None:
        """Fold in the peer's advertised cumulative consumed counter
        (piggybacked aux or explicit grant).  Monotonic and clamped to
        what was actually sent, so a stale, duplicated, or corrupt
        advertisement can neither retract credit nor mint more than
        ``window``."""
        if consumed > self.tx_consumed_seen:
            self.tx_consumed_seen = min(consumed, self.tx_sent)

    # -- receiver side ----------------------------------------------------

    def on_arrival(self, queued: bool) -> None:
        """Account one inbound flow-debited message; ``queued`` when it
        entered the receive queue rather than being disposed of at
        once."""
        self.rx_arrivals += 1
        if queued:
            self.rx_queued += 1

    def on_consumed(self, from_queue: bool) -> None:
        """Account one disposal: handler return, ``receive()`` pop,
        duplicate suppression, or overload drop."""
        self.rx_consumed += 1
        if from_queue and self.rx_queued > 0:
            self.rx_queued -= 1

    def on_probe(self, peer_sent: int) -> None:
        """Record the peer's cumulative sent counter from a credit
        probe (monotonic)."""
        if peer_sent > self.peer_sent:
            self.peer_sent = peer_sent

    def advertised(self) -> int:
        """The cumulative consumed counter to advertise to the peer:
        everything disposed of, plus everything the peer claims to have
        sent that neither arrived nor is queued — frames lost in
        flight, whose credit must not stay stranded."""
        lost = self.peer_sent - self.rx_consumed - self.rx_queued
        if lost > 0:
            return self.rx_consumed + lost
        return self.rx_consumed
