"""Named event counters.

Several experiments assert *absence* claims from the paper — e.g.
"no inter-gateway communication ever takes place" (Sec. 4.2) and
"no needless conversions" (Sec. 5).  Absence is only checkable when the
relevant events are counted at the point they would occur, so the NTCS
layers increment :class:`CounterSet` entries; the tier-1 tests pin
them, and the experiment benches and ``bench_e2e`` report them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, Tuple

# Fast-path event names (PROTOCOL.md, "Fast path and wire invariance").
# Incremented by the ND-Layer / Gateway so E5-internet can report the
# per-hop work the splice path saves: frames forwarded verbatim without
# re-serialization, and header-checksum verifications a pass-through
# hop skipped (the terminating endpoint verifies once for the chain).
ND_FRAMES_FORWARDED = "nd_frames_forwarded"
GATEWAY_CHECKSUM_VERIFIES_DEFERRED = "gateway_checksum_verifies_deferred"

# Flow-control event names (PROTOCOL.md §12).  The bounded-memory claim
# is an absence claim too — "no per-LVC queue ever exceeds its
# watermark" — so the layers count every stall, probe, grant, drop, and
# the deepest any LVC's receive-queue attribution ever got.
LVC_RX_QUEUE_HIGH_WATER = "lvc_rx_queue_high_water"
IP_CREDIT_STALLS = "ip_credit_stalls"
IP_CREDIT_PROBES = "ip_credit_probes"
IP_CREDIT_GRANTS = "ip_credit_grants"
IP_CREDIT_RESYNCS = "ip_credit_resyncs"
ALI_SEND_BLOCKED = "ali_send_blocked"
DROP_CONNECTIONLESS = "drop_connectionless"
GATEWAY_CREDIT_DROPS = "gateway_credit_overruns_dropped"
GATEWAY_CREDIT_CLAMPS = "gateway_credit_clamps"

# A gateway's final chain hop dialled the blob its stack's address
# cache held (Sec. 3.3) and the connect failed, so it fell back to the
# naming service (PROTOCOL.md §3, "IVC through gateways").
GATEWAY_STALE_ADDR_FALLBACKS = "gateway_stale_addr_fallbacks"


class CounterSet:
    """A mutable set of named integer counters.

    >>> c = CounterSet()
    >>> c.incr("sends"); c.incr("sends", 2)
    >>> c["sends"]
    3
    >>> c["never_touched"]
    0
    """

    def __init__(self):
        self._counts: Counter = Counter()

    def incr(self, name: str, amount: int = 1) -> None:
        """Add to one named counter (default +1)."""
        self._counts[name] += amount

    def record_max(self, name: str, value: int) -> None:
        """Raise one named counter to ``value`` if it is below it — a
        high-water mark rather than an accumulator."""
        if value > self._counts[name]:
            self._counts[name] = value

    def __getitem__(self, name: str) -> int:
        return self._counts[name]

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def reset(self, name: str = None) -> None:
        """Reset one counter, or all of them when ``name`` is None."""
        if name is None:
            self._counts.clear()
        else:
            self._counts.pop(name, None)

    def snapshot(self) -> Dict[str, int]:
        """An immutable copy of the current counts."""
        return dict(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"CounterSet({inner})"
