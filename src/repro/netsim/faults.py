"""Fault injection for the simulated networks.

The paper's dynamic-reconfiguration and gateway-failure machinery
(Secs. 3.5, 4.3) only does anything observable when links break,
messages vanish, and modules die.  A :class:`FaultPlan` is attached to a
:class:`~repro.netsim.network.Network` and consulted for every datagram.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Optional, Set, Tuple


class FaultPlan:
    """Mutable description of what is currently broken on one network.

    Supports:
      * probabilistic datagram loss (seeded, deterministic),
      * a fixed number of "drop the next N datagrams",
      * severed host pairs (both directions),
      * partitions: the network is split into groups; datagrams only
        flow within a group.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self.drop_probability = 0.0
        self._drop_next = 0
        self._severed: Set[FrozenSet[str]] = set()
        self._partition: Optional[Tuple[FrozenSet[str], ...]] = None
        self.dropped = 0

    # -- configuration ----------------------------------------------------

    def drop_next(self, count: int = 1) -> None:
        """Unconditionally drop the next ``count`` datagrams."""
        self._drop_next += count

    def sever(self, host_a: str, host_b: str) -> None:
        """Break the link between two hosts (both directions)."""
        self._severed.add(frozenset((host_a, host_b)))

    def heal(self, host_a: str, host_b: str) -> None:
        """Restore a previously severed link."""
        self._severed.discard(frozenset((host_a, host_b)))

    def partition(self, *groups: Set[str]) -> None:
        """Split the network into the given host groups."""
        self._partition = tuple(frozenset(g) for g in groups)

    def heal_partition(self) -> None:
        """Remove the partition; all hosts reach each other again."""
        self._partition = None

    def clear(self) -> None:
        """Remove every *configured* fault: probabilistic loss, pending
        ``drop_next`` budget, severed links, and the partition.  The
        ``dropped`` statistic is an observation, not a configuration,
        and is deliberately kept — callers diffing it across a chaos
        window must not lose the tally when the window is cleared."""
        self.drop_probability = 0.0
        self._drop_next = 0
        self._severed.clear()
        self._partition = None

    @property
    def pending_drops(self) -> int:
        """How many unconditional ``drop_next`` drops remain armed."""
        return self._drop_next

    # -- consultation -----------------------------------------------------

    def blocks(self, src_host: str, dst_host: str) -> bool:
        """True when the src→dst path is administratively broken
        (severed link or partition) — the datagram can never arrive."""
        if frozenset((src_host, dst_host)) in self._severed:
            return True
        if self._partition is not None:
            for group in self._partition:
                if src_host in group:
                    return dst_host not in group
            return True  # src in no group: isolated
        return False

    def should_drop(self, src_host: str, dst_host: str) -> bool:
        """Decide the fate of one datagram; counts drops."""
        # With nothing severed or partitioned ``blocks`` cannot say yes:
        # skip building its frozenset.  Every later decision, and the
        # RNG draw, happens exactly as it would have.
        if ((self._severed or self._partition is not None)
                and self.blocks(src_host, dst_host)):
            self.dropped += 1
            return True
        if self._drop_next > 0:
            self._drop_next -= 1
            self.dropped += 1
            return True
        if self.drop_probability > 0 and self._rng.random() < self.drop_probability:
            self.dropped += 1
            return True
        return False
