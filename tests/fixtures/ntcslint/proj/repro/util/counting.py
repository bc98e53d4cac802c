"""Seeded ONE006 / ONE007: a count is a plain dict update of a declared
metric (PROTOCOL.md §15)."""

from functools import partial

from repro.util.counters import NUCLEUS, ND_MESSAGES_SENT, declare

_nucleus = partial(declare, NUCLEUS)
GOOD = _nucleus("good", "a declared metric")
FAMILY = tuple(_nucleus(f"bucket_{k}", "a declared family") for k in range(2))
NOT_A_METRIC = "plain"


def count(nucleus, stats, k, metric):
    nucleus.counters.incr("frames")                 # ONE006
    stats.record_max("depth", 3)                    # ONE006
    nucleus.counters["nd_messages_sent"] += 1       # ONE007
    nucleus.counters[f"bucket_{k}"] += 1            # ONE007
    nucleus.counters[NOT_A_METRIC] += 1             # ONE007
    nucleus.counters[metric] = 0                    # ONE007
    nucleus.counters[FAMILY] += 1                   # ONE007: a whole family
    nucleus.counters[GOOD[k]] += 1                  # ONE007: not a family


def sanctioned(nucleus, k):
    nucleus.counters[GOOD] += 1
    nucleus._counters[FAMILY[k]] += 1
    nucleus.counters[ND_MESSAGES_SENT] += 1         # bound outside the scan
