"""Seeded DET006 violations: a private event heap outside the shared
timer module.  Lives under repro.realnet to pin that the realtime
substrate's wall-clock exemption does NOT extend to heapq — both
drivers must file timers through repro.netsim.scheduler."""

import heapq                                       # line 6: DET006
from heapq import heappush, heappop                # line 7: DET006


def rogue_timer_loop(timers):
    """A second, unaccounted event queue — exactly what DET006 bans."""
    queue = []
    for t in timers:
        heappush(queue, t)
    return heapq.heapify(queue) or heappop(queue)
