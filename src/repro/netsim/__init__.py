"""Deterministic discrete-event network simulation substrate.

The paper's NTCS ran over real LANs between real Apollo/VAX/Sun
machines.  This package supplies the reproduction's stand-in: a
deterministic event scheduler with a virtual clock over one
``(time, seq)`` event heap (:mod:`scheduler`, whose ``EventQueue`` the
wall-clock kernel in :mod:`repro.realnet` drives too), named networks with per-link latency (:mod:`network`), and fault
injection — message drop, partition, endpoint death (:mod:`faults`).

The scheduler is *reentrant*: an event handler may itself block by
pumping the queue (see :meth:`Scheduler.pump_until`), which is how the
reproduction models the paper's passive, recursive Nucleus (Sec. 6).
"""

from repro.netsim.scheduler import Scheduler, Event
from repro.netsim.network import Network, Interface, Datagram
from repro.netsim.faults import FaultPlan
from repro.netsim.tracelog import NetTraceLog
from repro.netsim.chaos import ChaosEngine, ChaosEvent, ChaosSchedule, random_schedule

__all__ = [
    "Scheduler",
    "Event",
    "Network",
    "Interface",
    "Datagram",
    "FaultPlan",
    "NetTraceLog",
    "ChaosEngine",
    "ChaosEvent",
    "ChaosSchedule",
    "random_schedule",
]
