"""Simulated processes.

A :class:`SimProcess` is the unit of distribution in the paper's model
("distributed at the process level", Sec. 1): application modules, the
Name Server, Gateways, and DRTS services are all processes.  A process
owns communication resources (IPCS endpoints) that are torn down when it
is killed — which is how the rest of the system *finds out* it died
(the ND-Layer of connected modules sees the channel close, Sec. 4.3).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.machine.machine import Machine
from repro.util.idgen import SequenceGenerator

_pids = SequenceGenerator()


class SimProcess:
    """One process on one machine.

    Death has two phases, like an OS running exit handlers before it
    reclaims descriptors (PROTOCOL.md §10): first the callbacks
    registered with :meth:`at_kill` (naming-service deregistration,
    ...), while the process's circuits still exist to carry their
    farewells; then every communication resource it still owns
    (:meth:`own`) is closed — channels, then its listener.  A resource
    that closes earlier is released with :meth:`disown`, so a
    long-lived process references only what it currently has open.
    """

    def __init__(self, machine: Machine, name: str):
        self.machine = machine
        self.name = name
        self.pid = _pids.next()
        self.alive = True
        self._kill_hooks: List[Callable[[], None]] = []
        # Open communication resources (anything with ``close()``), in
        # acquisition order; a dict for O(1) disown.
        self._resources: Dict[object, None] = {}
        machine.adopt(self)

    @property
    def scheduler(self):
        return self.machine.scheduler

    def at_kill(self, hook: Callable[[], None]) -> None:
        """Register a cleanup hook to run when the process is killed."""
        self._kill_hooks.append(hook)

    def own(self, resource) -> None:
        """Tie a communication resource's lifetime to this process: it
        is closed when the process dies, unless it closes (and is
        released with :meth:`disown`) first."""
        self._resources[resource] = None

    def disown(self, resource) -> None:
        """Forget a resource that has closed on its own."""
        self._resources.pop(resource, None)

    def kill(self) -> None:
        """Terminate the process: mark dead, run cleanup hooks, then
        close owned resources — each newest first, and each drained
        until empty so whatever a hook or a close registers mid-kill
        (a farewell that had to open a circuit) is torn down too.
        Idempotent."""
        if not self.alive:
            return
        self.alive = False
        hooks, resources = self._kill_hooks, self._resources
        while hooks or resources:
            if hooks:
                hooks.pop()()
            else:
                resources.popitem()[0].close()
        if self in self.machine.processes:
            self.machine.processes.remove(self)

    def check_alive(self) -> bool:
        """True while the process has not been killed."""
        return self.alive

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"SimProcess({self.name!r} pid={self.pid} on {self.machine.name}, {state})"
