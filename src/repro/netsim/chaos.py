"""Deterministic chaos harness: scripted faults on virtual time.

The paper promises that applications "need not be aware of relocation,
failure, or reconfiguration" (Sec. 1) — a claim that is only testable
when failures actually happen, at controlled instants, identically on
every run.  A :class:`ChaosSchedule` is a seeded, JSON-serializable
list of timed fault operations; a :class:`ChaosEngine` installs it onto
the discrete-event :class:`~repro.netsim.scheduler.Scheduler`, so fault
injection rides the same (time, seq) total order as every protocol
event and runs are bit-deterministic.  The engine only calls ``now``
and ``schedule``, so it installs on the wall-clock
:class:`~repro.realnet.kernel.RealtimeKernel` as well.

The engine knows nothing of the NTCS layers above it (this module may
only import the foundation and its own package): process/gateway/
Name-Server crash and restart are *registered callables* — the harness
(``repro.testbed``) wires machine crashes and component restarts in —
while link flaps, partitions and datagram drops act directly on the
registered networks' :class:`~repro.netsim.faults.FaultPlan`.

Operations (``ChaosEvent.op``):

==================  =======================================================
``crash``           invoke the target's registered crash callable
``restart``         invoke the target's registered restart callable
``link_down``       ``faults.sever(a, b)`` on the target network
``link_up``         ``faults.heal(a, b)`` on the target network
``partition``      ``faults.partition(*groups)`` on the target network
``heal_partition``  ``faults.heal_partition()`` on the target network
``drop_next``       ``faults.drop_next(count)`` on the target network
``drop_probability`` set probabilistic loss on the target network
``clear_faults``    ``faults.clear()`` on the target network
==================  =======================================================
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.netsim.scheduler import Scheduler
from repro.util.seeds import derive_rng

_NETWORK_OPS = frozenset({
    "link_down", "link_up", "partition", "heal_partition",
    "drop_next", "drop_probability", "clear_faults",
})
_TARGET_OPS = frozenset({"crash", "restart"})


@dataclass
class ChaosEvent:
    """One timed fault operation.

    ``at`` is absolute virtual time; ``target`` names a registered
    crash/restart target or a registered network; ``args`` carries the
    op-specific parameters (host pairs, groups, counts)."""

    at: float
    op: str
    target: str
    args: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {"at": self.at, "op": self.op, "target": self.target,
                "args": dict(self.args)}

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosEvent":
        """Parse one event; a non-finite ``at`` (JSON ``NaN`` or
        ``Infinity``) is rejected, since it names no instant."""
        at = float(data["at"])
        if not math.isfinite(at):
            raise SimulationError(f"chaos event time must be finite, got {at}")
        return cls(at=at, op=str(data["op"]),
                   target=str(data["target"]),
                   args=dict(data.get("args", {})))


class ChaosSchedule:
    """A seeded, replayable fault schedule.

    The seed does not drive the schedule itself (events are explicit);
    it names the randomness the *system under test* should use for
    repair jitter, so a schedule JSON pins the entire run."""

    def __init__(self, seed: int = 0,
                 events: Optional[Sequence[ChaosEvent]] = None):
        self.seed = int(seed)
        self.events: List[ChaosEvent] = list(events or [])

    # -- construction helpers ------------------------------------------------

    def add(self, at: float, op: str, target: str, **args) -> "ChaosSchedule":
        """Append one event; returns self for chaining."""
        self.events.append(ChaosEvent(at=at, op=op, target=target, args=args))
        return self

    def crash(self, at: float, target: str) -> "ChaosSchedule":
        """Shorthand for ``add(at, "crash", target)``."""
        return self.add(at, "crash", target)

    def restart(self, at: float, target: str) -> "ChaosSchedule":
        """Shorthand for ``add(at, "restart", target)``."""
        return self.add(at, "restart", target)

    def sorted_events(self) -> List[ChaosEvent]:
        """Events in (time, insertion) order — the order they fire."""
        indexed = sorted(enumerate(self.events),
                         key=lambda pair: (pair[1].at, pair[0]))
        return [event for _, event in indexed]

    # -- JSON round trip -----------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize for replay (printed by failing property tests)."""
        return json.dumps({
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChaosSchedule":
        data = json.loads(text)
        return cls(seed=int(data.get("seed", 0)),
                   events=[ChaosEvent.from_dict(e)
                           for e in data.get("events", [])])

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"ChaosSchedule(seed={self.seed}, events={len(self.events)})"


class ChaosEngine:
    """Installs a :class:`ChaosSchedule` onto a scheduler.

    Targets and networks are registered before :meth:`install`;
    installation validates every event so a typo'd schedule fails fast
    and identically on every run.  ``applied`` logs each operation as
    it fires — (virtual time, op, target) — for assertions and reports.
    """

    def __init__(self, scheduler: Scheduler, schedule: ChaosSchedule):
        self.scheduler = scheduler
        self.schedule = schedule
        self._crash: Dict[str, Callable[[], None]] = {}
        self._restart: Dict[str, Callable[[], None]] = {}
        self._networks: Dict[str, object] = {}
        self.applied: List[Tuple[float, str, str]] = []
        self._installed = False

    # -- registration -------------------------------------------------------

    def register_target(self, name: str,
                        crash: Optional[Callable[[], None]] = None,
                        restart: Optional[Callable[[], None]] = None) -> None:
        """Register crash/restart callables for a named target."""
        if crash is not None:
            self._crash[name] = crash
        if restart is not None:
            self._restart[name] = restart

    def register_network(self, name: str, network) -> None:
        """Register a network whose FaultPlan the link ops may drive."""
        self._networks[name] = network

    # -- installation --------------------------------------------------------

    def _validate(self, event: ChaosEvent) -> None:
        if event.op in _TARGET_OPS:
            table = self._crash if event.op == "crash" else self._restart
            if event.target not in table:
                raise SimulationError(
                    f"chaos event {event.op!r} names unregistered target "
                    f"{event.target!r}"
                )
        elif event.op in _NETWORK_OPS:
            if event.target not in self._networks:
                raise SimulationError(
                    f"chaos event {event.op!r} names unregistered network "
                    f"{event.target!r}"
                )
        else:
            raise SimulationError(f"unknown chaos op {event.op!r}")

    def install(self) -> None:
        """Validate and schedule every event at its absolute time.
        Events whose time has already passed fire immediately (delay 0),
        preserving schedule order."""
        if self._installed:
            raise SimulationError("chaos schedule already installed")
        self._installed = True
        for event in self.schedule.sorted_events():
            self._validate(event)
            delay = max(0.0, event.at - self.scheduler.now)
            self.scheduler.schedule(
                delay, self._applier(event),
                note=f"chaos:{event.op}:{event.target}",
            )

    def _applier(self, event: ChaosEvent) -> Callable[[], None]:
        def apply() -> None:
            self._apply(event)
            self.applied.append((self.scheduler.now, event.op, event.target))
        return apply

    def _apply(self, event: ChaosEvent) -> None:
        op, args = event.op, event.args
        if op == "crash":
            self._crash[event.target]()
        elif op == "restart":
            self._restart[event.target]()
        else:
            faults = self._networks[event.target].faults
            if op == "link_down":
                faults.sever(str(args["a"]), str(args["b"]))
            elif op == "link_up":
                faults.heal(str(args["a"]), str(args["b"]))
            elif op == "partition":
                faults.partition(*[set(map(str, g)) for g in args["groups"]])
            elif op == "heal_partition":
                faults.heal_partition()
            elif op == "drop_next":
                faults.drop_next(int(args.get("count", 1)))
            elif op == "drop_probability":
                faults.drop_probability = float(args["p"])
            elif op == "clear_faults":
                faults.clear()

    def remaining(self) -> int:
        """Events scheduled but not yet applied."""
        return len(self.schedule) - len(self.applied)


def random_schedule(
    seed: int,
    horizon: float,
    restartable: Sequence[str] = (),
    networks: Optional[Dict[str, Sequence[str]]] = None,
    faults: int = 3,
) -> ChaosSchedule:
    """A random-but-seeded schedule for property tests.

    Every injected fault heals before ``horizon``: crashes get a
    matching restart, severed links get healed, partitions are removed,
    so a correct system can always finish the conversation afterwards.

    ``restartable``: target names with registered crash *and* restart.
    ``networks``: network name -> hosts on it (for link/partition ops).
    """
    rng = derive_rng(seed, "chaos.schedule")
    networks = networks or {}
    schedule = ChaosSchedule(seed=seed)
    kinds: List[str] = []
    if restartable:
        kinds.append("crash_restart")
    for name, hosts in sorted(networks.items()):
        if len(hosts) >= 2:
            kinds.extend(["link_flap", "partition_heal", "drop_next"])
            break
    if not kinds:
        return schedule
    for _ in range(faults):
        kind = rng.choice(kinds)
        start = rng.uniform(0.05, horizon * 0.5)
        heal = rng.uniform(start + 0.05, horizon * 0.9)
        if kind == "crash_restart":
            target = rng.choice(sorted(restartable))
            schedule.crash(start, target)
            schedule.restart(heal, target)
        else:
            net_name = rng.choice(sorted(
                n for n, hosts in networks.items() if len(hosts) >= 2))
            hosts = sorted(networks[net_name])
            if kind == "link_flap":
                a, b = rng.sample(hosts, 2)
                schedule.add(start, "link_down", net_name, a=a, b=b)
                schedule.add(heal, "link_up", net_name, a=a, b=b)
            elif kind == "partition_heal":
                cut = rng.randint(1, len(hosts) - 1)
                shuffled = hosts[:]
                rng.shuffle(shuffled)
                schedule.add(start, "partition", net_name,
                             groups=[shuffled[:cut], shuffled[cut:]])
                schedule.add(heal, "heal_partition", net_name)
            else:
                schedule.add(start, "drop_next", net_name,
                             count=rng.randint(1, 3))
    return schedule
