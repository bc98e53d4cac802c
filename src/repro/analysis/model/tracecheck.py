"""Replay netsim JSONL wire traces through the declared wire machines.

Each payload blob of a :class:`repro.netsim.tracelog.NetTraceLog` trace
is read under its IPCS's framing (PROTOCOL.md §7); one with NTCS magic
is a frame, stepped as ``send`` at its sender and ``recv`` at its
receiver when transmitted, dropped or not, through the two wire
machines the MDL rules also check.  ``lvc`` runs per ``(network, host,
peer host)``, keeping the union of the states reached, since LVC frames
carry no LVC identity; a kind it does not name is its DATA.  A union
counts no bound: the frames a dial sends behind its LVC_HELLO, from the
HELLO's source until the answer, also step an exact instance of their
own, which does.  ``ivc-endpoint`` runs per hop of a chained circuit, as the hop's opener
sees it: per ``(network, opener host, answerer host, originator)``,
holding the destination.  An entry edge's frame starts it unless it is
still in that edge's state for the destination (a retry); a frame
repeated in an instance counts once; other frames of no live chained
circuit are a direct circuit's, entered by the silent entry edge.  A
request with ``FLAG_RIDES_OPEN`` is ``DATA rides_open`` (to a direct
circuit, its plain DATA once it rode a dial's HELLO); ``local`` and
``timeout`` edges are taken silently.  TRC001: a frame with no edge
from any state its instance may be in.  TRC002: a kind not in the kind
table, a line that is no frame event, or no NTCS frame at all.  TRC003:
a ``bounded`` edge taken in one instance past the constant it names.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, SEVERITY_ERROR
from repro.analysis.model.ir import Edge, Machine, ProtocolModel
from repro.conversion.shiftmode import shift_decode_u32s
from repro.ntcs.message import (
    FLAG_CONNECTIONLESS, FLAG_REPLY_EXPECTED, FLAG_RIDES_OPEN, HeaderView)
from repro.errors import NtcsError, ProtocolError

# The wire machines, and what a replay took of them: (machine name,
# source state or None for an entry edge, edge).
WIRE_MACHINES = ("lvc", "ivc-endpoint")
TakenEdge = Tuple[str, Optional[str], Edge]

# Framing bytes each IPCS puts before one NTCS message (PROTOCOL.md
# §7); a protocol not named here carries the message alone.
_PREFIX_BYTES = {"tcp": 4}


def _ntcs_frame(blob: bytes, protocol: str) -> Optional[bytes]:
    """The NTCS frame a payload blob carries under ``protocol``'s
    framing, or None for transport noise."""
    prefix = _PREFIX_BYTES.get(protocol, 0)
    if prefix:
        if (len(blob) < prefix
                or shift_decode_u32s(blob, 1)[0] != len(blob) - prefix):
            return None
        blob = blob[prefix:]
    try:
        HeaderView(blob)
    except ProtocolError:
        return None
    return blob


class _Instance:
    """The states one machine instance may be in, its destination, its
    bounded-edge counts and the frames it has seen."""

    def __init__(self, states: frozenset, dst=None):
        self.states, self.dst = states, dst
        self.counts: Counter = Counter()
        self.seen: Set[bytes] = set()


class _Walk:
    """Steps the instances of one declared machine."""

    def __init__(self, machine: Machine, taken: Set[TakenEdge]):
        self.machine, self.taken = machine, taken
        self.kinds = {edge.kind for edge in machine.all_edges()}
        self.instances: Dict[tuple, _Instance] = {}

    def enter(self, states: Iterable[str], dst=None) -> _Instance:
        """An instance in ``states`` and every state silent edges reach
        from them."""
        states = set(states)
        frontier = list(states)
        while frontier:
            for edge in self.machine.edges.get(frontier.pop(), ()):
                if edge.is_silent and edge.next not in states:
                    states.add(edge.next)
                    frontier.append(edge.next)
        return _Instance(frozenset(states), dst)

    def step(self, instance: _Instance, event: str,
             union: bool = False) -> Optional[Tuple[str, str]]:
        """Take ``event``; None when the model allows it, else the rule
        it breaks and why."""
        moves = [(state, edge) for state in instance.states
                 for edge in self.machine.edges.get(state, ())
                 if edge.event == event]
        if not moves:
            return "TRC001", (f"{self.machine.name} has no {event!r} edge "
                              f"from {sorted(instance.states)}")
        self.taken.update((self.machine.name, *move) for move in moves)
        reached = self.enter(edge.next for _, edge in moves).states
        if union:
            # A union holds several circuits' stays: it counts no bound.
            instance.states = instance.states | reached
            return None
        instance.states = reached
        for edge in {edge for _, edge in moves if edge.bounded}:
            instance.counts[edge] += 1
            limit = self.machine.bounds.get(edge.bounded)
            if limit is not None and instance.counts[edge] > limit:
                return "TRC003", (f"{self.machine.name} took {event!r} past "
                                  f"its bound {edge.bounded} = {limit} in "
                                  f"one instance")
        return None


def _step_lvc(walk: _Walk, network: str, sender: str, receiver: str,
              name: str) -> Optional[Tuple[str, str]]:
    token = name if name in walk.kinds else "DATA"
    for key, event in (((network, sender, receiver), f"send {token}"),
                       ((network, receiver, sender), f"recv {token}")):
        if key not in walk.instances:
            walk.instances[key] = walk.enter((walk.machine.initial,))
        broken = walk.step(walk.instances[key], event, union=True)
        if broken:
            return broken
    return None


def _step_dial(walk: _Walk, dials: Dict[tuple, _Instance],
               direct: Set[bytes], network: str, sender: str,
               receiver: str, header: HeaderView, name: str, frame: bytes,
               rider: bool) -> Optional[Tuple[str, str]]:
    """Step the frames a dial sends behind its LVC_HELLO through an
    exact ``lvc`` instance, which counts the riding edge's bound: the
    frames on the hop from the HELLO's source, until the answer or a
    frame from another source.  Every HELLO starts a run; a request
    first in its run is a direct circuit's, and joins ``direct``."""
    try:
        src, dst = header.src, header.dst
    except NtcsError:
        return None
    if name == "LVC_HELLO":
        dials[network, sender, receiver] = walk.enter(("HELLO_SENT",), src)
        return None
    if name == "LVC_HELLO_ACK":
        answered = dials.get((network, receiver, sender))
        if answered is not None and answered.dst == dst:
            del dials[network, receiver, sender]
        return None
    dial = dials.get((network, sender, receiver))
    if dial is None:
        return None
    if dial.dst != src:
        del dials[network, sender, receiver]
        return None
    if frame in dial.seen:
        return None
    if rider and not dial.seen:
        direct.add(frame)
    dial.seen.add(frame)
    return walk.step(dial, "send DATA rides_open" if rider else "send DATA")


def _step_ivc(walk: _Walk, network: str, sender: str, receiver: str,
              header: HeaderView, name: str, frame: bytes,
              rode_hello: bool) -> Optional[Tuple[str, str]]:
    try:
        src, dst = header.src, header.dst
    except NtcsError:
        return None  # no circuit has a zero address
    key, event = (network, sender, receiver, src), f"send {name}"
    instance = walk.instances.get(key)
    entry = [edge for edge in walk.machine.entry if edge.event == event]
    if entry:
        nexts = {edge.next for edge in entry}
        if (instance is None or instance.dst != dst
                or not nexts <= instance.states):
            entered = walk.enter(nexts, dst)
            if instance is not None and frame in instance.seen:
                # The same bytes again: a transport resend of an open
                # already answered, or a new open identical to the last.
                # The hop keeps the states it had as well.
                entered.states |= instance.states
            instance = walk.instances[key] = entered
            walk.taken.update((walk.machine.name, None, e) for e in entry)
        instance.seen.add(frame)
        return None
    if instance is None or instance.dst != dst:
        key, event = (network, receiver, sender, dst), f"recv {name}"
        instance = walk.instances.get(key)
    if rode_hello:
        # The request first behind a dial's LVC_HELLO: the plain DATA of
        # a direct circuit, whatever chained circuit shares its key.
        instance, name = None, "DATA"
    if instance is not None and frame in instance.seen:
        return None
    if instance is None or instance.states <= set(walk.machine.terminal):
        # A direct circuit: both of its ends are constructed OPEN.
        direct = [e.next for e in walk.machine.entry if e.is_silent]
        broken = (walk.step(walk.enter(direct), f"send {name}")
                  or walk.step(walk.enter(direct), f"recv {name}"))
        return broken and (broken[0], f"no open on this hop (a direct "
                                      f"circuit), and {broken[1]}")
    instance.seen.add(frame)
    return walk.step(instance, event)


def _frame_event(event) -> Optional[Tuple[str, dict, List[bytes]]]:
    """A frame event's network, args and payload blobs, or None for a
    blank line or another event; ValueError for anything unreadable."""
    try:
        if isinstance(event, str):  # a raw trace line
            event = json.loads(event) if event.strip() else {}
        if event.get("op") != "frame":
            return None
        args = event["args"]
        blobs = [bytes.fromhex(blob) for blob in args.get("frames", [])]
        return str(event.get("target", "")), args, blobs
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ValueError("trace line is not a frame event the checker "
                         "can read") from None


def replay_trace(path: str, model: ProtocolModel,
                 taken: Optional[Set[TakenEdge]] = None,
                 events: Optional[Iterable] = None,
                 ) -> Tuple[List[Finding], int]:
    """Replay one JSONL trace file — or its already decoded ``events``,
    reported against ``path`` — through the model's wire machines.
    Returns the findings and the number of NTCS frames checked, and
    adds every edge taken to ``taken`` when given."""
    def finding(rule: str, line: int, message: str) -> Finding:
        return Finding(rule=rule, severity=SEVERITY_ERROR,
                       path=path, line=line, message=message)

    machines = {m.name: m for m in model.machines if m.name in WIRE_MACHINES}
    if len(machines) < len(WIRE_MACHINES):
        return [finding("TRC002", 1, "no lvc and ivc-endpoint machines "
                        "were extracted — traces cannot be checked")], 0
    taken = set() if taken is None else taken
    lvc, ivc = (_Walk(machines[name], taken) for name in WIRE_MACHINES)
    dials: Dict[tuple, _Instance] = {}
    direct: Set[bytes] = set()
    kinds = {kind: name for table in model.kind_tables
             for kind, name in table.names.items()}
    if events is None:
        events = Path(path).read_text().splitlines()
    findings: List[Finding] = []
    checked = 0
    for lineno, event in enumerate(events, start=1):
        try:
            parsed = _frame_event(event)
        except ValueError as exc:
            findings.append(finding("TRC002", lineno, str(exc)))
            continue
        if parsed is None:
            continue
        network, args, blobs = parsed
        sender, receiver = str(args.get("src", "")), str(args.get("dst", ""))
        for blob in blobs:
            frame = _ntcs_frame(blob, str(args.get("protocol", "")))
            if frame is None:
                continue
            checked += 1
            header = HeaderView(frame)
            name = kinds.get(header.kind)
            where = f"({sender} -> {receiver} on {network})"
            if name is None:
                findings.append(finding(
                    "TRC002", lineno, f"frame kind {header.kind} {where} "
                    f"is not in the kind table"))
                continue
            flags = header.flags
            rider = bool(name == "DATA" and flags & FLAG_RIDES_OPEN
                         and flags & FLAG_REPLY_EXPECTED
                         and not flags & FLAG_CONNECTIONLESS)
            broken = (_step_lvc(lvc, network, sender, receiver, name)
                      or _step_dial(lvc, dials, direct, network, sender,
                                    receiver, header, name, frame, rider))
            if broken is None and name in ivc.kinds:
                broken = _step_ivc(ivc, network, sender, receiver, header,
                                   "DATA rides_open" if rider else name,
                                   frame, frame in direct)
            if broken:
                findings.append(finding(
                    broken[0], lineno, f"{name} {where}: {broken[1]}"))
    if not checked:
        findings.append(finding("TRC002", 1, "no NTCS frames to check"))
    return findings, checked


def untaken_edges(model: ProtocolModel, taken: Set[TakenEdge]) -> List[str]:
    """Every ``send``/``recv`` edge of the wire machines no replayed
    frame took, as ``machine STATE --event--> NEXT`` (``(entry)`` for an
    entry edge)."""
    return [f"{machine.name} {state or '(entry)'} --{edge.event}--> "
            f"{edge.next}"
            for machine in model.machines if machine.name in WIRE_MACHINES
            for state, edges in [(None, machine.entry),
                                 *machine.edges.items()]
            for edge in edges
            if edge.kind and (machine.name, state, edge) not in taken]
