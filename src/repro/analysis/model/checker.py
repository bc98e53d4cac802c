"""Model-check the extracted protocol model: the MDL rules.

MDL001 (error) a sent, non-reply message has no handler anywhere — or
               none at the layer its reserved type-id range names
               (1–9 → ``repro.ntcs``, 10–39 → ``repro.naming``,
               40–63 → ``repro.drts``).  Replies are exempt: the LCM
               correlation table is their receiver.
MDL002 (error) a request's handling modules never send a reply, or a
               declared waits-state has no timeout edge — either way a
               caller can block forever on one lost frame.
MDL003 (error) a declared machine can deadlock: dead-end non-terminal
               state, unreachable state, no reachable terminal, edge
               (entry edges included) to an undeclared state, a
               ``step`` event that is no edge of its machine, or a
               ``KIND_NAMES`` kind that no declared machine edge names
               (the trace checker could not step it) — plus any
               unparseable declaration.
MDL004 (error) a machine cycle with no exit discipline — no bounded
               retry budget, no timeout edge, no queue-draining edge,
               and no progress-marked edge — can livelock.
MDL005 (error) a cycle grows a queue (``"+q"`` edge) that no edge of
               the machine ever drains (``"-q"``) — unbounded buildup,
               the flow-control readiness check.

Machines are small (a handful of states), so the graph exploration is
exhaustive, not sampled: reachability is a full BFS and cycle analysis
runs over every strongly connected component.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import (
    Finding, Project, SEVERITY_ERROR, in_package,
)
from repro.analysis.model.ir import (
    Machine,
    MessageSpec,
    ProtocolModel,
    SEND_REPLY,
)
from repro.analysis.rules.protocol import RESERVED_RANGES


def check_model(project: Project, model: ProtocolModel) -> List[Finding]:
    """Run every MDL rule over an extracted model."""
    findings: List[Finding] = []
    module_sources = {m.name: "\n".join(m.source_lines)
                      for m in project.modules}
    for module, path, line, message in model.errors:
        findings.append(_finding("MDL003", path, line, message))
    findings.extend(_check_receivers(model))
    findings.extend(_check_request_replies(model))
    for machine in model.machines:
        findings.extend(_check_machine(machine, module_sources))
    findings.extend(_check_steps(model))
    findings.extend(_check_kinds(model))
    return findings


def _finding(rule: str, path: str, line: int, message: str) -> Finding:
    return Finding(rule=rule, severity=SEVERITY_ERROR,
                   path=path, line=line, message=message)


# ---------------------------------------------------------------------------
# MDL001 — every sendable message has a receiver at the correct layer
# ---------------------------------------------------------------------------

def _required_layer(spec: MessageSpec) -> Optional[str]:
    if spec.type_id is None:
        return None
    for prefix, (lo, hi) in RESERVED_RANGES:
        if lo <= spec.type_id <= hi:
            return prefix
    return None


def _check_receivers(model: ProtocolModel) -> Iterable[Finding]:
    for name in sorted(model.messages):
        spec = model.messages[name]
        if not spec.sends or spec.is_reply:
            continue
        first_send = min(spec.sends, key=lambda s: (s.path, s.line))
        if not spec.handlers:
            yield _finding(
                "MDL001", first_send.path, first_send.line,
                f"message {name!r} (defined at {spec.path}:{spec.line}) "
                f"is sent here but has no handler anywhere in the tree",
            )
            continue
        layer = _required_layer(spec)
        if layer is not None and not any(
                in_package(h.module, layer) for h in spec.handlers):
            handled_in = sorted({h.module for h in spec.handlers})
            yield _finding(
                "MDL001", first_send.path, first_send.line,
                f"message {name!r} (type id {spec.type_id}) must be "
                f"handled under {layer}.* but is only handled in "
                f"{', '.join(handled_in)}",
            )


# ---------------------------------------------------------------------------
# MDL002(a) — every request's handling side can actually reply
# ---------------------------------------------------------------------------

def _check_request_replies(model: ProtocolModel) -> Iterable[Finding]:
    replying_modules: Set[str] = set()
    for spec in model.messages.values():
        replying_modules.update(
            s.module for s in spec.sends if s.kind == SEND_REPLY)
    for name in sorted(model.messages):
        spec = model.messages[name]
        if not spec.is_request or not spec.handlers:
            continue  # no handler at all is MDL001's report, not ours
        if not any(h.module in replying_modules for h in spec.handlers):
            first = min(spec.handlers, key=lambda s: (s.path, s.line))
            yield _finding(
                "MDL002", first.path, first.line,
                f"request {name!r} is handled here but no handling "
                f"module ever sends a reply — callers would block until "
                f"timeout on every call",
            )


# ---------------------------------------------------------------------------
# Machine graph checks: MDL002(b), MDL003, MDL004, MDL005
# ---------------------------------------------------------------------------

def _check_machine(machine: Machine,
                   module_sources: Dict[str, str]) -> Iterable[Finding]:
    where = f"machine {machine.name!r}"
    states = set(machine.states)

    if machine.initial not in states:
        yield _finding(
            "MDL003", machine.path, machine.line,
            f"{where}: initial state {machine.initial!r} is not declared")
        return
    bad_targets = False
    sources = [("entry", machine.entry)] + [
        (f"state {state!r}", edges) for state, edges in machine.edges.items()]
    for source, edges in sources:
        for edge in edges:
            if edge.next not in states:
                bad_targets = True
                yield _finding(
                    "MDL003", machine.path, machine.line,
                    f"{where}: {source} has an edge to undeclared "
                    f"state {edge.next!r}")
    for terminal in machine.terminal:
        if terminal not in states:
            bad_targets = True
            yield _finding(
                "MDL003", machine.path, machine.line,
                f"{where}: terminal state {terminal!r} is not declared")
    if bad_targets:
        return  # graph analysis below assumes a well-formed edge set

    reachable = _reachable(machine)
    for state in sorted(states - reachable):
        yield _finding(
            "MDL003", machine.path, machine.line,
            f"{where}: state {state!r} is unreachable from "
            f"{machine.initial!r}")
    terminals = set(machine.terminal)
    if terminals and not (terminals & reachable):
        yield _finding(
            "MDL003", machine.path, machine.line,
            f"{where}: no terminal state "
            f"({', '.join(sorted(terminals))}) is reachable from "
            f"{machine.initial!r} — the machine cannot finish")
    for state in sorted(reachable):
        if state not in terminals and not machine.edges.get(state):
            yield _finding(
                "MDL003", machine.path, machine.line,
                f"{where}: non-terminal state {state!r} has no outgoing "
                f"edge — a deadlock once entered")

    # MDL002(b): a waiting state must carry a timeout edge.
    for state in sorted(machine.waits & reachable):
        if not any(e.is_timeout for e in machine.edges.get(state, [])):
            yield _finding(
                "MDL002", machine.path, machine.line,
                f"{where}: state {state!r} waits for a peer but has no "
                f"timeout edge — one lost frame blocks it forever")

    # Every claimed retry bound must be a name the module really uses.
    source = module_sources.get(machine.module, "")
    claimed = sorted({e.bounded for e in machine.all_edges() if e.bounded})
    for bound in claimed:
        if bound not in source:
            yield _finding(
                "MDL004", machine.path, machine.line,
                f"{where}: claims retry bound {bound!r} but that name "
                f"appears nowhere in {machine.module}")

    drained = {e.queue[1:] for edges in machine.edges.values()
               for e in edges if e.queue and e.queue.startswith("-")}
    for component in _cyclic_sccs(machine, reachable):
        internal = [
            (state, edge)
            for state in component
            for edge in machine.edges.get(state, [])
            if edge.next in component
        ]
        # MDL004: a cycle needs an exit discipline.
        if not any(
                e.is_timeout or e.bounded or e.progress
                or (e.queue and e.queue.startswith("-"))
                for _, e in internal):
            cycle = " -> ".join(sorted(component))
            yield _finding(
                "MDL004", machine.path, machine.line,
                f"{where}: cycle [{cycle}] has no timeout, retry bound, "
                f"progress, or draining edge — it can livelock")
        # MDL005: a cycle growing a queue nobody drains.
        for state, edge in internal:
            if edge.queue and edge.queue.startswith("+"):
                queue = edge.queue[1:]
                if queue not in drained:
                    yield _finding(
                        "MDL005", machine.path, machine.line,
                        f"{where}: cycle through {state!r} grows queue "
                        f"{queue!r} but no edge of the machine drains it")


def _reachable(machine: Machine) -> Set[str]:
    seen = {machine.initial} | {e.next for e in machine.entry}
    frontier = list(seen)
    while frontier:
        state = frontier.pop()
        for edge in machine.edges.get(state, []):
            if edge.next not in seen:
                seen.add(edge.next)
                frontier.append(edge.next)
    return seen


def _cyclic_sccs(machine: Machine,
                 reachable: Set[str]) -> List[Set[str]]:
    """Strongly connected components that contain a cycle: size > 1, or
    a single state with a self-loop.  Iterative Tarjan — machines are
    tiny but fixture machines should not be able to blow the stack."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    components: List[Set[str]] = []

    def successors(state: str) -> List[str]:
        return [e.next for e in machine.edges.get(state, [])
                if e.next in reachable]

    for root in sorted(reachable):
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            state, child = work.pop()
            if child == 0:
                index[state] = lowlink[state] = counter[0]
                counter[0] += 1
                stack.append(state)
                on_stack.add(state)
            succ = successors(state)
            advanced = False
            for position in range(child, len(succ)):
                nxt = succ[position]
                if nxt not in index:
                    work.append((state, position + 1))
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[state] = min(lowlink[state], index[nxt])
            if advanced:
                continue
            if lowlink[state] == index[state]:
                component: Set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == state:
                        break
                if len(component) > 1 or any(
                        e.next == state
                        for e in machine.edges.get(state, [])):
                    components.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[state])
    return components


# ---------------------------------------------------------------------------
# Steps: every event a step takes is an edge of its machine (MDL003)
# ---------------------------------------------------------------------------

def _check_steps(model: ProtocolModel) -> Iterable[Finding]:
    events = {machine.name: {edge.event for edge in machine.all_edges()}
              for machine in model.machines}
    for path, line, machine, event in model.steps:
        if event not in events.get(machine, ()):
            yield _finding(
                "MDL003", path, line,
                f"step takes {event!r}, which is no edge event of a "
                f"declared {machine!r} machine")


# ---------------------------------------------------------------------------
# Kind table: every wire kind is a machine event (MDL003)
# ---------------------------------------------------------------------------

def _check_kinds(model: ProtocolModel) -> Iterable[Finding]:
    named = {edge.kind for machine in model.machines
             for edge in machine.all_edges()}
    for table in model.kind_tables:
        for name in sorted(set(table.names.values()) - named):
            yield _finding(
                "MDL003", table.path, table.line,
                f"wire kind {name!r} in {table.module}'s KIND_NAMES is "
                f"named by no declared machine edge — traces cannot step "
                f"it")
