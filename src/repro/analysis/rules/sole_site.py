"""Sole-site rules: where PROTOCOL.md says one place decides, only that
place may spell the decision (ANALYSIS.md, "Sole sites").  Each is a row
of :data:`SOLE_SITES`; ONE007 checks that a counter-store key names a
declared metric.  :func:`row_sites` and :func:`metric_sites` list every
match, so tier-1 asserts each allowed site and metric is still used;
that half is no finding, as a partial scan misses sites legitimately.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.analysis.engine import (
    SEVERITY_ERROR,
    Finding,
    ModuleInfo,
    Project,
    in_package,
    literal_str,
    rule,
    terminal_name,
)

Declaration = Tuple[str, str]            # (module, module-level name)


@dataclass(frozen=True)
class SoleSite:
    """One row: ``pattern`` may match only at ``allowed``, the
    ``(module, function)`` sites (function None: anywhere in module or
    package)."""

    id: str
    rule: str                    # what must not appear elsewhere, and why
    section: str                 # the PROTOCOL.md section stating it
    pattern: Callable[[ModuleInfo], Iterable[ast.AST]]
    scope: Tuple[str, ...]       # module names; each covers its submodules;
                                 # () covers every scanned module
    allowed: FrozenSet[Tuple[str, Optional[str]]] = frozenset()
    # The finding's message for a match, when not the row's rule.
    message: Optional[Callable[[ModuleInfo, ast.AST], str]] = None


def _each(test: Callable[[ast.AST], bool]
          ) -> Callable[[ModuleInfo], Iterable[ast.AST]]:
    """The pattern matching every node ``test`` accepts."""
    return lambda module: filter(test, module.nodes)


def _call_of(*methods: str) -> Callable[[ModuleInfo], Iterable[ast.AST]]:
    """Calls of an attribute named in ``methods``, on any receiver."""
    return _each(lambda node: isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) in methods)


def _bitor_operands(node: ast.AST) -> List[Optional[str]]:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _bitor_operands(node.left) + _bitor_operands(node.right)
    return [terminal_name(node)]


_FLAGS = (("internal", {"FLAG_INTERNAL", "internal"}),
          ("reply", {"FLAG_IS_REPLY", "is_reply"}))


def _flags_tested(nodes: Iterable[ast.AST]) -> FrozenSet[str]:
    names = {terminal_name(node) for node in nodes}
    return frozenset(flag for flag, spelled in _FLAGS if names & spelled)


def _debit_tests(module: ModuleInfo) -> Iterable[ast.AST]:
    """The outermost node whose condition — its own, plus the tests of
    the ``if``s and ``while``s around it in its function — tests both
    flags."""
    def visit(node: ast.AST, outer: FrozenSet[str]) -> Iterable[ast.AST]:
        for child in ast.iter_child_nodes(node):
            tested = outer
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                tested = frozenset()
            elif isinstance(child, (ast.If, ast.While, ast.IfExp)):
                tested = outer | _flags_tested(ast.walk(child.test))
            elif isinstance(child, (ast.BoolOp, ast.Return, ast.Assign)):
                tested = outer | _flags_tested(ast.walk(child))
            if len(tested) == len(_FLAGS):
                yield child
            else:
                yield from visit(child, tested)
    if len(_flags_tested(module.nodes)) < len(_FLAGS):
        return ()
    return visit(module.tree, frozenset())


_MUTATORS = ("pop", "popitem", "clear", "add", "discard", "remove",
             "update", "setdefault")


def _attr_store(node: ast.AST, attrs: Tuple[str, ...]) -> bool:
    """An assignment to, deletion from or mutator call on ``x.ATTR``
    or ``x.ATTR[k]``, for an attribute named in ``attrs``."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Call) and terminal_name(node.func) in _MUTATORS:
        targets = [getattr(node.func, "value", None)]
    else:
        return False
    tables = [t.value if isinstance(t, ast.Subscript) else t for t in targets]
    return any(isinstance(t, ast.Attribute) and t.attr in attrs
               for t in tables)


def _naming_message(node: ast.AST) -> Optional[str]:
    """The ``ns_*`` message type of an LCM/ALI-style send
    (``<x>.send(dst, type_name, ...)``), or None."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("call", "call_async", "datagram", "send")):
        return None
    arg = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "type_name"), None)
    type_name = literal_str(arg)
    return type_name if type_name and type_name.startswith("ns_") else None


def _imports_heapq(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "heapq" or alias.name.startswith("heapq.")
                   for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module == "heapq")


# The scheduler's two ways to queue an event -> the position of its
# ``note``: ``schedule(delay, callback, note)``, ``call_soon(callback, note)``.
_NOTE_POSITION = {"schedule": 2, "call_soon": 1}


def _formatted_note(node: ast.AST) -> bool:
    """A ``scheduler.schedule(...)``/``.call_soon(...)`` (the receiver
    is ``scheduler`` or ends in ``.scheduler``) whose note formats a
    string per call: an f-string with a placeholder, ``"..." % x`` or
    ``"...".format(...)``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _NOTE_POSITION
            and terminal_name(node.func.value) == "scheduler"):
        return False
    position = _NOTE_POSITION[node.func.attr]
    note = next((kw.value for kw in node.keywords if kw.arg == "note"),
                node.args[position] if len(node.args) > position else None)
    if isinstance(note, ast.JoinedStr):
        return any(isinstance(part, ast.FormattedValue)
                   for part in note.values)
    if isinstance(note, ast.BinOp) and isinstance(note.op, ast.Mod):
        return isinstance(note.left, (ast.Constant, ast.JoinedStr))
    return (isinstance(note, ast.Call) and isinstance(note.func, ast.Attribute)
            and note.func.attr == "format")


SOLE_SITES: Tuple[SoleSite, ...] = (
    SoleSite("ONE001", "FLAG_PACKED | FLAG_INTERNAL outside "
             "Nucleus.control, the one control-frame builder", "§12",
             _each(lambda node: isinstance(node, ast.BinOp)
                   and {"FLAG_PACKED", "FLAG_INTERNAL"}
                   <= set(_bitor_operands(node))),
             ("repro",), frozenset({("repro.ntcs.nucleus",
                                     "Nucleus.control")})),
    SoleSite("ONE002", "a .flow or .rx_depth read: the LCM keeps no flow "
             "books, it reports disposals to the IP-Layer", "§12",
             _each(lambda node: isinstance(node, ast.Attribute)
                   and node.attr in ("flow", "rx_depth")),
             ("repro.ntcs.lcm",)),
    SoleSite("ONE003", "a condition testing the internal and the reply "
             "flag outside message.flow_debited, the debit rule", "§12",
             _debit_tests, ("repro",),
             frozenset({("repro.ntcs.message", "flow_debited")})),
    SoleSite("ONE004", "a route-table write outside the IP-Layer; call "
             "IpLayer.forget_route", "§3",
             _each(lambda node: _attr_store(node, (
                 "route_cache", "_suspect_gateways", "_prime_index"))),
             ("repro",), frozenset({("repro.ntcs.iplayer", None)})),
    SoleSite("ONE005", "a scheduler event outside the connection timer "
             "(Ipcs._track, Ipcs._arm) and the SYN retry: one timer per "
             "connection, and the netsim owns the one delivery event per "
             "train", "§13",
             _call_of("schedule", "call_soon"),
             ("repro.ipcs", "repro.ntcs.ndlayer", "repro.ntcs.gateway"),
             frozenset({("repro.ipcs.base", "Ipcs._track"),
                        ("repro.ipcs.base", "Ipcs._arm"),
                        ("repro.ipcs.tcp", "SimTcpIpcs._send_open")})),
    SoleSite("ONE006", "a string-keyed counting call; bump a declared "
             "metric with a plain dict update", "§15",
             _call_of("incr", "record_max"), ("repro",)),
    SoleSite("ONE008", "an LVC or IVC state store outside protocol.step, "
             "which moves it only along a declared machine edge", "§3",
             _each(lambda node: _attr_store(node, ("state",))),
             ("repro.ntcs",), frozenset({("repro.ntcs.protocol", "step")})),
    SoleSite("ONE009", "a name-record field store outside NameDatabase "
             "and the record's constructor: a record never changes once "
             "built, but for the tombstone the database sets", "§9",
             _each(lambda node: _attr_store(node, (
                 "alive", "attrs", "addresses", "mtype_name",
                 "registered_at"))),
             ("repro.naming",),
             frozenset({("repro.naming.database", None),
                        ("repro.naming.protocol", "NameRecord.__init__")})),
    SoleSite("LAY003", "a Name Service Protocol message sent outside "
             "the NSP-Layer, the single naming service access point "
             "(Sec. 2.4)", "§14",
             _each(lambda node: _naming_message(node) is not None),
             ("repro",), frozenset({("repro.naming", None)}),
             lambda module, node: (
                 f"{module.name} sends naming message "
                 f"{_naming_message(node)!r} itself; go through the "
                 f"NSP-Layer (nucleus.require_nsp()), the single naming "
                 f"service access point")),
    SoleSite("DET006", "a heapq import outside the shared event queue: "
             "a private heap is a second, unaccounted event queue",
             "§11", _each(_imports_heapq), (),
             frozenset({("repro.netsim.scheduler", None)}),
             lambda module, node: (
                 ("direct heapq import" if isinstance(node, ast.Import)
                  else "imports from heapq")
                 + "; event ordering lives in repro.netsim.scheduler — "
                   "file timers through the shared EventQueue, not a "
                   "private heap")),
    SoleSite("PERF002", "a scheduler note formatted per call in the "
             "substrate, which schedules once per datagram or "
             "retransmission timer; a note is read only from a debugger, "
             "so pass a constant", "§13",
             _each(_formatted_note),
             ("repro.netsim.network", "repro.ipcs"),
             message=lambda module, node: (
                 f"scheduler.{node.func.attr}() note is formatted per "
                 f"call on the per-datagram path; pass a constant string")),
)


def row_sites(project: Project, row: SoleSite
              ) -> List[Tuple[ModuleInfo, Optional[str], ast.AST]]:
    """Every match of ``row`` in its scope, allowed or not: (module,
    function, node), the first node of each line."""
    sites = []
    for module in project.modules:
        if not row.scope or in_package(module.name, *row.scope):
            first: Dict[int, ast.AST] = {}
            for node in row.pattern(module):
                first.setdefault(node.lineno, node)
            sites += [(module, module.functions.get(id(node)), node)
                      for node in first.values()]
    return sites


def _declarations(module: ModuleInfo) -> Dict[str, bool]:
    """Module-level name bound by ``declare`` (or a module-level
    ``partial`` of it) -> whether it is a family (the calls sit in a
    comprehension) rather than one metric."""
    declarers = {"declare"}
    found: Dict[str, bool] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name, value = node.targets[0].id, node.value
            calls = [sub for sub in ast.walk(value) if isinstance(
                sub, ast.Call) and terminal_name(sub.func) in declarers]
            if (terminal_name(getattr(value, "func", None)) == "partial"
                    and value.args
                    and terminal_name(value.args[0]) in declarers):
                declarers.add(name)
            elif calls:
                found[name] = calls[0] is not value
    return found


def metric_sites(project: Project
                 ) -> Dict[Optional[Declaration],
                           List[Tuple[ModuleInfo, ast.expr]]]:
    """Every declaration in the scan -> the counter-store keys
    (``counters[KEY]`` assigned) naming it, or a member of it for a
    family; None -> the keys naming no declared metric.  Keys resolve by
    name through ``from`` imports; one bound outside the scan is left
    out, so a partial scan stays clean."""
    declared = {module.name: _declarations(module)
                for module in project.modules}
    imported = {module.name: {
        alias.asname or alias.name: (project.resolve_from(module, node),
                                     alias.name)
        for node in module.nodes if isinstance(node, ast.ImportFrom)
        for alias in node.names} for module in project.modules}

    def resolve(module: str, name: str):
        seen = set()
        while module in declared and (module, name) not in seen:
            seen.add((module, name))
            if name in declared[module]:
                return (module, name), declared[module][name]
            module, name = imported[module].get(name, (module, name))
        return "outside" if module not in declared else None

    sites: Dict[Optional[Declaration], List[Tuple[ModuleInfo, ast.expr]]] = {
        (module, name): [] for module, names in declared.items()
        for name in names}
    for module in project.modules:
        for node in module.nodes:
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            for target in (node.targets if isinstance(node, ast.Assign)
                           else [node.target]):
                if not (isinstance(target, ast.Subscript) and terminal_name(
                        target.value) in ("counters", "_counters")):
                    continue
                key = target.slice
                member = isinstance(key, ast.Subscript)
                name = terminal_name(key.value if member else key)
                resolved = resolve(module.name, name) if name else None
                if resolved != "outside":
                    named = resolved and resolved[1] == member
                    sites.setdefault(resolved[0] if named else None,
                                     []).append((module, key))
    return sites


@rule(
    name="sole-site",
    ids=tuple(sorted({row.id for row in SOLE_SITES} | {"ONE007"})),
    description="where PROTOCOL.md says one place decides (§3 route "
                "tables and circuit states, §9 name records, §11 the "
                "event heap, §12 "
                "control flags / flow books / debit rule, §13 scheduler "
                "events and their notes, §14 naming access, §15 "
                "counting), only that "
                "place spells it; every counter store names a declared "
                "metric",
)
def check_sole_sites(project: Project) -> Iterable[Finding]:
    """Emit a finding for every row match outside its allowed sites,
    and ONE007 for every counter key naming no declared metric."""
    findings: List[Finding] = []
    for row in SOLE_SITES:
        for module, function, node in row_sites(project, row):
            if not any(in_package(module.name, where) if what is None
                       else (module.name, function) == (where, what)
                       for where, what in row.allowed):
                findings.append(Finding(
                    rule=row.id, severity=SEVERITY_ERROR,
                    path=str(module.path), line=node.lineno,
                    message=row.message(module, node) if row.message
                    else f"{row.rule} (PROTOCOL.md {row.section}); "
                         f"here in {module.name}, "
                         f"{function or 'module level'}"))
    for module, key in metric_sites(project).get(None, ()):
        if in_package(module.name, "repro"):
            findings.append(Finding(
                rule="ONE007", severity=SEVERITY_ERROR,
                path=str(module.path), line=key.lineno,
                message=f"counter store keyed by {ast.unparse(key)} names "
                        f"no declared metric; key it by a constant from "
                        f"repro.util.counters or a member of a declared "
                        f"family (PROTOCOL.md §15)"))
    return findings
