"""Extract the protocol model from the parsed project.

The extractor never imports the code under analysis; everything is
read off the ASTs the ntcslint engine already holds:

* **message table** — every ``StructDef("name", T_ID, ...)`` in a
  module under the ``repro`` package, type ids resolved through the
  same constant-propagation pass the protocol rules use (module-local
  ``T_FOO = 12`` constants first, then a project-wide constant table
  for ids imported from the protocol modules);
* **send sites** — ``x.call/call_async(dst, "name", ...)``,
  ``x.send/datagram/reply(.., "name", ...)``, the NSP/replication
  ``self._call("name", ...)`` / ``self._resolve("name", ...)``
  wrappers, and ``control(kind, dst, "name", ...)`` control frames;
* **handler sites** — ``unpack_internal(T_CONST, ...)``,
  ``request.type_name == "name"`` comparisons (and ``in`` tuples),
  dispatch-dict literals (``self._handlers = {"name": fn}``, subscript
  assignment, and inline ``{...}.get(request.type_name)``),
  ``msg.kind == m.IVC_CLOSE`` kind dispatch joined through the kind
  table, and explicit ``@handles("name")`` annotations
  (:func:`repro.util.dispatch.handles`) for the spots AST pattern
  matching cannot see;
* **reply consumption** — ``self._expect(reply, "name")`` sites;
* **steps** — ``step(obj, "machine", event)`` calls under ``repro``,
  with every string literal of the event argument;
* **declared machines** — ``PROTOCOL_MACHINE`` / ``PROTOCOL_MACHINES``
  literals with the integer constants their ``bounded`` edges name,
  and the ``KIND_NAMES`` table in the message module.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysis.engine import (
    ModuleInfo, Project, in_package, literal_str, terminal_name,
)
from repro.analysis.model.ir import (
    Edge,
    KindTable,
    Machine,
    MessageSpec,
    ProtocolModel,
    SEND_DATAGRAM,
    SEND_INTERNAL,
    SEND_PLAIN,
    SEND_REPLY,
    SEND_REQUEST,
    Site,
)
from repro.analysis.rules.protocol import (
    _call_arg,
    _int_constants,
    _is_structdef_call,
    _resolve_id,
)

# method name -> (string-argument index, send classification)
_SEND_METHODS: Dict[str, Tuple[int, str]] = {
    "call": (1, SEND_REQUEST),
    "call_async": (1, SEND_REQUEST),
    "send": (1, SEND_PLAIN),
    "datagram": (1, SEND_DATAGRAM),
    "reply": (1, SEND_REPLY),
    "_call": (0, SEND_REQUEST),
    "_resolve": (0, SEND_REQUEST),
    "control": (2, SEND_INTERNAL),
}


def _is_attr(node: ast.expr, attr: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == attr


def extract(project: Project) -> ProtocolModel:
    """Build the :class:`ProtocolModel` for a parsed project."""
    model = ProtocolModel()
    global_consts = _global_constants(project)

    # Phase 1: the message table (repro-tree StructDefs only).
    for module in project.modules:
        if not in_package(module.name, "repro"):
            continue
        consts = dict(global_consts)
        consts.update(_int_constants(module.tree))
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and _is_structdef_call(node)):
                continue
            name = literal_str(_call_arg(node, 0, "name"))
            if name is None:
                continue
            type_id = _resolve_id(_call_arg(node, 1, "type_id"), consts)
            if name not in model.messages:
                model.messages[name] = MessageSpec(
                    name=name, type_id=type_id, module=module.name,
                    path=str(module.path), line=node.lineno,
                )

    by_id = model.by_type_id()
    kind_to_message = {
        name.upper(): name for name in model.messages
    }

    # Phase 2: use sites, declared machines, the kind table.
    for module in project.modules:
        consts = dict(global_consts)
        consts.update(_int_constants(module.tree))
        _collect_sites(model, module, consts, by_id, kind_to_message)
        _collect_declarations(model, module)
    return model


def _global_constants(project: Project) -> Dict[str, int]:
    """Project-wide ``NAME = <int>`` table for resolving constants
    imported across modules (``from repro.ntcs.protocol import
    T_IVC_OPEN``).  Conflicting names are dropped — a module-local
    constant always takes precedence anyway."""
    table: Dict[str, int] = {}
    conflicted: Set[str] = set()
    for module in project.modules:
        if not in_package(module.name, "repro"):
            continue
        for name, value in _int_constants(module.tree).items():
            if name in table and table[name] != value:
                conflicted.add(name)
            else:
                table[name] = value
    for name in conflicted:
        table.pop(name, None)
    return table


# ---------------------------------------------------------------------------
# Use-site collection
# ---------------------------------------------------------------------------

def _collect_sites(
    model: ProtocolModel,
    module: ModuleInfo,
    consts: Dict[str, int],
    by_id: Dict[int, MessageSpec],
    kind_to_message: Dict[str, str],
) -> None:
    def site(line: int, kind: str) -> Site:
        return Site(module=module.name, path=str(module.path),
                    line=line, kind=kind)

    def add_send(name: str, line: int, kind: str) -> None:
        spec = model.messages.get(name)
        if spec is not None:
            spec.sends.append(site(line, kind))

    def add_handler(name: str, line: int) -> None:
        spec = model.messages.get(name)
        if spec is not None:
            spec.handlers.append(site(line, "handler"))

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            callee = terminal_name(node.func)
            if callee in _SEND_METHODS:
                index, kind = _SEND_METHODS[callee]
                name = literal_str(_call_arg(node, index, "type_name"))
                if name is not None:
                    add_send(name, node.lineno, kind)
            elif callee == "unpack_internal":
                type_id = _resolve_id(_call_arg(node, 0, "type_id"), consts)
                spec = by_id.get(type_id) if type_id is not None else None
                if spec is not None:
                    spec.handlers.append(site(node.lineno, "handler"))
            elif callee == "step" and len(node.args) >= 3 \
                    and in_package(module.name, "repro"):
                machine = literal_str(node.args[1])
                model.steps.extend(
                    (str(module.path), node.lineno, str(machine), event)
                    for event in map(literal_str, ast.walk(node.args[2]))
                    if event is not None)
            elif callee == "_expect":
                name = literal_str(_call_arg(node, 1, "type_name"))
                spec = model.messages.get(name) if name else None
                if spec is not None:
                    spec.expects.append(site(node.lineno, "expect"))
            elif callee == "get" and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Dict) \
                    and node.args and _is_attr(node.args[0], "type_name"):
                # Inline dispatch: {"name": fn, ...}.get(request.type_name)
                for key in node.func.value.keys:
                    name = literal_str(key)
                    if name is not None:
                        add_handler(name, key.lineno)

        elif isinstance(node, ast.Compare):
            _compare_sites(node, add_handler, kind_to_message)

        elif isinstance(node, ast.Assign):
            _assign_sites(node, add_handler)

        elif isinstance(node, ast.FunctionDef):
            _function_sites(node, add_send, add_handler)


def _compare_sites(node: ast.Compare, add_handler, kind_to_message) -> None:
    """``x.type_name == "name"`` / ``x.kind == m.IVC_CLOSE`` (and their
    ``in``-tuple forms) mark the comparing module as a handler."""
    sides = [node.left] + list(node.comparators)
    if any(_is_attr(side, "type_name") for side in sides):
        for side in sides:
            for leaf in _iter_leaves(side):
                name = literal_str(leaf)
                if name is not None:
                    add_handler(name, node.lineno)
    elif any(_is_attr(side, "kind") for side in sides):
        for side in sides:
            for leaf in _iter_leaves(side):
                kind_name = terminal_name(leaf)
                if kind_name and kind_name in kind_to_message:
                    add_handler(kind_to_message[kind_name], node.lineno)


def _iter_leaves(node: ast.expr):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for elt in node.elts:
            yield elt
    else:
        yield node


def _assign_sites(node: ast.Assign, add_handler) -> None:
    """Dispatch-dict literals and subscript installs."""
    for target in node.targets:
        tname = terminal_name(target)
        if tname and "handlers" in tname and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                name = literal_str(key)
                if name is not None:
                    add_handler(name, key.lineno)
        if isinstance(target, ast.Subscript):
            base = terminal_name(target.value)
            sl = target.slice
            if isinstance(sl, ast.Index):  # pragma: no cover (py<3.9)
                sl = sl.value
            name = literal_str(sl)
            if base and "handlers" in base and name is not None:
                add_handler(name, node.lineno)


def _function_sites(node: ast.FunctionDef, add_send, add_handler) -> None:
    """``@handles("name")`` annotations and ``return ("ack", {...})``
    reply tuples in ``_handle_*`` methods (the Name-Server idiom)."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call) \
                and terminal_name(decorator.func) == "handles":
            for arg in decorator.args:
                name = literal_str(arg)
                if name is not None:
                    add_handler(name, decorator.lineno)
    if node.name.startswith("_handle"):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Tuple) \
                    and sub.value.elts:
                name = literal_str(sub.value.elts[0])
                if name is not None:
                    add_send(name, sub.lineno, SEND_REPLY)


# ---------------------------------------------------------------------------
# Declarations: machines, the kind table
# ---------------------------------------------------------------------------

def _collect_declarations(model: ProtocolModel, module: ModuleInfo) -> None:
    consts = _int_constants(module.tree)
    for node in module.tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        target = node.targets[0].id
        if target == "KIND_NAMES":
            # Keys are the kind constants by name (``DATA: "DATA"``) —
            # resolve them through the module's constant table instead
            # of demanding a pure literal.
            if isinstance(node.value, ast.Dict):
                names = {}
                for key, value in zip(node.value.keys, node.value.values):
                    kind = _resolve_id(key, consts)
                    name = literal_str(value)
                    if kind is not None and name is not None:
                        names[kind] = name
                model.kind_tables.append(KindTable(
                    module=module.name, path=str(module.path),
                    line=node.lineno, names=names))
            continue
        if target not in ("PROTOCOL_MACHINE", "PROTOCOL_MACHINES"):
            continue
        try:
            value = ast.literal_eval(node.value)
        except (ValueError, SyntaxError):
            model.errors.append((
                module.name, str(module.path), node.lineno,
                f"{target} is not a pure literal; the extractor cannot "
                f"model-check it",
            ))
            continue
        for decl in (value,) if target == "PROTOCOL_MACHINE" else value:
            _add_machine(model, module, node.lineno, decl, consts)


def _edges(raw_edges) -> List[Edge]:
    return [Edge(
        event=str(raw.get("event", "")),
        next=str(raw.get("next", "")),
        bounded=raw.get("bounded"),
        progress=bool(raw.get("progress", False)),
        queue=raw.get("queue"),
    ) for raw in raw_edges]


def _add_machine(model: ProtocolModel, module: ModuleInfo,
                 lineno: int, decl: object, consts: Dict[str, int]) -> None:
    if not isinstance(decl, dict) or "states" not in decl:
        model.errors.append((
            module.name, str(module.path), lineno,
            "protocol machine declaration must be a dict with a "
            "'states' table",
        ))
        return
    machine = Machine(
        name=str(decl.get("name", "machine")),
        module=module.name, path=str(module.path), line=lineno,
        initial=str(decl.get("initial", "")),
        terminal=tuple(decl.get("terminal", ())),
        states=dict(decl["states"]),
        entry=_edges(decl.get("entry", ())),
    )
    for state, spec in machine.states.items():
        spec = spec or {}
        if spec.get("waits"):
            machine.waits.add(state)
        machine.edges[state] = _edges(spec.get("edges", ()))
    machine.bounds = {edge.bounded: consts[edge.bounded]
                      for edge in machine.all_edges()
                      if edge.bounded in consts}
    model.machines.append(machine)

