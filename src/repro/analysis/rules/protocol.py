"""Protocol rules: statically audit every ``StructDef(...)`` call.

The paper reserves packed-mode control type ids by subsystem
(Sec. 5.2): 1–9 for Nucleus control bodies, 10–39 for the naming
service, 40–63 for the DRTS services, and applications start at
``ConversionRegistry.FIRST_APPLICATION_TYPE_ID``.  A running registry
enforces uniqueness at registration time; these rules enforce the same
contract *at rest*, across every module in the tree at once, so two
modules that are never loaded together still cannot collide.

PRO001 (error) type id outside the range reserved for the defining
               module's subsystem.
PRO002 (error) the same type id defined by two StructDefs anywhere in
               the analyzed tree.
PRO003 (error) invalid field type (unknown scalar, malformed/zero-size
               ``char[N]``, or a ``bytes`` field before last position).
PRO004 (error) duplicate field names within one StructDef.

Type ids written as module-level integer constants (``T_FOO = 12``)
are resolved by a single constant-propagation pass; dynamically
computed ids are outside static reach and are skipped.

Scope: the range rule (PRO001) and the *cross-module* half of the
duplicate rule (PRO002) only bind modules resolved under the ``repro``
package — the tree whose reserved ranges Sec. 5.2 is about.  Stand-
alone files (tests, benchmarks) define throwaway ids for registries
that never coexist; they still get the intra-module duplicate check
and the field-shape rules (PRO003/PRO004), which are universal.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

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
from repro.conversion.registry import ConversionRegistry
from repro.conversion.structdef import _CHAR_RE, _SCALAR_CODES

# (module-name prefix, inclusive id range) — first match wins.
RESERVED_RANGES: Tuple[Tuple[str, Tuple[int, int]], ...] = (
    ("repro.ntcs", (1, 9)),
    ("repro.naming", (10, 39)),
    ("repro.drts", (40, 63)),
)
APPLICATION_RANGE = (ConversionRegistry.FIRST_APPLICATION_TYPE_ID, 0xFFFFFFFF)


@dataclass
class _StructUse:
    module: ModuleInfo
    line: int
    name: Optional[str]
    type_id: Optional[int]


def _reserved_range(module_name: str) -> Tuple[int, int]:
    for prefix, id_range in RESERVED_RANGES:
        if in_package(module_name, prefix):
            return id_range
    return APPLICATION_RANGE


def _int_constants(tree: ast.Module) -> Dict[str, int]:
    """Module-level ``NAME = <int>`` assignments."""
    consts: Dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, int) \
                and not isinstance(node.value.value, bool):
            consts[node.targets[0].id] = node.value.value
    return consts


def _is_structdef_call(node: ast.Call) -> bool:
    return terminal_name(node.func) == "StructDef"


def _resolve_id(node: Optional[ast.expr],
                consts: Dict[str, int]) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    return None


def _call_arg(node: ast.Call, index: int, keyword: str) -> Optional[ast.expr]:
    if len(node.args) > index:
        return node.args[index]
    for kw in node.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


@rule(
    name="protocol",
    ids=("PRO001", "PRO002", "PRO003", "PRO004"),
    description="StructDef type ids stay in reserved ranges, unique, well-formed",
)
def check_protocol(project: Project) -> Iterable[Finding]:
    """Emit PRO001–PRO004 findings for every StructDef in the tree."""
    findings: List[Finding] = []
    uses: List[_StructUse] = []
    for module in project.modules:
        consts = _int_constants(module.tree)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and _is_structdef_call(node)):
                continue
            sname = literal_str(_call_arg(node, 0, "name"))
            type_id = _resolve_id(_call_arg(node, 1, "type_id"), consts)
            uses.append(_StructUse(module=module, line=node.lineno,
                                   name=sname, type_id=type_id))
            if type_id is not None and in_package(module.name, "repro"):
                lo, hi = _reserved_range(module.name)
                if not (lo <= type_id <= hi):
                    findings.append(Finding(
                        rule="PRO001", severity=SEVERITY_ERROR,
                        path=str(module.path), line=node.lineno,
                        message=(f"StructDef {sname or '?'!r} type id {type_id} "
                                 f"outside the range {lo}..{hi} reserved for "
                                 f"{module.name}"),
                    ))
            findings.extend(_check_fields(module, node, sname))
    findings.extend(_check_duplicates(uses))
    return findings


def _check_duplicates(uses: List[_StructUse]) -> Iterable[Finding]:
    # The repro tree is one scope: cross-module collisions bind there.
    # Every stand-alone file is a scope of its own — it may reuse ids
    # across never-coexisting registries, but not within itself.
    firsts: Dict[Tuple[Optional[str], int], _StructUse] = {}
    for use in sorted(uses, key=lambda u: (str(u.module.path), u.line)):
        if use.type_id is None:
            continue
        scope = None if in_package(use.module.name, "repro") \
            else str(use.module.path)
        first = firsts.setdefault((scope, use.type_id), use)
        if first is use:
            continue
        yield Finding(
            rule="PRO002", severity=SEVERITY_ERROR,
            path=str(use.module.path), line=use.line,
            message=(f"type id {use.type_id} ({use.name or '?'!r}) already "
                     f"defined as {first.name or '?'!r} at "
                     f"{first.module.path}:{first.line}"),
        )


def _check_fields(module: ModuleInfo, node: ast.Call,
                  sname: Optional[str]) -> Iterable[Finding]:
    fields_arg = _call_arg(node, 2, "fields")
    if not isinstance(fields_arg, (ast.List, ast.Tuple)):
        return
    seen_names: Dict[str, int] = {}
    field_calls = [el for el in fields_arg.elts if isinstance(el, ast.Call)]
    for index, el in enumerate(field_calls):
        fname = literal_str(_call_arg(el, 0, "name"))
        ftype = literal_str(_call_arg(el, 1, "ftype"))
        where = f"{sname or '?'}.{fname or '?'}"
        if ftype is not None and not _valid_ftype(ftype):
            yield Finding(
                rule="PRO003", severity=SEVERITY_ERROR,
                path=str(module.path), line=el.lineno,
                message=f"{where}: invalid field type {ftype!r}",
            )
        if ftype == "bytes" and index != len(field_calls) - 1:
            yield Finding(
                rule="PRO003", severity=SEVERITY_ERROR,
                path=str(module.path), line=el.lineno,
                message=f"{where}: bytes field must be in last position",
            )
        if fname is not None:
            if fname in seen_names:
                yield Finding(
                    rule="PRO004", severity=SEVERITY_ERROR,
                    path=str(module.path), line=el.lineno,
                    message=(f"{where}: duplicate field name "
                             f"(first at line {seen_names[fname]})"),
                )
            else:
                seen_names[fname] = el.lineno


def _valid_ftype(ftype: str) -> bool:
    if ftype in _SCALAR_CODES or ftype == "bytes":
        return True
    match = _CHAR_RE.match(ftype)
    return bool(match) and int(match.group(1)) > 0
