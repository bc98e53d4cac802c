"""Determinism rules: the simulation runs on virtual time only.

Every reproduction result in this repository depends on the simulation
being a pure function of its inputs: time advances only through the
virtual clock (``machine/clock.py`` reading ``netsim/scheduler.py``),
and randomness enters only through explicitly seeded generators.  Real
wall-clock reads, real sleeps, and the process-global RNG would make
runs unrepeatable, so they are banned everywhere except the
``repro.realnet`` substrate, whose whole point is driving real sockets
in real time.

DET001 (error) wall-clock read: ``time.time``/``monotonic``/
               ``perf_counter`` (and ``_ns`` variants), or importing
               those names from ``time``.
DET002 (error) real sleep: ``time.sleep`` (the sim blocks via scheduler
               predicates, never the OS).
DET003 (error) ambient randomness: module-level ``random.*`` functions
               (the shared global RNG) or an *unseeded*
               ``random.Random()`` / any ``random.SystemRandom``.
               Seeded ``random.Random(seed)`` is the sanctioned idiom.
DET004 (error) argless ``datetime.now()`` / ``utcnow()`` / ``today()``.
DET005 (error) chaos/repair modules (:data:`_REPAIR_MODULES`) must not
               construct ``random.Random`` at all — even seeded.  Their
               streams must come from ``repro.util.seeds.derive_rng``,
               which derives per-module seeds with crc32 (stable across
               processes, unlike string ``hash()``), so a chaos schedule
               replays bit-identically from its seed alone.
DET006 (a ``heapq`` import outside ``repro.netsim.scheduler``, the
shared event queue's module) is a row of the sole-site table
(:mod:`repro.analysis.rules.sole_site`); unlike DET001–DET004 it
exempts no ``repro.realnet`` module, and it scans tests and benchmarks
too.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import (
    SEVERITY_ERROR,
    Finding,
    ModuleInfo,
    Project,
    in_package,
    rule,
)

EXEMPT_PREFIXES: Tuple[str, ...] = ("repro.realnet",)

_CLOCK_READS = {"time", "monotonic", "perf_counter",
                "time_ns", "monotonic_ns", "perf_counter_ns"}
_DATETIME_ARGLESS = {"now", "utcnow", "today"}

# Modules whose randomness must replay from a chaos seed alone: the
# fault scheduler and the circuit-repair path (backoff jitter).  These
# may only draw streams from repro.util.seeds.derive_rng (DET005).
_REPAIR_MODULES: Tuple[str, ...] = (
    "repro.netsim.chaos",
    "repro.ntcs.lcm",
    "repro.ntcs.iplayer",
    "repro.ntcs.gateway",
)


@rule(
    name="determinism",
    ids=("DET001", "DET002", "DET003", "DET004", "DET005"),
    description="sim code uses virtual time and seeded RNGs only",
)
def check_determinism(project: Project) -> Iterable[Finding]:
    """Emit DET001–DET005 findings for wall-clock/RNG use."""
    findings: List[Finding] = []
    for module in project.modules:
        if in_package(module.name, *EXEMPT_PREFIXES):
            continue
        aliases = _stdlib_aliases(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                findings.extend(_check_from_import(module, node))
            elif isinstance(node, ast.Call):
                findings.extend(_check_call(module, node, aliases))
    return findings


def _stdlib_aliases(module: ModuleInfo) -> Dict[str, str]:
    """Local names bound to the time/random/datetime modules and to the
    datetime.datetime / datetime.date classes."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("time", "random", "datetime"):
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    aliases[alias.asname or alias.name] = "datetime.class"
    return aliases


def _check_from_import(module: ModuleInfo,
                       node: ast.ImportFrom) -> Iterable[Finding]:
    if node.module == "time":
        for alias in node.names:
            if alias.name in _CLOCK_READS:
                yield _finding("DET001", module, node.lineno,
                               f"imports wall-clock time.{alias.name}; "
                               f"use the virtual clock")
            elif alias.name == "sleep":
                yield _finding("DET002", module, node.lineno,
                               "imports time.sleep; the sim must block on "
                               "scheduler predicates, not the OS")
    elif node.module == "random":
        for alias in node.names:
            if alias.name not in ("Random",):
                yield _finding("DET003", module, node.lineno,
                               f"imports random.{alias.name} (process-global "
                               f"RNG); use a seeded random.Random instead")
            elif module.name in _REPAIR_MODULES:
                yield _finding("DET005", module, node.lineno,
                               "chaos/repair module imports random.Random; "
                               "draw streams from repro.util.seeds.derive_rng "
                               "so runs replay from the chaos seed alone")


def _check_call(module: ModuleInfo, node: ast.Call,
                aliases: Dict[str, str]) -> Iterable[Finding]:
    func = node.func
    if not isinstance(func, ast.Attribute):
        return
    base = _base_module(func.value, aliases)
    if base == "time":
        if func.attr in _CLOCK_READS:
            yield _finding("DET001", module, node.lineno,
                           f"wall-clock read time.{func.attr}(); the sim is "
                           f"driven solely by the virtual clock")
        elif func.attr == "sleep":
            yield _finding("DET002", module, node.lineno,
                           "real time.sleep(); block on scheduler "
                           "predicates instead")
    elif base == "random":
        if func.attr == "SystemRandom":
            yield _finding("DET003", module, node.lineno,
                           "random.SystemRandom is inherently nondeterministic")
        elif func.attr == "Random":
            if module.name in _REPAIR_MODULES:
                yield _finding("DET005", module, node.lineno,
                               "chaos/repair module constructs random.Random "
                               "directly (even seeded); use "
                               "repro.util.seeds.derive_rng so runs replay "
                               "from the chaos seed alone")
            elif not node.args and not node.keywords:
                yield _finding("DET003", module, node.lineno,
                               "unseeded random.Random(); pass an explicit seed")
        else:
            yield _finding("DET003", module, node.lineno,
                           f"random.{func.attr}() uses the process-global RNG; "
                           f"use a seeded random.Random instance")
    elif base in ("datetime", "datetime.class"):
        target = func.value
        # datetime.datetime.now() / dt_alias.now() / date.today()
        is_class_attr = (base == "datetime.class"
                         or (isinstance(target, ast.Attribute)
                             and target.attr in ("datetime", "date")))
        if is_class_attr and func.attr in _DATETIME_ARGLESS \
                and not node.args and not node.keywords:
            yield _finding("DET004", module, node.lineno,
                           f"argless datetime {func.attr}() reads the wall "
                           f"clock; pass an explicit time source")


def _base_module(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        # e.g. datetime.datetime.now — base name must be the module.
        return aliases.get(node.value.id)
    return None


def _finding(rule_id: str, module: ModuleInfo, line: int, msg: str) -> Finding:
    return Finding(rule=rule_id, severity=SEVERITY_ERROR,
                   path=str(module.path), line=line, message=msg)
