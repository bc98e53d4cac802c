"""The ntcslint rule engine.

A :class:`Project` is a parsed snapshot of a set of Python files —
every module's AST plus its dotted name, resolved from its path (the
last ``repro`` directory component anchors the package root, so both
``src/repro/...`` and fixture trees like ``tests/fixtures/.../repro/...``
resolve to ``repro.*`` names without being imported).

Rules are small objects registered with :func:`rule`; each inspects the
whole project and yields :class:`Finding` records (file, line, rule id,
severity, message).  The engine applies inline waivers afterwards: a
finding is suppressed when the source line it points at — or any line
of the smallest enclosing statement, so pragmas work on multi-line
calls — carries a ``# ntcslint: allow=RULE_ID`` (or ``allow=all``)
pragma, so intentional exceptions stay visible — and justified — in
the code itself.  Waivers are collected, not discarded: the CLI's
``--list-waivers`` prints each one with its justification text, and
``--max-waivers`` ratchets the total against a committed baseline.
A pragma naming a rule id the engine does not know is itself reported
(WVR001) instead of silently suppressing nothing.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

_PRAGMA_RE = re.compile(r"#\s*ntcslint:\s*allow=([A-Za-z0-9_,\s]+|all)")

# Stripped off the front of a pragma's trailing justification text.
_JUSTIFICATION_LEAD = " \t-—–:;"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str          # e.g. "LAY001"
    severity: str      # SEVERITY_ERROR or SEVERITY_WARNING
    path: str          # file the finding is in
    line: int          # 1-based line number
    message: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready dict form (the --format json record)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        """One-line human-readable form: path:line: RULE [sev] message."""
        return f"{self.path}:{self.line}: {self.rule} [{self.severity}] {self.message}"


@dataclass(frozen=True)
class Waiver:
    """One finding suppressed by an inline ``ntcslint: allow`` pragma."""

    finding: Finding       # the finding the pragma suppressed
    pragma_line: int       # line carrying the pragma (may differ from
                           # finding.line on multi-line statements)
    justification: str     # comment text following the allow list

    def render(self) -> str:
        """One-line form: path:line: RULE waived — justification."""
        why = self.justification or "(no justification)"
        return (f"{self.finding.path}:{self.finding.line}: "
                f"{self.finding.rule} waived — {why}")


@dataclass(frozen=True)
class _Pragma:
    """One parsed ``ntcslint: allow`` pragma occurrence."""

    line: int
    allowed: frozenset       # rule ids, possibly containing "all"
    justification: str


@dataclass
class ModuleInfo:
    """One parsed source module."""

    name: str                  # dotted name, e.g. "repro.ntcs.lcm"
    path: Path
    tree: ast.Module
    source_lines: List[str]

    def line(self, lineno: int) -> str:
        """The 1-based source line, or '' when out of range."""
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1]
        return ""

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree (``ast.walk`` order), walked once."""
        return list(ast.walk(self.tree))

    @cached_property
    def functions(self) -> Dict[int, str]:
        """id(node) -> qualified name (``Nucleus.control``) of the
        innermost function around it (a ``def`` is its own), once."""
        functions: Dict[int, str] = {}

        def walk(node: ast.AST, prefix: str, owner: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                inner, scope = owner, prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    scope = f"{prefix}{child.name}."
                    if not isinstance(child, ast.ClassDef):
                        inner = prefix + child.name
                if inner:
                    functions[id(child)] = inner
                walk(child, scope, inner)

        walk(self.tree, "", None)
        return functions


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved to a dotted module name."""

    target: str        # dotted module imported ("repro.ntcs.lcm", "time", ...)
    line: int
    symbol: Optional[str] = None   # for `from X import y`: the name y


def iter_python_files(paths: Iterable[Path],
                      exclude: Sequence[str] = ()) -> List[Path]:
    """Every ``.py`` file a scan of ``paths`` would parse, in stable
    order, minus files whose posix path contains an ``exclude`` token.
    Shared between :meth:`Project.load` and the result cache's content
    manifest so the two can never disagree about the file set."""
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    if exclude:
        files = [f for f in files
                 if not any(tok in f.as_posix() for tok in exclude)]
    return files


def in_package(module: str, *packages: str) -> bool:
    """True when dotted ``module`` is one of ``packages`` or inside one."""
    return any(module == package or module.startswith(package + ".")
               for package in packages)


def terminal_name(node: Optional[ast.AST]) -> Optional[str]:
    """The final identifier of a Name/Attribute chain (``m.IVC_CLOSE``
    -> ``IVC_CLOSE``), or None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def literal_str(node: Optional[ast.AST]) -> Optional[str]:
    """The value of a string constant, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def module_name_for(path: Path) -> str:
    """Dotted module name for a file, anchored at its last ``repro``
    path component; stand-alone files fall back to their stem."""
    parts = list(path.parts)
    stem_parts = parts[:-1] + [path.stem]
    if path.name == "__init__.py":
        stem_parts = parts[:-1]
    if "repro" in stem_parts:
        anchor = len(stem_parts) - 1 - stem_parts[::-1].index("repro")
        return ".".join(stem_parts[anchor:])
    return path.stem


class Project:
    """A parsed set of modules plus import-resolution helpers."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: List[ModuleInfo] = sorted(modules, key=lambda m: str(m.path))
        self.by_name: Dict[str, ModuleInfo] = {m.name: m for m in self.modules}
        self._pragma_cache: Dict[str, List[_Pragma]] = {}
        self._span_cache: Dict[str, List[Tuple[int, int]]] = {}

    @classmethod
    def load(cls, paths: Iterable[Path],
             exclude: Sequence[str] = ()) -> "Project":
        """Parse every ``.py`` file in the given files/directories.
        ``exclude`` entries are path substrings (posix form); matching
        files are skipped — how CI scans ``tests/`` while leaving the
        deliberately-violating fixture trees alone."""
        files = iter_python_files(paths, exclude=exclude)
        modules = []
        for fpath in files:
            source = fpath.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=str(fpath))
            except SyntaxError as exc:
                raise ValueError(f"{fpath}: cannot parse: {exc}") from exc
            modules.append(ModuleInfo(
                name=module_name_for(fpath),
                path=fpath,
                tree=tree,
                source_lines=source.splitlines(),
            ))
        return cls(modules)

    # -- import extraction --------------------------------------------------

    def imports_of(self, module: ModuleInfo) -> Iterator[ImportEdge]:
        """Every import in the module, module- and function-scope alike,
        resolved against the project's module set: ``from pkg import sub``
        resolves to ``pkg.sub`` when that is a known module (it is a
        submodule import, not a symbol import)."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield ImportEdge(target=alias.name, line=node.lineno)
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_from(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    candidate = f"{base}.{alias.name}"
                    if candidate in self.by_name:
                        yield ImportEdge(target=candidate, line=node.lineno)
                    else:
                        yield ImportEdge(target=base, line=node.lineno,
                                         symbol=alias.name)

    def resolve_from(self, module: ModuleInfo,
                     node: ast.ImportFrom) -> Optional[str]:
        """The dotted module a ``from ... import`` in ``module`` reads
        from, relative levels resolved."""
        if node.level == 0:
            return node.module
        # Relative import: start at the module's package, climb one
        # package per level beyond the first.
        parts = module.name.split(".")
        if module.path.name != "__init__.py":
            parts = parts[:-1]
        parts = parts[:len(parts) - (node.level - 1)] if node.level > 1 else parts
        if node.module:
            parts = parts + node.module.split(".")
        return ".".join(parts) if parts else None

    # -- waivers -------------------------------------------------------------

    def _pragmas(self, module: ModuleInfo) -> List[_Pragma]:
        """Every ``ntcslint: allow`` pragma in the module, parsed once."""
        cached = self._pragma_cache.get(module.name)
        if cached is not None:
            return cached
        pragmas: List[_Pragma] = []
        # Scan actual COMMENT tokens, not raw lines: a pragma quoted
        # inside a docstring (e.g. this engine's own documentation)
        # must not register as a live waiver.
        source = "\n".join(module.source_lines) + "\n"
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            tokens = []
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if not match:
                continue
            allowed = frozenset(
                tok.strip() for tok in match.group(1).split(",")
                if tok.strip()
            )
            justification = (token.string[match.end():]
                             .strip(_JUSTIFICATION_LEAD).strip())
            pragmas.append(_Pragma(line=token.start[0], allowed=allowed,
                                   justification=justification))
        self._pragma_cache[module.name] = pragmas
        return pragmas

    def _stmt_span(self, module: ModuleInfo, line: int) -> Tuple[int, int]:
        """The line range of the smallest statement containing ``line``
        (so a pragma on any physical line of a multi-line statement
        covers findings anywhere in it)."""
        spans = self._span_cache.get(module.name)
        if spans is None:
            spans = [
                (node.lineno, getattr(node, "end_lineno", node.lineno))
                for node in ast.walk(module.tree)
                if isinstance(node, ast.stmt)
            ]
            self._span_cache[module.name] = spans
        best = (line, line)
        best_size = None
        for lo, hi in spans:
            if lo <= line <= hi:
                size = hi - lo
                if best_size is None or size < best_size:
                    best, best_size = (lo, hi), size
        return best

    def waiver_for(self, finding: Finding) -> Optional[Waiver]:
        """The :class:`Waiver` suppressing this finding, or None.  A
        pragma matches when it names the finding's rule (or ``all``)
        and sits on the finding's line or any line of the smallest
        statement enclosing it."""
        module = next((m for m in self.modules if str(m.path) == finding.path), None)
        if module is None:
            return None
        pragmas = self._pragmas(module)
        if not pragmas:
            return None
        lo, hi = self._stmt_span(module, finding.line)
        for pragma in pragmas:
            if not (pragma.line == finding.line or lo <= pragma.line <= hi):
                continue
            if "all" in pragma.allowed or finding.rule in pragma.allowed:
                return Waiver(finding=finding, pragma_line=pragma.line,
                              justification=pragma.justification)
        return None

    def unknown_pragma_findings(self, known_ids: Iterable[str]) -> List[Finding]:
        """WVR001 warnings for pragma tokens naming no known rule id —
        a typo'd waiver must not silently suppress nothing."""
        known = set(known_ids) | {"all"}
        findings: List[Finding] = []
        for module in self.modules:
            for pragma in self._pragmas(module):
                for token in sorted(pragma.allowed - known):
                    findings.append(Finding(
                        rule="WVR001", severity=SEVERITY_WARNING,
                        path=str(module.path), line=pragma.line,
                        message=(f"waiver pragma names unknown rule id "
                                 f"{token!r}; it suppresses nothing "
                                 f"(see --list-rules)"),
                    ))
        return findings


# ---------------------------------------------------------------------------
# Rule registry
# ---------------------------------------------------------------------------

@dataclass
class Rule:
    """One registered rule family."""

    name: str                       # e.g. "layering"
    ids: Sequence[str]              # rule ids it can emit
    description: str
    check: Callable[[Project], Iterable[Finding]] = field(repr=False, default=None)


_RULES: List[Rule] = []


def rule(name: str, ids: Sequence[str], description: str):
    """Decorator registering a ``check(project) -> Iterable[Finding]``."""
    def wrap(fn: Callable[[Project], Iterable[Finding]]):
        _RULES.append(Rule(name=name, ids=tuple(ids),
                           description=description, check=fn))
        return fn
    return wrap


def all_rules() -> List[Rule]:
    """Every registered rule family (importing the rules package
    registers the built-ins)."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)
    return list(_RULES)


def run_rules_with_waivers(
    project: Project,
    rule_filter: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], List[Waiver]]:
    """Run (a filtered subset of) the rule set; returns the surviving
    findings sorted by location plus every waiver that suppressed one.
    ``rule_filter`` entries match rule ids by prefix ("LAY" selects
    LAY001, LAY002, ...) or family name.  With no filter, pragmas that
    name unknown rule ids are reported as WVR001 warnings."""
    findings: List[Finding] = []
    for rule_obj in all_rules():
        if rule_filter and not _selected(rule_obj, rule_filter):
            continue
        findings.extend(rule_obj.check(project))
    if rule_filter:
        findings = [f for f in findings
                    if any(f.rule.startswith(tok.upper()) for tok in rule_filter)
                    or _family_selected(f, rule_filter)]
    else:
        known_ids = [rid for rule_obj in all_rules() for rid in rule_obj.ids]
        findings.extend(project.unknown_pragma_findings(known_ids))
    kept: List[Finding] = []
    waivers: List[Waiver] = []
    for finding in findings:
        waiver = project.waiver_for(finding)
        if waiver is None:
            kept.append(finding)
        else:
            waivers.append(waiver)
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    waivers.sort(key=lambda w: (w.finding.path, w.finding.line, w.finding.rule))
    return kept, waivers


def run_rules(project: Project,
              rule_filter: Optional[Sequence[str]] = None) -> List[Finding]:
    """Run the rule set; returns surviving findings sorted by location
    (:func:`run_rules_with_waivers` without the waiver list)."""
    findings, _ = run_rules_with_waivers(project, rule_filter=rule_filter)
    return findings


def _selected(rule_obj: Rule, tokens: Sequence[str]) -> bool:
    for tok in tokens:
        if rule_obj.name == tok.lower():
            return True
        if any(rid.startswith(tok.upper()) for rid in rule_obj.ids):
            return True
    return False


def _family_selected(finding: Finding, tokens: Sequence[str]) -> bool:
    for tok in tokens:
        for rule_obj in _RULES:
            if rule_obj.name == tok.lower() and finding.rule in rule_obj.ids:
                return True
    return False


def analyze(paths: Iterable[Path],
            rule_filter: Optional[Sequence[str]] = None,
            exclude: Sequence[str] = ()) -> List[Finding]:
    """Parse the given paths and run the rule set over them."""
    return run_rules(Project.load(paths, exclude=exclude),
                     rule_filter=rule_filter)
