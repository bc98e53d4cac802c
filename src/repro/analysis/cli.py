"""ntcslint command line: ``python -m repro.analysis`` / ``ntcslint``.

Usage::

    ntcslint [PATH ...] [--format text|json|sarif] [--rule TOKEN ...]
             [--exclude TOKEN ...] [--max-waivers N] [--list-waivers]
             [--cache FILE] [--list-rules]
    ntcslint verify [PATH ...] [--trace FILE ...]
             [--format text|json|sarif] [--exclude TOKEN ...]

The flat form runs every rule family (the model stage included).  The
``verify`` subcommand runs *only* the model stage — protocol
extraction plus the MDL checks — and optionally replays netsim JSONL
wire traces through the declared ``lvc`` and ``ivc-endpoint`` machines
(TRC001–TRC003), printing how many NTCS frames it checked in each
trace and then every ``send``/``recv`` edge of those machines that no
frame of any trace took (on stderr when the findings go out as json
or sarif; untaken edges do not change the exit status).

With no paths, the installed ``repro`` package tree is scanned.  Exit
status is 0 when no findings survive (waivers applied), 1 when any do
— or when the waiver count exceeds ``--max-waivers`` — and 2 on usage
errors, so the command drops straight into CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import cache as result_cache
from repro.analysis.engine import (
    Finding,
    Project,
    Waiver,
    all_rules,
    run_rules_with_waivers,
)
from repro.analysis.sarif import render_sarif

FORMATS = ("text", "json", "sarif")


def _default_target() -> Path:
    # The repro package directory itself (…/src/repro).
    return Path(__file__).resolve().parents[1]


def build_parser() -> argparse.ArgumentParser:
    """The ntcslint argument parser (shared by tests and the CLI)."""
    parser = argparse.ArgumentParser(
        prog="ntcslint",
        description="Static architecture checks for the NTCS reproduction: "
                    "layering (Fig. 2-1), protocol type-id reservations "
                    "(Sec. 5.2), determinism, exception hygiene, sole "
                    "sites (PROTOCOL.md), and protocol model checking "
                    "(see also: ntcslint verify).",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to scan (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text",
        help="findings output format (default: text)",
    )
    families = ", ".join(rule_obj.name for rule_obj in all_rules())
    parser.add_argument(
        "--rule", action="append", default=None, metavar="TOKEN",
        help=f"only run/report rules matching TOKEN — a family name "
             f"({families}) or a rule-id prefix (LAY, DET002, ...); "
             f"repeatable",
    )
    parser.add_argument(
        "--exclude", action="append", default=None, metavar="TOKEN",
        help="skip files whose path contains TOKEN (posix form); "
             "repeatable — how CI scans tests/ without the "
             "intentionally-violating fixture trees",
    )
    parser.add_argument(
        "--max-waivers", type=int, default=None, metavar="N",
        help="fail (exit 1) when more than N findings are suppressed by "
             "ntcslint: allow pragmas — the committed-baseline ratchet",
    )
    parser.add_argument(
        "--list-waivers", action="store_true",
        help="print each active waiver with its justification, then exit "
             "(0 unless --max-waivers is also given and exceeded)",
    )
    parser.add_argument(
        "--cache", type=Path, default=None, metavar="FILE",
        help="result cache keyed on per-file content hashes; a hit "
             "skips parsing entirely",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list rule families and ids, then exit",
    )
    return parser


def build_verify_parser() -> argparse.ArgumentParser:
    """Parser for the ``verify`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="ntcslint verify",
        description="Protocol model checking: extract the message/machine "
                    "model from the tree, run the MDL rules, and "
                    "optionally replay netsim wire traces through the "
                    "declared wire machines.",
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to extract from (default: the repro "
             "package)",
    )
    parser.add_argument(
        "--trace", action="append", default=None, metavar="FILE",
        help="netsim JSONL wire trace to conformance-check (repeatable)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default="text",
        help="findings output format (default: text)",
    )
    parser.add_argument(
        "--exclude", action="append", default=None, metavar="TOKEN",
        help="skip files whose path contains TOKEN; repeatable",
    )
    return parser


def _print_rules() -> None:
    for rule_obj in all_rules():
        print(f"{rule_obj.name}: {', '.join(rule_obj.ids)}")
        print(f"    {rule_obj.description}")


def _emit(findings: List[Finding], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
        return
    if fmt == "sarif":
        print(render_sarif(findings))
        return
    for finding in findings:
        print(finding.render())
    if findings:
        errors = sum(1 for f in findings if f.severity == "error")
        warnings = len(findings) - errors
        print(f"ntcslint: {errors} error(s), {warnings} warning(s)")
    else:
        print("ntcslint: clean")


def _check_paths(paths: Sequence[Path]) -> Optional[int]:
    for path in paths:
        if not path.exists():
            print(f"ntcslint: no such path: {path}", file=sys.stderr)
            return 2
    return None


def _run_with_cache(paths: Sequence[Path],
                    rule_filter: Optional[Sequence[str]],
                    exclude: Sequence[str],
                    cache_path: Optional[Path]):
    if cache_path is not None:
        key = result_cache.cache_key(paths, rule_filter, exclude)
        hit = result_cache.load(cache_path, key)
        if hit is not None:
            return hit
    project = Project.load(paths, exclude=exclude)
    findings, waivers = run_rules_with_waivers(project,
                                               rule_filter=rule_filter)
    if cache_path is not None:
        result_cache.store(cache_path, key, findings, waivers)
    return findings, waivers


def _waiver_budget_exceeded(waivers: List[Waiver],
                            max_waivers: Optional[int]) -> bool:
    if max_waivers is None or len(waivers) <= max_waivers:
        return False
    print(f"ntcslint: {len(waivers)} waiver(s) active, budget is "
          f"{max_waivers} — remove a pragma or justify raising the "
          f"committed baseline", file=sys.stderr)
    for waiver in waivers:
        print(f"  {waiver.render()}", file=sys.stderr)
    return True


def main_verify(argv: Sequence[str]) -> int:
    """The ``verify`` subcommand: model checks + trace conformance."""
    args = build_verify_parser().parse_args(argv)
    paths = args.paths or [_default_target()]
    bad = _check_paths(paths)
    if bad is not None:
        return bad
    for trace in args.trace or ():
        if not Path(trace).exists():
            print(f"ntcslint: no such trace: {trace}", file=sys.stderr)
            return 2
    project = Project.load(paths, exclude=tuple(args.exclude or ()))
    findings, _ = run_rules_with_waivers(project, rule_filter=["model"])
    if args.trace:
        # Imported lazily: plain lint paths never need the extractor
        # twice nor the NTCS message module.
        from repro.analysis.model import extract, replay_trace, untaken_edges
        model = extract(project)
        findings = list(findings)
        out = sys.stdout if args.format == "text" else sys.stderr
        taken: set = set()
        for trace in args.trace:
            trace_findings, checked = replay_trace(trace, model, taken)
            print(f"ntcsverify: {trace}: {checked} NTCS frame(s) checked",
                  file=out)
            findings.extend(trace_findings)
        for edge in untaken_edges(model, taken):
            print(f"ntcsverify: no frame took {edge}", file=out)
    _emit(findings, args.format)
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status (0 clean,
    1 findings, 2 usage error)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "verify":
        return main_verify(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0
    for token in args.rule or ():
        # A typo'd token would match nothing and report "clean", which
        # in CI silently disables the gate — reject it loudly instead.
        if not any(token == rule_obj.name
                   or any(rid.startswith(token) for rid in rule_obj.ids)
                   for rule_obj in all_rules()):
            print(f"ntcslint: unknown rule token: {token} (see --list-rules)",
                  file=sys.stderr)
            return 2
    paths = args.paths or [_default_target()]
    bad = _check_paths(paths)
    if bad is not None:
        return bad
    exclude = tuple(args.exclude or ())
    findings, waivers = _run_with_cache(
        paths, args.rule, exclude, args.cache)
    if args.list_waivers:
        for waiver in waivers:
            print(waiver.render())
        print(f"ntcslint: {len(waivers)} waiver(s) active")
        return 1 if _waiver_budget_exceeded(waivers, args.max_waivers) else 0
    over_budget = _waiver_budget_exceeded(waivers, args.max_waivers)
    _emit(findings, args.format)
    return 1 if (findings or over_budget) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
