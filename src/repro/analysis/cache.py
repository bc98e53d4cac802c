"""Result caching for ntcslint: skip the run when nothing changed.

The cache key is a manifest of per-file content hashes (every ``.py``
file the scan would parse), plus the scan configuration (paths, rule
filter, excludes) and the same manifest of ``repro/analysis`` itself
and of every ``repro`` module loaded with the rules (PRO003 reads
``conversion.structdef``'s scalar table) — so editing any file, adding
one, deleting one, changing the flags, or editing what the rules run
all invalidate it.  Invalidation is whole-tree on
purpose: the interesting rules (layering, duplicate type ids, the
model stage) are cross-file, so per-file reuse of stale results would
be unsound.
A hit replays the stored findings and waivers without parsing a
single AST, which is what keeps ``make lint`` on an unchanged tree
well under a second.

The cache lives wherever the caller points it (the Makefile uses
``.ntcslint-cache.json`` at the repo root, gitignored); a missing,
corrupt, or version-skewed file is simply a miss.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.engine import Finding, Waiver, all_rules, iter_python_files

CACHE_FORMAT = 1

ANALYSIS_SOURCES = Path(__file__).resolve().parent   # the rules' sources


def _manifest(paths: Sequence[Path],
              exclude: Sequence[str]) -> Dict[str, str]:
    """Relative-path → content-hash for every file the scan would see."""
    manifest: Dict[str, str] = {}
    for file_path in iter_python_files(paths, exclude=exclude):
        digest = hashlib.sha256(file_path.read_bytes()).hexdigest()
        manifest[file_path.as_posix()] = digest
    return manifest


def _loaded_sources() -> List[Path]:
    """Every ``repro`` module outside ``repro/analysis`` loaded with the
    rules: what they import (at module level), and what that imports."""
    all_rules()
    return sorted(Path(module.__file__) for name, module
                  in list(sys.modules.items()) if name.startswith("repro.")
                  and not name.startswith("repro.analysis"))


def cache_key(paths: Sequence[Path], rule_filter: Optional[Sequence[str]],
              exclude: Sequence[str]) -> str:
    """One hash covering file contents, scan configuration and the
    rules' own sources."""
    payload = {
        "format": CACHE_FORMAT,
        "manifest": _manifest(paths, exclude),
        "rule_filter": sorted(rule_filter or ()),
        "exclude": sorted(exclude),
        "rules": _manifest([ANALYSIS_SOURCES, *_loaded_sources()], ()),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _finding_from_dict(data: dict) -> Finding:
    return Finding(rule=data["rule"], severity=data["severity"],
                   path=data["path"], line=data["line"],
                   message=data["message"])


def load(cache_path: Path,
         key: str) -> Optional[Tuple[List[Finding], List[Waiver]]]:
    """The stored (findings, waivers) when the key matches, else None."""
    try:
        data = json.loads(Path(cache_path).read_text())
    except (OSError, ValueError):
        return None
    if data.get("format") != CACHE_FORMAT or data.get("key") != key:
        return None
    try:
        findings = [_finding_from_dict(f) for f in data["findings"]]
        waivers = [
            Waiver(finding=_finding_from_dict(w["finding"]),
                   pragma_line=w["pragma_line"],
                   justification=w["justification"])
            for w in data["waivers"]
        ]
    except (KeyError, TypeError):
        return None
    return findings, waivers


def store(cache_path: Path, key: str, findings: Sequence[Finding],
          waivers: Sequence[Waiver]) -> None:
    """Persist a run's results under the given key (best-effort: an
    unwritable cache never fails the lint)."""
    data = {
        "format": CACHE_FORMAT,
        "key": key,
        "findings": [f.as_dict() for f in findings],
        "waivers": [
            {"finding": w.finding.as_dict(),
             "pragma_line": w.pragma_line,
             "justification": w.justification}
            for w in waivers
        ],
    }
    try:
        Path(cache_path).write_text(json.dumps(data, sort_keys=True))
    except OSError:
        pass
