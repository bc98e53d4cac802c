"""ntcslint: the architecture stays machine-checked.

Two halves:

* the *gate* — the full rule set runs over ``src/repro`` and must come
  back empty, so any future PR that violates the paper's layering
  (Fig. 2-1), type-id reservations (Sec. 5.2), determinism, or
  exception hygiene fails tier-1;
* the *demonstration* — fixture trees with deliberately seeded
  violations assert that each rule family actually fires, with exact
  rule ids and line numbers, so the gate cannot rot into a no-op.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import Finding, Project, analyze, layer_name
from repro.analysis.cli import main
from repro.conversion import ConversionRegistry, Field, StructDef
from repro.errors import ConversionError, DuplicateTypeId

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
FIXTURE_PROJ = REPO_ROOT / "tests" / "fixtures" / "ntcslint" / "proj"


def fixture_findings(*relpath_filters):
    """Findings over the fixture project, optionally narrowed to files
    whose path contains one of the given substrings."""
    findings = analyze([FIXTURE_PROJ])
    if relpath_filters:
        findings = [f for f in findings
                    if any(token in f.path for token in relpath_filters)]
    return findings


def rule_lines(findings):
    """(rule id, line) pairs, order-preserving."""
    return [(f.rule, f.line) for f in findings]


# ---------------------------------------------------------------------------
# The gate: the real tree is clean
# ---------------------------------------------------------------------------

def test_src_tree_is_clean():
    findings = analyze([SRC_TREE])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_exits_zero_on_src_tree(capsys):
    assert main([str(SRC_TREE)]) == 0
    assert "ntcslint: clean" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Layering (LAY001/LAY002) — the Fig. 2-1 stack
# ---------------------------------------------------------------------------

def test_netsim_importing_ntcs_fires_both_scopes():
    # Module-scope AND function-scope (lazy) imports are both edges.
    findings = fixture_findings("evil_netsim")
    assert rule_lines(findings) == [("LAY001", 6), ("LAY001", 11)]
    assert "repro.ntcs.nucleus" in findings[0].message
    assert "repro.ntcs.lcm" in findings[1].message


def test_ali_importing_ndlayer_and_drivers_fires():
    findings = fixture_findings("evil_ali")
    assert rule_lines(findings) == [("LAY001", 6), ("LAY001", 7)]
    assert all(f.severity == "error" for f in findings)


def test_application_importing_internals_fires():
    findings = fixture_findings("evil_app")
    assert rule_lines(findings) == [("LAY001", 5), ("LAY001", 6)]
    assert "layer 'apps'" in findings[0].message


def test_unmapped_module_is_reported():
    findings = fixture_findings("mystery")
    assert rule_lines(findings) == [("LAY002", 1)]
    assert findings[0].severity == "warning"


def test_naming_message_sent_outside_the_nsp_layer_fires():
    # LAY003: the NSP-Layer is the single naming access point (Sec.
    # 2.4).  Positional and keyword message types both fire; going
    # through the NSP and an "ns_" that is not a message type do not.
    findings = fixture_findings("ns_bypass")
    assert rule_lines(findings) == [("LAY003", 8), ("LAY003", 9)]
    assert "'ns_deregister'" in findings[0].message
    assert "'ns_ping'" in findings[1].message


def test_live_tree_speaks_nsp_only_inside_repro_naming():
    # Waiver-free: the two farewell datagrams that used to hand-roll
    # "ns_deregister" (ALI and gateway kill hooks) now go through
    # NspLayer.deregister_on_death.
    for rel in ("commod/ali.py", "ntcs/gateway.py"):
        assert "ntcslint: allow=LAY003" not in (SRC_TREE / rel).read_text()
    assert [f for f in analyze([SRC_TREE]) if f.rule == "LAY003"] == []


def test_layer_map_places_the_paper_stack():
    assert layer_name("repro.commod.ali") == "ali"
    assert layer_name("repro.naming.nsp") == "nsp"
    assert layer_name("repro.ntcs.lcm") == "lcm"
    assert layer_name("repro.ntcs.iplayer") == "ip"
    assert layer_name("repro.ntcs.ndlayer") == "nd"
    assert layer_name("repro.wm.server") == "apps"
    assert layer_name("repro.netsim.network") == "netsim"
    assert layer_name("not_repro.thing") is None


# ---------------------------------------------------------------------------
# Protocol (PRO001–PRO004) — Sec. 5.2 type-id reservations
# ---------------------------------------------------------------------------

def test_protocol_rules_fire_exactly():
    findings = fixture_findings("bad_protocol")
    assert rule_lines(findings) == [
        ("PRO001", 14),   # id 99 outside repro.naming's 10..39
        ("PRO002", 17),   # id 12 duplicates ok_message
        ("PRO003", 21),   # unknown field type float32
        ("PRO003", 22),   # bytes field not in last position
        ("PRO004", 23),   # duplicate field name
    ]
    assert "10..39" in findings[0].message
    assert "ok_message" in findings[1].message


def test_protocol_rule_resolves_constant_ids():
    # T_OUT_OF_RANGE = 99 is referenced by name, not literal.
    finding = fixture_findings("bad_protocol")[0]
    assert "type id 99" in finding.message


# ---------------------------------------------------------------------------
# Determinism (DET001–DET004) — virtual time only
# ---------------------------------------------------------------------------

def test_determinism_rules_fire_exactly():
    findings = fixture_findings("bad_clock")
    assert rule_lines(findings) == [
        ("DET001", 10),   # time.time()
        ("DET002", 11),   # time.sleep()
        ("DET003", 12),   # global random.random()
        ("DET003", 13),   # unseeded random.Random()
        ("DET004", 14),   # argless datetime.now()
    ]


def test_seeded_random_is_sanctioned():
    findings = fixture_findings("bad_clock")
    # The sanctioned() helper at the bottom of the fixture uses
    # random.Random(seed) and must produce no finding.
    assert all(f.line <= 14 for f in findings)


def test_repair_module_seeded_random_fires_det005():
    # The fixture's module name is repro.netsim.chaos — one of the
    # restricted chaos/repair modules — so even a *seeded*
    # random.Random(7) fires DET005 (the stream must come from
    # repro.util.seeds.derive_rng).
    findings = fixture_findings("netsim/chaos")
    assert rule_lines(findings) == [("DET005", 12)]
    assert "derive_rng" in findings[0].message


def test_live_repair_modules_carry_no_direct_rng():
    # The real chaos harness and repair paths must stay DET005-clean.
    for rel in ("netsim/chaos.py", "ntcs/lcm.py",
                "ntcs/iplayer.py", "ntcs/gateway.py"):
        findings = [f for f in analyze([SRC_TREE / rel])
                    if f.rule == "DET005"]
        assert findings == [], rel


def test_realnet_is_exempt_from_determinism():
    # The real-socket substrate legitimately reads the wall clock.
    findings = [f for f in analyze([SRC_TREE / "realnet"])
                if f.rule.startswith("DET")]
    assert findings == []


def test_private_heap_fires_det006_even_in_realnet():
    # The fixture lives under repro.realnet: the wall-clock exemption
    # must not extend to heapq — a private heap is a second,
    # unaccounted event queue outside the shared wheel's total order.
    findings = fixture_findings("rogue_heap")
    assert rule_lines(findings) == [("DET006", 6), ("DET006", 7)]
    assert "timerwheel" in findings[0].message
    assert "timerwheel" in findings[1].message


def test_shared_timer_module_is_det006_home():
    # The one sanctioned heapq user: repro.netsim.timerwheel itself.
    findings = [f for f in analyze([SRC_TREE / "netsim" / "timerwheel.py"])
                if f.rule == "DET006"]
    assert findings == []


# ---------------------------------------------------------------------------
# Hygiene (EXC001–EXC003)
# ---------------------------------------------------------------------------

def test_hygiene_rules_fire_exactly():
    findings = fixture_findings("bad_hygiene")
    assert rule_lines(findings) == [
        ("EXC001", 10),   # bare except:
        ("EXC002", 18),   # swallowed NtcsError
        ("EXC003", 22),   # mutable default argument
    ]


def test_pragma_waives_a_finding():
    # waived() in the fixture swallows NtcsError under an explicit
    # `# ntcslint: allow=EXC002` pragma: no finding past line 22.
    findings = fixture_findings("bad_hygiene")
    assert all(f.line <= 22 for f in findings)


# ---------------------------------------------------------------------------
# Performance (PERF001/PERF002) — no per-frame events above the wire
# (§13), no per-datagram note formatting below it
# ---------------------------------------------------------------------------

def test_perf_rule_fires_on_per_frame_post_loops():
    # The fixture's module name is repro.ntcs.ndlayer — a data-plane
    # hot-path module — so scheduler posts inside for/while loops fire.
    findings = fixture_findings("ntcs/ndlayer")
    assert rule_lines(findings) == [("PERF001", 12), ("PERF001", 16)]
    assert "per train" in findings[0].message


def test_perf_rule_ignores_single_posts_and_other_modules():
    # one_shot() in the fixture posts outside a loop: no finding past
    # line 16.  And the identical shapes elsewhere in the fixture tree
    # (non-hot-path modules) produce no PERF001 at all.
    assert all(f.line <= 16 for f in fixture_findings("ntcs/ndlayer"))
    others = [f for f in fixture_findings() if f.rule == "PERF001"
              and "ntcs/ndlayer" not in f.path]
    assert others == []


def test_live_hot_paths_satisfy_perf001():
    # The real ND-Layer and gateway handle each frame inline in its
    # upcall — no per-frame dispatch loops, no waivers.
    for rel in ("ntcs/ndlayer.py", "ntcs/gateway.py"):
        findings = [f for f in analyze([SRC_TREE / rel])
                    if f.rule == "PERF001"]
        assert findings == [], rel


def test_perf_rule_fires_on_formatted_event_notes():
    # The fixture's module name is repro.ipcs.bad_notes — a substrate
    # module — so an f-string, %-format or .format() note fires
    # (PERF002); constant notes and note-less posts past line 16 do not.
    findings = fixture_findings("ipcs/bad_notes")
    assert rule_lines(findings) == [
        ("PERF002", 11), ("PERF002", 13), ("PERF002", 14)]
    assert "constant" in findings[0].message
    others = [f for f in fixture_findings() if f.rule == "PERF002"
              and "ipcs/bad_notes" not in f.path]
    assert others == []


def test_live_substrate_satisfies_perf002():
    findings = [f for f in analyze([SRC_TREE / "netsim", SRC_TREE / "ipcs"])
                if f.rule == "PERF002"]
    assert findings == []


# ---------------------------------------------------------------------------
# The fast-path splice pattern is lint-clean without waivers
# ---------------------------------------------------------------------------

def test_memoryview_splice_pattern_is_clean():
    """The zero-copy splice idiom (memoryview patch of the aux and
    checksum words, as in repro.ntcs.message.patch_frame_aux) passes
    every rule family with no `ntcslint: allow` pragma."""
    fixture = FIXTURE_PROJ / "repro" / "ntcs" / "message.py"
    assert "ntcslint: allow" not in fixture.read_text()
    assert fixture_findings("ntcs/message") == []


def test_live_fastpath_modules_are_clean():
    """The real fast-path code (message frame cache + splice, batched
    shift codecs, gateway forwarding) carries no waiver pragmas and
    yields zero findings on its own."""
    for rel in ("ntcs/message.py", "conversion/shiftmode.py",
                "ntcs/gateway.py", "ntcs/ndlayer.py"):
        path = SRC_TREE / rel
        assert "ntcslint: allow" not in path.read_text(), rel
    findings = analyze([SRC_TREE / "ntcs", SRC_TREE / "conversion"])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_sharded_naming_modules_are_clean():
    """The PROTOCOL.md §14 sharding code — the ring, the one server and
    client class, and the stores they use — carries no `ntcslint: allow` pragma
    and yields zero findings: consistent hashing is built on CRC-32,
    not the salted builtin ``hash``, so the determinism family has
    nothing to waive."""
    for rel in ("naming/shards.py", "naming/server.py", "naming/nsp.py",
                "naming/database.py", "naming/protocol.py"):
        path = SRC_TREE / rel
        assert "ntcslint: allow" not in path.read_text(), rel
    findings = analyze([SRC_TREE / "naming"])
    assert findings == [], "\n".join(f.render() for f in findings)


# ---------------------------------------------------------------------------
# CLI: formats, filtering, exit codes
# ---------------------------------------------------------------------------

def test_cli_json_format_is_machine_readable(capsys):
    status = main([str(FIXTURE_PROJ), "--format", "json"])
    assert status == 1
    records = json.loads(capsys.readouterr().out)
    assert {r["rule"] for r in records} >= {
        "LAY001", "LAY002", "PRO001", "PRO002", "PRO003", "PRO004",
        "DET001", "DET002", "DET003", "DET004", "DET005",
        "EXC001", "EXC002", "EXC003",
    }
    sample = records[0]
    assert set(sample) == {"rule", "severity", "path", "line", "message"}


def test_cli_rule_filtering(capsys):
    status = main([str(FIXTURE_PROJ), "--rule", "DET", "--format", "json"])
    assert status == 1
    records = json.loads(capsys.readouterr().out)
    assert records and all(r["rule"].startswith("DET") for r in records)

    status = main([str(FIXTURE_PROJ), "--rule", "hygiene", "--format", "json"])
    assert status == 1
    records = json.loads(capsys.readouterr().out)
    assert records and all(r["rule"].startswith("EXC") for r in records)


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for family in ("layering", "protocol", "determinism", "hygiene"):
        assert family in out


def test_cli_missing_path_is_usage_error(capsys):
    assert main([str(FIXTURE_PROJ / "does-not-exist")]) == 2


def test_cli_unknown_rule_token_is_usage_error(capsys):
    # A typo must not silently report "clean" and disable the gate.
    assert main([str(FIXTURE_PROJ), "--rule", "BOGUS"]) == 2
    assert "unknown rule token" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Engine plumbing
# ---------------------------------------------------------------------------

def test_module_names_resolve_from_fixture_tree():
    project = Project.load([FIXTURE_PROJ])
    assert "repro.netsim.evil_netsim" in project.by_name
    assert "repro.naming.bad_protocol" in project.by_name


def test_findings_are_sorted_and_stable():
    first = fixture_findings()
    second = fixture_findings()
    assert first == second
    assert first == sorted(first, key=lambda f: (f.path, f.line, f.rule))


def test_finding_render_shape():
    finding = Finding(rule="LAY001", severity="error",
                      path="x.py", line=3, message="boom")
    assert finding.render() == "x.py:3: LAY001 [error] boom"


# ---------------------------------------------------------------------------
# The runtime counterpart: ConversionRegistry duplicate registration
# ---------------------------------------------------------------------------

def test_registry_raises_typed_error_on_duplicate_type_id():
    registry = ConversionRegistry()
    registry.register(StructDef("first", 100, [Field("a", "u8")]))
    with pytest.raises(DuplicateTypeId) as exc_info:
        registry.register(StructDef("second", 100, [Field("b", "u8")]))
    assert exc_info.value.type_id == 100
    assert "first" in str(exc_info.value)
    # Still a ConversionError for callers catching the family.
    assert isinstance(exc_info.value, ConversionError)


def test_registry_raises_typed_error_on_duplicate_name():
    registry = ConversionRegistry()
    registry.register(StructDef("same_name", 100, [Field("a", "u8")]))
    with pytest.raises(DuplicateTypeId):
        registry.register(StructDef("same_name", 101, [Field("a", "u8")]))
    # No silent overwrite happened.
    assert registry.get(100).sdef.name == "same_name"
    assert 101 not in registry


# ---------------------------------------------------------------------------
# Pragma edge cases: allow=all, messy comma lists, unknown ids,
# multi-line statements
# ---------------------------------------------------------------------------

def _mini_tree(tmp_path, body):
    """A one-file repro tree under tmp_path; returns the tree root."""
    pkg = tmp_path / "repro" / "machine"
    pkg.mkdir(parents=True)
    (pkg / "clocky.py").write_text(body)
    return tmp_path


def test_pragma_allow_all_waives_every_rule(tmp_path):
    tree = _mini_tree(tmp_path, (
        "import time, random\n"
        "\n"
        "def tick():\n"
        "    # Both DET001 and DET003 on one line, one blanket pragma.\n"
        "    return time.time() + random.random()"
        "  # ntcslint: allow=all — bootstrap shim\n"
    ))
    assert analyze([tree]) == []


def test_pragma_comma_list_tolerates_stray_whitespace(tmp_path):
    tree = _mini_tree(tmp_path, (
        "import time, random\n"
        "\n"
        "def tick():\n"
        "    return time.time() + random.random()"
        "  # ntcslint: allow= DET001 ,  DET003 — messy but legal\n"
    ))
    assert analyze([tree]) == []


def test_pragma_unknown_rule_id_warns_wvr001(tmp_path):
    tree = _mini_tree(tmp_path, (
        "def quiet():\n"
        "    return 1  # ntcslint: allow=ZZZ999 — typo'd id\n"
    ))
    findings = analyze([tree])
    assert [(f.rule, f.severity, f.line) for f in findings] == [
        ("WVR001", "warning", 2)]
    assert "ZZZ999" in findings[0].message


def test_pragma_on_multiline_statement_waives(tmp_path):
    # The pragma sits on a *different physical line* of the same
    # statement as the offending call — it must still match.
    tree = _mini_tree(tmp_path, (
        "import time\n"
        "\n"
        "def tick():\n"
        "    value = (  # ntcslint: allow=DET001 — frozen in this shim\n"
        "        time.time()\n"
        "    )\n"
        "    return value\n"
    ))
    assert analyze([tree]) == []


# ---------------------------------------------------------------------------
# The waiver ratchet (--max-waivers / --list-waivers) and the
# committed baseline
# ---------------------------------------------------------------------------

def _two_waiver_tree(tmp_path):
    return _mini_tree(tmp_path, (
        "import time\n"
        "\n"
        "def tick():\n"
        "    a = time.time()  # ntcslint: allow=DET001 — first shim\n"
        "    b = time.time()  # ntcslint: allow=DET001 — second shim\n"
        "    return a + b\n"
    ))


def test_cli_max_waivers_within_budget(tmp_path, capsys):
    tree = _two_waiver_tree(tmp_path)
    assert main([str(tree), "--max-waivers", "2"]) == 0


def test_cli_max_waivers_over_budget(tmp_path, capsys):
    tree = _two_waiver_tree(tmp_path)
    assert main([str(tree), "--max-waivers", "1"]) == 1
    err = capsys.readouterr().err
    assert "2 waiver(s) active, budget is 1" in err
    assert "DET001 waived" in err


def test_cli_list_waivers_shows_justifications(tmp_path, capsys):
    tree = _two_waiver_tree(tmp_path)
    assert main([str(tree), "--list-waivers"]) == 0
    out = capsys.readouterr().out
    assert "DET001 waived — first shim" in out
    assert "DET001 waived — second shim" in out
    assert "2 waiver(s) active" in out


def test_committed_baseline_matches_repo_waiver_count():
    """The ratchet CI runs: src + tests + benchmarks (fixtures
    excluded) must carry exactly the baselined number of waivers —
    fewer means ratchet the file down, more means justify the new
    pragma in review."""
    baseline = int((REPO_ROOT / ".ntcslint-baseline").read_text())
    from repro.analysis.engine import run_rules_with_waivers
    project = Project.load(
        [SRC_TREE, REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
        exclude=("tests/fixtures",))
    findings, waivers = run_rules_with_waivers(project)
    assert findings == [], "\n".join(f.render() for f in findings)
    assert len(waivers) == baseline, "\n".join(w.render() for w in waivers)


def test_documented_make_targets_are_declared():
    """Every ``make <target>`` the docs, the verify skill or a CI step
    tells someone to run is declared in the Makefile's ``.PHONY`` — a
    deleted target must take its mentions with it."""
    makefile = (REPO_ROOT / "Makefile").read_text().replace("\\\n", " ")
    declared = set(
        re.search(r"^\.PHONY:(.*)$", makefile, re.M).group(1).split())
    named = {}
    for doc in ("README.md", "PROTOCOL.md", "ANALYSIS.md",
                ".claude/skills/verify/SKILL.md"):
        # Commands live in fenced blocks and backtick spans; prose may
        # "make every advertisement idempotent" freely.
        for code in re.findall(r"```.*?```|`[^`]+`",
                               (REPO_ROOT / doc).read_text(), re.S):
            for target in re.findall(r"\bmake\s+([a-z][a-z0-9-]*)", code):
                named.setdefault(target, doc)
    ci = ".github/workflows/ci.yml"
    for target in re.findall(r"run:.*?\bmake ([a-z][a-z0-9-]*)",
                             (REPO_ROOT / ci).read_text()):
        named.setdefault(target, ci)
    assert {"lint", "chaos", "bench-e2e-compare"} <= set(named)
    undeclared = {target: where for target, where in named.items()
                  if target not in declared}
    assert not undeclared, f"not in the Makefile's .PHONY: {undeclared}"


# ---------------------------------------------------------------------------
# SARIF output (satellite for the code-scanning upload)
# ---------------------------------------------------------------------------

def test_cli_sarif_format_is_valid_shape(capsys):
    assert main([str(FIXTURE_PROJ), "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "ntcslint"
    rule_ids = {r["id"] for r in driver["rules"]}
    # Every family is indexed, the model stage and WVR001 included.
    assert {"LAY001", "PRO001", "DET001", "EXC001",
            "MDL001", "TRC001", "WVR001"} <= rule_ids
    assert run["results"], "fixture tree must produce results"
    sample = run["results"][0]
    assert sample["ruleId"] in rule_ids
    assert sample["level"] in ("error", "warning")
    location = sample["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"]
    assert location["region"]["startLine"] >= 1


# ---------------------------------------------------------------------------
# --exclude (how CI scans tests/ without the seeded fixture trees)
# ---------------------------------------------------------------------------

def test_cli_exclude_skips_matching_paths(capsys):
    assert main([str(FIXTURE_PROJ), "--format", "json",
                 "--exclude", "bad_hygiene"]) == 1
    records = json.loads(capsys.readouterr().out)
    assert records and not any("bad_hygiene" in r["path"] for r in records)


def test_exclude_whole_fixture_tree_is_clean(capsys):
    status = main([str(REPO_ROOT / "tests" / "fixtures"),
                   "--exclude", "tests/fixtures"])
    assert status == 0
    assert "ntcslint: clean" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Result caching (--cache): content-hash keyed, whole-tree invalidation
# ---------------------------------------------------------------------------

def test_cache_round_trip_and_invalidation(tmp_path, capsys):
    from repro.analysis import cache as result_cache

    tree = _mini_tree(tmp_path / "proj", (
        "import time\n"
        "\n"
        "def tick():\n"
        "    return time.time()\n"
    ))
    cache_file = tmp_path / "cache.json"

    # Cold run stores; exit code and findings as normal.
    assert main([str(tree), "--cache", str(cache_file),
                 "--format", "json"]) == 1
    cold = json.loads(capsys.readouterr().out)
    assert cache_file.exists()

    # Warm run must be a pure cache hit with identical output.
    key = result_cache.cache_key([tree], None, ())
    assert result_cache.load(cache_file, key) is not None
    assert main([str(tree), "--cache", str(cache_file),
                 "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == cold

    # Editing any file changes the manifest: the key moves, so the
    # stored entry misses and the CLI reruns against the new content.
    source = tree / "repro" / "machine" / "clocky.py"
    source.write_text(source.read_text() + "\n# touched\n")
    new_key = result_cache.cache_key([tree], None, ())
    assert new_key != key
    assert result_cache.load(cache_file, new_key) is None
    assert main([str(tree), "--cache", str(cache_file),
                 "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == cold  # same findings


def test_cache_corrupt_file_is_a_miss_not_a_crash(tmp_path):
    from repro.analysis import cache as result_cache

    cache_file = tmp_path / "cache.json"
    cache_file.write_text("{not json")
    key = result_cache.cache_key([SRC_TREE], None, ())
    assert result_cache.load(cache_file, key) is None


def test_cache_key_depends_on_rule_filter_and_exclude():
    from repro.analysis import cache as result_cache

    base = result_cache.cache_key([SRC_TREE], None, ())
    assert result_cache.cache_key([SRC_TREE], ["DET"], ()) != base
    assert result_cache.cache_key([SRC_TREE], None, ("x",)) != base
    assert result_cache.cache_key([SRC_TREE], None, ()) == base
