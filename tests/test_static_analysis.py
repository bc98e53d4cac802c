"""ntcslint: the architecture stays machine-checked.

Two halves:

* the *gate* — the full rule set runs over ``src/repro`` and must come
  back empty, so any future PR that violates the paper's layering
  (Fig. 2-1), type-id reservations (Sec. 5.2), determinism, exception
  hygiene, or a PROTOCOL.md sole site fails tier-1;
* the *demonstration* — fixture trees with deliberately seeded
  violations assert that each rule family actually fires, with exact
  rule ids and line numbers, so the gate cannot rot into a no-op.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Finding, Project, all_rules, analyze, layer_name
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


def test_stand_alone_duplicate_is_not_hidden_by_an_earlier_file(tmp_path):
    # Stand-alone files may share an id across files (their registries
    # never coexist), but each file's own uses are compared among
    # themselves: an earlier-sorting file using the same id must not
    # mask the later file's duplicate.
    struct = 'StructDef("{}", 500, [Field("a", "u8")])\n'
    header = "from repro.conversion import Field, StructDef\n"
    (tmp_path / "a_first.py").write_text(header + struct.format("one"))
    (tmp_path / "b_second.py").write_text(
        header + struct.format("two") + struct.format("three"))
    findings = analyze([tmp_path])
    assert [(Path(f.path).name, f.rule, f.line) for f in findings] == [
        ("b_second.py", "PRO002", 3)]
    assert "'three'" in findings[0].message
    assert "'two'" in findings[0].message


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
    # unaccounted event queue outside the shared queue's total order.
    findings = fixture_findings("rogue_heap")
    assert rule_lines(findings) == [("DET006", 6), ("DET006", 7)]
    assert "repro.netsim.scheduler" in findings[0].message
    assert "repro.netsim.scheduler" in findings[1].message


def test_det006_scans_tests_and_benchmarks(tmp_path):
    # The row's scope is every scanned module, not only repro.
    for tree in ("tests", "benchmarks"):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "heap_user.py").write_text(
            "import heapq\nfrom heapq import heappush\n")
    findings = analyze([tmp_path / "tests", tmp_path / "benchmarks"],
                       rule_filter=["DET006"])
    assert [(Path(f.path).parent.name, f.line) for f in findings] == [
        ("benchmarks", 1), ("benchmarks", 2), ("tests", 1), ("tests", 2)]


def test_shared_timer_module_is_det006_home():
    # The one sanctioned heapq user: repro.netsim.scheduler, home of
    # the EventQueue.
    findings = [f for f in analyze([SRC_TREE / "netsim" / "scheduler.py"])
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
# Performance (PERF002) — no per-datagram note formatting below the wire
# (§13)
# ---------------------------------------------------------------------------

def test_perf_rule_fires_on_formatted_event_notes():
    # The fixture's module name is repro.ipcs.bad_notes — a substrate
    # module — so an f-string, %-format or .format() note fires
    # (PERF002); constant notes and note-less posts past line 16 do not.
    # Every event it files is outside the IPCS timer sites (ONE005).
    findings = fixture_findings("ipcs/bad_notes")
    assert rule_lines(findings) == [
        ("ONE005", 11), ("PERF002", 11), ("ONE005", 13), ("PERF002", 13),
        ("ONE005", 14), ("PERF002", 14),
        ("ONE005", 20), ("ONE005", 21), ("ONE005", 22)]
    assert "constant" in findings[1].message
    others = [f for f in fixture_findings() if f.rule == "PERF002"
              and "ipcs/bad_notes" not in f.path]
    assert others == []


def test_live_substrate_satisfies_perf002():
    findings = [f for f in analyze([SRC_TREE / "netsim", SRC_TREE / "ipcs"])
                if f.rule == "PERF002"]
    assert findings == []


# ---------------------------------------------------------------------------
# Sole sites (ONE001–ONE009) — where PROTOCOL.md says one place decides
# ---------------------------------------------------------------------------

# Each seeded fixture -> the (rule, line) pairs it fires, and no others.
SOLE_SITE_FIXTURES = {
    "ntcs/nucleus.py": [("ONE001", 1), ("ONE001", 2)],
    "ntcs/lcm.py": [("ONE002", 1), ("ONE002", 2)],
    "ntcs/flow.py": [("ONE003", 2), ("ONE003", 5), ("ONE003", 9)],
    "ntcs/gateway.py": [("ONE004", line) for line in range(1, 8)],
    "ntcs/iplayer.py": [("ONE008", 1), ("ONE008", 2)],
    "naming/record_writer.py": [("ONE009", line) for line in range(1, 6)],
    "ipcs/tcp.py": [("ONE005", 3), ("ONE005", 6), ("ONE005", 7)],
    "ntcs/ndlayer.py": [("ONE005", 12), ("ONE005", 16), ("ONE005", 20)],
    "util/counting.py": [("ONE006", 15), ("ONE006", 16)] + [
        ("ONE007", line) for line in range(17, 23)],
}


@pytest.mark.parametrize("fixture", sorted(SOLE_SITE_FIXTURES),
                         ids=lambda fixture: fixture[:-3].replace("/", "."))
def test_sole_site_rows_fire_exactly(fixture):
    assert rule_lines(fixture_findings(fixture)) == \
        SOLE_SITE_FIXTURES[fixture]


def test_sole_site_rows_fire_nowhere_else(tmp_path):
    fired = {Path(f.path).relative_to(FIXTURE_PROJ / "repro").as_posix()
             for f in fixture_findings() if f.rule.startswith("ONE")}
    assert fired == set(SOLE_SITE_FIXTURES) | {"ipcs/bad_notes.py"}
    # The scheduler row binds the IPCSs, the ND-Layer and the gateway.
    for rel in ("netsim/clock.py", "ntcs/gateway.py"):
        path = tmp_path / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("def arm(scheduler):\n    scheduler.call_soon(f)\n")
    assert [(Path(f.path).parent.name, f.rule, f.line)
            for f in analyze([tmp_path])] == [("ntcs", "ONE005", 2)]


def test_a_function_site_covers_its_module_only(tmp_path):
    # A (module, None) site covers the module's package; a function
    # site only that function in that module, not a namesake beneath.
    for rel, body in (
            ("ntcs/protocol/sub.py", "def step(obj):\n    obj.state = 'X'\n"),
            ("naming/sub.py", "def ask(lcm):\n    lcm.call(d, 'ns_lookup')\n")):
        path = tmp_path / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
    assert [(Path(f.path).parent.name, f.rule, f.line)
            for f in analyze([tmp_path]) if f.rule in ("ONE008", "LAY003")
            ] == [("protocol", "ONE008", 2)]


def test_live_hot_paths_satisfy_perf001():
    # PERF001's per-frame dispatch loops are ONE005 now, which is
    # stricter: the real ND-Layer and gateway handle each frame inline
    # in its upcall and file no scheduler event at all, with no waivers.
    for rel in ("ntcs/ndlayer.py", "ntcs/gateway.py"):
        findings = [f for f in analyze([SRC_TREE / rel])
                    if f.rule == "ONE005"]
        assert findings == [], rel


def test_analysis_md_documents_every_rule_id():
    documented = set(re.findall(r"\*\*([A-Z]+[0-9]+)\*\*",
                                (REPO_ROOT / "ANALYSIS.md").read_text()))
    registered = {rid for rule_obj in all_rules() for rid in rule_obj.ids}
    assert documented == registered | {"WVR001"}


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
    } | {f"ONE00{n}" for n in range(1, 8)}
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
    for family in ("layering: LAY001, LAY002\n", "protocol",
                   "determinism: DET001, DET002, DET003, DET004, DET005\n",
                   "hygiene",
                   "sole-site: DET006, LAY003, ONE001, ONE002, ONE003, "
                   "ONE004, ONE005, ONE006, ONE007, ONE008, ONE009, "
                   "PERF002\n"):
        assert family in out
    assert "PERF001" not in out
    assert "perf:" not in out
    assert "naming-access" not in out


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
    first = StructDef("first", 100, [Field("a", "u8")])
    registry.register(first)
    with pytest.raises(DuplicateTypeId) as exc_info:
        registry.register(StructDef("second", first.type_id, [Field("b", "u8")]))
    assert exc_info.value.type_id == 100
    assert "first" in str(exc_info.value)
    # Still a ConversionError for callers catching the family.
    assert isinstance(exc_info.value, ConversionError)


def test_registry_raises_typed_error_on_duplicate_name():
    registry = ConversionRegistry()
    registry.register(StructDef("same_name", 110, [Field("a", "u8")]))
    with pytest.raises(DuplicateTypeId):
        registry.register(StructDef("same_name", 111, [Field("a", "u8")]))
    # No silent overwrite happened.
    assert registry.get(110).sdef.name == "same_name"
    assert 111 not in registry


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
    assert {"LAY001", "PRO001", "DET001", "EXC001", "ONE001", "ONE007",
            "MDL001", "TRC001", "WVR001"} <= rule_ids
    assert run["results"], "fixture tree must produce results"
    assert {f"ONE00{n}" for n in range(1, 8)} <= {
        result["ruleId"] for result in run["results"]}
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


def test_cache_key_moves_when_a_rule_source_changes(tmp_path, monkeypatch):
    # A rule edit that keeps every rule id — a sole-site row's allowed
    # sites, say — must not replay findings cached before it.
    from repro.analysis import cache as result_cache

    rules = tmp_path / "analysis"
    shutil.copytree(result_cache.ANALYSIS_SOURCES, rules,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(result_cache, "ANALYSIS_SOURCES", rules)
    before = result_cache.cache_key([FIXTURE_PROJ], None, ())
    table = rules / "rules" / "sole_site.py"
    table.write_text(table.read_text().replace("Nucleus.control", "x"))
    assert result_cache.cache_key([FIXTURE_PROJ], None, ()) != before


def test_cache_key_moves_when_code_a_rule_reads_changes(tmp_path):
    # PRO003 reads repro.conversion.structdef's scalar table: a field
    # type the table gains must not replay the finding cached before.
    code = tmp_path / "code"
    shutil.copytree(SRC_TREE, code / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    tree = tmp_path / "tree" / "repro" / "wm"
    tree.mkdir(parents=True)
    (tree / "floats.py").write_text(
        'from repro.conversion import Field, StructDef\n'
        'POINT = StructDef("point", 900, [Field("x", "float32")])\n')

    def lint():
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(tree),
             "--rule", "PRO003", "--cache", str(tmp_path / "cache.json")],
            env={**os.environ, "PYTHONPATH": str(code)},
            capture_output=True, text=True).returncode

    assert lint() == 1
    structdef = code / "repro" / "conversion" / "structdef.py"
    source = structdef.read_text()
    assert '"f64": "d",' in source
    structdef.write_text(source.replace('"f64": "d",',
                                        '"f64": "d", "float32": "f",'))
    assert lint() == 0


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
