"""ntcsverify: protocol model extraction, MDL checking, trace replay.

Three halves, mirroring the tentpole:

* the *gate* — ``verify`` over ``src/repro`` extracts the message
  table, the declared machines, and the wire protocol, and every MDL
  rule comes back clean;
* the *demonstration* — one mutation fixture per MDL rule (a deleted
  ack handler, a dropped timeout edge, a dead handshake, an unbounded
  retry cycle, an undrained queue) proves each rule actually fires,
  and fires alone;
* the *bridge* — wire traces recorded from live chaos-schedule runs
  replay through the trace-conformance checker with zero unmodeled
  transitions, while corrupted traces are flagged.
"""

import json
from pathlib import Path

import pytest

from deployments import chain_nets, echo_server, two_nets
from repro.analysis import Project, analyze
from repro.analysis.cli import main
from repro.analysis.model import extract, replay_trace
from repro.conversion.shiftmode import shift_encode_u32s
from repro.netsim import ChaosSchedule, NetTraceLog
from repro.ntcs import message as m
from repro.ntcs.address import Address
from repro.ntcs.nucleus import NucleusConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
VERIFY_FIXTURES = REPO_ROOT / "tests" / "fixtures" / "ntcsverify"


def _model(paths=(SRC_TREE,)):
    return extract(Project.load(paths))


# ---------------------------------------------------------------------------
# The gate: verify is clean on the real tree
# ---------------------------------------------------------------------------

def test_verify_cli_clean_on_src_tree(capsys):
    assert main(["verify", str(SRC_TREE)]) == 0
    assert "ntcslint: clean" in capsys.readouterr().out


def test_model_family_clean_via_plain_lint():
    findings = analyze([SRC_TREE], rule_filter=["model"])
    assert findings == [], "\n".join(f.render() for f in findings)


# ---------------------------------------------------------------------------
# Extraction: the model really contains the protocol
# ---------------------------------------------------------------------------

def test_extracts_message_table_with_sites():
    model = _model()
    # Control bodies join their unpack/kind-dispatch handlers.
    hello = model.messages["lvc_hello"]
    assert 1 <= hello.type_id <= 9 and hello.sends and hello.handlers
    # ivc_close is never unpacked — found via kind dispatch + @handles.
    close = model.messages["ivc_close"]
    assert close.sends and close.handlers
    assert any(h.module == "repro.ntcs.iplayer" for h in close.handlers)
    # NSP requests resolve through the _call/_resolve wrappers and the
    # Name Server's dispatch dict.
    register = model.messages["ns_register"]
    assert register.is_request
    assert any(h.module.startswith("repro.naming") for h in register.handlers)
    # Replies are recognized from handler-return tuples and _expect.
    assert model.messages["ns_register_ack"].is_reply


def test_extracts_declared_machines_and_wire():
    model = _model()
    names = {machine.name for machine in model.machines}
    assert {"ivc-endpoint", "lvc", "lcm-send-repair",
            "lcm-call", "lcm-rx-queue"} <= names
    anchors = {machine.name for machine in model.machines if machine.anchor}
    assert {"ivc-endpoint", "lvc"} <= anchors
    wire = model.primary_wire()
    assert wire is not None and wire.module == "repro.ntcs.message"
    assert set(wire.kind_names.values()) == set(wire.requires)


def test_anchor_mismatch_fires_mdl003(tmp_path):
    tree = tmp_path / "repro" / "ntcs"
    tree.mkdir(parents=True)
    (tree / "drifted.py").write_text(
        'PROTOCOL_MACHINE = {\n'
        '    "name": "drifted", "anchor": True,\n'
        '    "initial": "NEW", "terminal": ("DONE",),\n'
        '    "states": {\n'
        '        "NEW": {"edges": ({"event": "local go", "next": "DONE"},)},\n'
        '        "DONE": {},\n'
        '    },\n'
        '}\n'
        '\n'
        'class Thing:\n'
        '    def __init__(self):\n'
        '        self.state = "NEW"\n'
        '    def finish(self):\n'
        '        self.state = "FINISHED"\n'
    )
    findings = analyze([tmp_path], rule_filter=["model"])
    assert {f.rule for f in findings} == {"MDL003"}
    assert any("FINISHED" in f.message for f in findings)


# ---------------------------------------------------------------------------
# Mutation fixtures: every MDL rule is live, and fires alone
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture, rule", [
    ("mdl001", "MDL001"),   # deleted ack handler
    ("mdl002", "MDL002"),   # dropped timeout edge
    ("mdl003", "MDL003"),   # handshake flag deadlock
    ("mdl004", "MDL004"),   # unbounded retry cycle
    ("mdl005", "MDL005"),   # queue grown, never drained
])
def test_mutation_fixture_fires_exactly_one_rule(fixture, rule):
    findings = analyze([VERIFY_FIXTURES / fixture], rule_filter=["model"])
    assert findings, f"{fixture} fired nothing"
    assert {f.rule for f in findings} == {rule}, \
        "\n".join(f.render() for f in findings)


def test_verify_cli_reports_fixture_violation(capsys):
    assert main(["verify", str(VERIFY_FIXTURES / "mdl004")]) == 1
    assert "MDL004" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The netsim wire trace log
# ---------------------------------------------------------------------------

def test_tracelog_records_and_roundtrips(tmp_path):
    bed = two_nets()
    log = bed.record_wire_trace()
    client = bed.module("client", "sun1")
    echo_server(bed, "srv", "apollo1")
    uadd = client.ali.locate("srv")
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "hi"})
    assert reply.values["text"] == "HI"
    assert len(log) > 0
    event = log.events[0]
    assert event["op"] == "frame"
    assert {"src", "dst", "protocol", "size", "dropped",
            "frames"} <= set(event["args"])
    path = log.dump_jsonl(tmp_path / "trace.jsonl")
    assert NetTraceLog.load_jsonl(path) == log.events


def test_tracelog_sees_dropped_frames():
    bed = two_nets()
    log = bed.record_wire_trace()
    client = bed.module("client", "sun1")
    echo_server(bed, "srv", "vax1")
    uadd = client.ali.locate("srv")
    client.ali.call(uadd, "echo", {"n": 0, "text": "warm"})
    bed.networks["ether0"].faults.drop_next(2)
    client.ali.call(uadd, "echo", {"n": 1, "text": "again"},
                    timeout=120.0)
    assert any(e["args"]["dropped"] for e in log.events)


# ---------------------------------------------------------------------------
# Trace conformance: live chaos traces replay with zero unmodeled
# transitions; corrupted traces are flagged
# ---------------------------------------------------------------------------

def _chaos_trace(seed: int, tmp_path: Path) -> Path:
    bed = chain_nets(2, config=NucleusConfig(chaos_seed=seed,
                                             repair_max_attempts=8))
    log = bed.record_wire_trace()
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    client.ali.call(uadd, "echo", {"n": 0, "text": "warm"})
    schedule = (ChaosSchedule(seed=seed)
                .crash(bed.now + 0.005, "gwm0")
                .restart(bed.now + 0.35, "gwm0")
                .add(bed.now + 0.01, "drop_probability", "net1", p=0.3)
                .add(bed.now + 0.4, "clear_faults", "net1"))
    bed.chaos(schedule)
    for i in range(1, 4):
        try:
            client.ali.call(uadd, "echo", {"n": i, "text": "mid"},
                            timeout=120.0)
        except Exception:
            pass  # a lost call is chaos working; conformance is per-frame
    return log.dump_jsonl(tmp_path / f"chaos-{seed}.jsonl")


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_chaos_trace_replays_clean(seed, tmp_path):
    path = _chaos_trace(seed, tmp_path)
    findings, checked = replay_trace(str(path), _model())
    assert findings == [], "\n".join(f.render() for f in findings)
    # Every sim-TCP segment of the run was read through its length
    # prefix (PROTOCOL.md §7), not skipped as transport noise.
    assert checked > 0


def _frame_event(frame_hex: str, protocol: str = "tcp") -> str:
    return json.dumps({
        "at": 0.0, "op": "frame", "target": "ether0",
        "args": {"src": "h1", "dst": "h2", "protocol": protocol,
                 "size": 64, "dropped": False, "frames": [frame_hex]},
    })


def _frame_hex(kind: int, protocol: str = "tcp") -> str:
    """One message as its IPCS carries it (PROTOCOL.md §7): behind a
    shift-mode length prefix on sim-TCP, alone in an MBX record."""
    frame = m.Msg(kind=kind, src=Address(1), dst=Address(2)).encode()
    if protocol == "tcp":
        frame = shift_encode_u32s([len(frame)]) + frame
    return frame.hex()


def _data_before_hello(protocol: str, tmp_path: Path):
    # DATA before any HELLO on the hop: a transition outside the model.
    path = tmp_path / "bad.jsonl"
    path.write_text(
        _frame_event(_frame_hex(m.DATA, protocol), protocol) + "\n")
    findings, checked = replay_trace(str(path), _model())
    assert [f.rule for f in findings] == ["TRC001"]
    assert "lvc" in findings[0].message
    assert checked == 1


def test_corrupted_trace_fires_trc001(tmp_path):
    """A sim-TCP segment, length prefix and all."""
    _data_before_hello("tcp", tmp_path)


def test_corrupted_mailbox_record_fires_trc001(tmp_path):
    _data_before_hello("mbx", tmp_path)


@pytest.mark.parametrize("protocol, blob", [
    # An unprefixed message on a stream, and a prefix that does not
    # measure the bytes after it, are not one framed TCP message.
    ("tcp", _frame_hex(m.DATA, "mbx")),
    ("tcp", "00000001" + _frame_hex(m.DATA, "mbx")),
    # A prefixed message is not an MBX record.
    ("mbx", _frame_hex(m.DATA, "tcp")),
])
def test_trace_with_no_ntcs_frame_fires_trc002(protocol, blob, tmp_path):
    path = tmp_path / "noise.jsonl"
    path.write_text(_frame_event(blob, protocol) + "\n")
    findings, checked = replay_trace(str(path), _model())
    assert checked == 0
    assert [f.rule for f in findings] == ["TRC002"]
    assert "no NTCS frames to check" in findings[0].message


def test_unknown_kind_fires_trc002(tmp_path):
    path = tmp_path / "weird.jsonl"
    path.write_text(_frame_event(_frame_hex(99)) + "\n")
    findings, _checked = replay_trace(str(path), _model())
    assert [f.rule for f in findings] == ["TRC002"]


def test_verify_cli_with_traces(tmp_path, capsys):
    good = _chaos_trace(0, tmp_path)
    assert main(["verify", str(SRC_TREE), "--trace", str(good)]) == 0
    checked = replay_trace(str(good), _model())[1]
    assert f"{good}: {checked} NTCS frame(s) checked" in capsys.readouterr().out
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_frame_event(_frame_hex(m.DATA)) + "\n")
    assert main(["verify", str(SRC_TREE), "--trace", str(good),
                 "--trace", str(bad)]) == 1
    assert "TRC001" in capsys.readouterr().out


def test_verify_cli_fails_a_trace_it_cannot_read(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["verify", str(SRC_TREE), "--trace", str(empty)]) == 1
    out = capsys.readouterr().out
    assert f"{empty}: 0 NTCS frame(s) checked" in out
    assert "TRC002" in out and "no NTCS frames to check" in out


def test_verify_cli_missing_trace_is_usage_error(capsys):
    assert main(["verify", str(SRC_TREE),
                 "--trace", "/no/such/trace.jsonl"]) == 2
    assert "no such trace" in capsys.readouterr().err
