"""ntcsverify: protocol model extraction, MDL checking, trace replay.

Three halves, mirroring the tentpole:

* the *gate* — ``verify`` over ``src/repro`` extracts the message
  table, the declared machines, and the kind table, and every MDL
  rule comes back clean;
* the *demonstration* — one mutation fixture per MDL rule (a deleted
  ack handler, a dropped timeout edge, a wire kind no machine edge
  names, an unbounded retry cycle, an undrained queue) proves each
  rule actually fires, and fires alone;
* the *bridge* — wire traces recorded from live chaos-schedule runs
  step the declared ``lvc`` and ``ivc-endpoint`` machines with zero
  unmodeled transitions, while corrupted traces are flagged.
"""

import functools
import json
from pathlib import Path

import pytest

from deployments import chain_nets, echo_server, sharded_chain, two_nets
from test_wire_invariance import SCENARIOS
from repro.analysis import Project, analyze
from repro.analysis.cli import main
from repro.analysis.model import extract, replay_trace, untaken_edges
from repro.analysis.rules.sole_site import SOLE_SITES, row_sites
from repro.conversion.shiftmode import shift_encode_u32s
from repro.errors import AddressFault
from repro.netsim import ChaosSchedule, NetTraceLog
from repro.ntcs import message as m
from repro.ntcs.address import Address
from repro.ntcs.nucleus import NucleusConfig
from repro.testbed import Testbed

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
VERIFY_FIXTURES = REPO_ROOT / "tests" / "fixtures" / "ntcsverify"


@functools.lru_cache(maxsize=None)
def _model(paths=(SRC_TREE,)):
    """The extracted model (read-only to every caller: extract once)."""
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
    # The code runs the wire machines and the sender's ivc-flow
    # through step.
    assert {machine for _, _, machine, _ in model.steps} == {
        "ivc-endpoint", "lvc", "ivc-flow"}
    # The wire model is the lvc and ivc-endpoint machines: the
    # kind table's every kind is an edge event, a chained circuit is
    # entered by its IVC_OPEN, and the riding bound is read off
    # iplayer.py's constant.
    [table] = model.kind_tables
    assert table.module == "repro.ntcs.message"
    named = {edge.kind for machine in model.machines
             for edge in machine.all_edges()}
    assert set(table.names.values()) <= named
    ivc = next(mach for mach in model.machines if mach.name == "ivc-endpoint")
    assert {(e.event, e.next) for e in ivc.entry} == {
        ("send IVC_OPEN", "OPENING"), ("local direct", "OPEN")}
    assert ivc.bounds == {"OPEN_RIDERS": 1}
    flow = next(mach for mach in model.machines if mach.name == "ivc-flow")
    assert flow.bounds == {"FLOW_PROBE_RETRIES": 3}


def test_only_step_moves_a_circuit_state():
    # ONE008's one allowed site is the one store it finds.
    [row] = [row for row in SOLE_SITES if row.id == "ONE008"]
    assert {(module.name, function) for module, function, _
            in row_sites(Project.load([SRC_TREE]), row)} == row.allowed == {
        ("repro.ntcs.protocol", "step")}


def test_undeclared_step_event_fires_mdl003(tmp_path):
    tree = tmp_path / "repro" / "ntcs"
    tree.mkdir(parents=True)
    (tree / "drifted.py").write_text(
        'from repro.ntcs.protocol import step\n'
        '\n'
        'PROTOCOL_MACHINE = {\n'
        '    "name": "drifted",\n'
        '    "initial": "NEW", "terminal": ("DONE",),\n'
        '    "states": {\n'
        '        "NEW": {"edges": ({"event": "local go", "next": "DONE"},)},\n'
        '        "DONE": {},\n'
        '    },\n'
        '}\n'
        '\n'
        'class Thing:\n'
        '    def go(self, fast):\n'
        '        step(self, "drifted", "local go")\n'
        '        step(self, "drifted", "local go" if fast else "local run")\n'
        '    def finish(self):\n'
        '        step(self, "drifted", "local finish")\n'
    )
    findings = analyze([tmp_path], rule_filter=["model"])
    assert [(f.rule, f.line) for f in findings] == [
        ("MDL003", 15), ("MDL003", 17)], \
        "\n".join(f.render() for f in findings)
    assert "'local run'" in findings[0].message
    assert "'local finish'" in findings[1].message


# ---------------------------------------------------------------------------
# Mutation fixtures: every MDL rule is live, and fires alone
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture, rule", [
    ("mdl001", "MDL001"),   # deleted ack handler
    ("mdl002", "MDL002"),   # dropped timeout edge
    ("mdl003", "MDL003"),   # a wire kind no machine edge names
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
    assert [json.loads(line)
            for line in path.read_text().splitlines()] == log.events


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


def _chaos_reuse_trace(seed: int, tmp_path: Path) -> Path:
    """Clients on m0 in turn, each calling across two gateways and
    dying, so every circuit after the first opens on kept legs
    (PROTOCOL.md §3, "Kept legs") — while net1 drops frames and gwm1
    crashes with gwm0's leg to it parked, and restarts."""
    bed = chain_nets(2, config=NucleusConfig(chaos_seed=seed,
                                             repair_max_attempts=8))
    log = bed.record_wire_trace()
    echo_server(bed, "far.echo", "mEnd")
    bed.settle()
    bed.chaos(ChaosSchedule(seed=seed)
              .add(bed.now + 0.01, "drop_probability", "net1", p=0.2)
              .crash(bed.now + 0.3, "gwm1")
              .restart(bed.now + 0.6, "gwm1")
              .add(bed.now + 0.8, "clear_faults", "net1"))
    for i in range(6):
        client = bed.module(f"client.{i}", "m0")
        try:
            uadd = client.ali.locate("far.echo")
            client.ali.call(uadd, "echo", {"n": i, "text": "again"},
                            timeout=120.0)
        except Exception:
            pass  # a lost call is chaos working; conformance is per-frame
        client.process.kill()
        bed.settle()
    assert sum(gw.legs_reused for gw in bed.gateways.values()) > 0
    return log.dump_jsonl(tmp_path / f"chaos-reuse-{seed}.jsonl")


def test_kept_legs_replay_clean(tmp_path, capsys):
    """An IVC_OPEN on a leg whose previous circuit closed is inside the
    model: the hop's LVC handshake stands.  ``verify --trace`` replays
    the recorded reuse scenario and a chaos run that reuses legs, each
    with frames checked and no finding."""
    reuse = SCENARIOS["reuse_chain2"](None).dump_jsonl(
        tmp_path / "reuse_chain2.jsonl")
    chaos = _chaos_reuse_trace(1, tmp_path)
    assert main(["verify", str(SRC_TREE), "--trace", str(reuse),
                 "--trace", str(chaos)]) == 0
    out = capsys.readouterr().out
    for path in (reuse, chaos):
        findings, checked = replay_trace(str(path), _model())
        assert findings == [] and checked > 0
        assert f"{path}: {checked} NTCS frame(s) checked" in out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_wire_scenario_replays_clean(name, tmp_path):
    """The scripted runs whose wire the netsim fixtures pin step the
    declared machines with no finding."""
    path = SCENARIOS[name](None).dump_jsonl(tmp_path / f"{name}.jsonl")
    findings, checked = replay_trace(str(path), _model())
    assert findings == [] and checked > 0


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


HOSTILE_LINES = ["[1, 2]", '"x"', '{"op": "frame", "args": []}',
                 '{"op": "frame", "args": {"frames": [7]}}']


@pytest.mark.parametrize("line", HOSTILE_LINES,
                         ids=["list", "string", "args-list", "frame-not-hex"])
def test_a_hostile_trace_line_is_a_trc002_finding(line, tmp_path):
    """A line that is not a frame event the checker can read is a
    finding, never a traceback."""
    path = tmp_path / "hostile.jsonl"
    path.write_text(line + "\n")
    findings, checked = replay_trace(str(path), _model())
    assert checked == 0
    assert [(f.rule, f.line) for f in findings] == [("TRC002", 1)] * 2
    assert "not a frame event" in findings[0].message
    assert "no NTCS frames" in findings[1].message


@pytest.mark.parametrize("fmt", ["json", "sarif"])
def test_verify_cli_reports_hostile_trace_lines(fmt, tmp_path, capsys):
    """The report still comes out in the requested format."""
    path = tmp_path / "hostile.jsonl"
    path.write_text("".join(line + "\n" for line in HOSTILE_LINES))
    assert main(["verify", str(SRC_TREE), "--trace", str(path),
                 "--format", fmt]) == 1
    report = json.loads(capsys.readouterr().out)
    if fmt == "sarif":
        rules = [r["ruleId"] for r in report["runs"][0]["results"]]
    else:
        rules = [f["rule"] for f in report]
    assert rules == ["TRC002"] * (len(HOSTILE_LINES) + 1)


def test_verify_cli_prints_the_edges_no_frame_took(tmp_path, capsys):
    """After the replay, every send/recv edge of the stepped machines
    that no frame of any trace took is printed; it is not a finding."""
    path = tmp_path / "answered.jsonl"
    path.write_text("\n".join(_opening(_request(1))) + "\n")
    assert main(["verify", str(SRC_TREE), "--trace", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "no frame took" in line] == [
        "ntcsverify: no frame took ivc-endpoint OPENING --recv DATA--> OPENING",
        "ntcsverify: no frame took ivc-endpoint OPENING "
        "--recv IVC_OPEN_NAK--> FAILED",
        "ntcsverify: no frame took ivc-endpoint OPENING "
        "--recv IVC_CLOSE--> FAILED",
        "ntcsverify: no frame took ivc-endpoint OPEN --send DATA--> OPEN",
        "ntcsverify: no frame took ivc-endpoint OPEN --recv DATA--> OPEN",
        "ntcsverify: no frame took ivc-endpoint OPEN --recv IVC_CLOSE--> CLOSED",
        "ntcsverify: no frame took ivc-endpoint OPEN --send IVC_CLOSE--> CLOSED",
        "ntcsverify: no frame took lvc HELLO_SENT "
        "--send DATA rides_open--> HELLO_SENT",
    ]
    assert lines[-1] == "ntcslint: clean"


def test_the_far_end_closing_a_chained_circuit_replays_clean(tmp_path):
    """The destination's IP-Layer closes a chained circuit with notify:
    its IVC_CLOSE travels back hop by hop, and each hop's opener takes
    ``OPEN --recv IVC_CLOSE--> CLOSED``."""
    bed = chain_nets(2)
    log = bed.record_wire_trace()
    server = echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    ip = server.nucleus.ip
    [circuit] = [ivc for ivc in ip._by_lvc.values()
                 if ivc.peer_addr == client.nucleus.self_addr]
    assert not circuit.direct
    ip.close(circuit, "done", notify=True)
    bed.settle()
    assert not [ivc for ivc in client.nucleus.ip._by_lvc.values()
                if ivc.peer_addr == uadd]
    model = _model()
    taken = set()
    findings, checked = replay_trace(
        str(log.dump_jsonl(tmp_path / "far-close.jsonl")), model, taken)
    assert findings == [] and checked > 0
    untaken = untaken_edges(model, taken)
    assert "ivc-endpoint OPEN --recv IVC_CLOSE--> CLOSED" not in untaken


def test_a_destination_dying_mid_open_fails_the_open(tmp_path):
    """The destination dies after the gateway has spliced and forwarded
    its IVC_OPEN, but before it answers: the gateway's fault handler
    sends IVC_CLOSE upstream (Sec. 4.3), the originator's open fails
    with a typed AddressFault, and its hop takes ``OPENING --recv
    IVC_CLOSE--> FAILED``."""
    bed = chain_nets(1)
    log = bed.record_wire_trace()
    server = echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    splices = bed.gateways["gwm0"]._splices
    spliced = []

    def die_instead_of_answering(ivc, msg):
        spliced.append((client.nucleus.self_addr, uadd) in {
            (lvc.peer_addr, leg.other.lvc.peer_addr)
            for lvc, leg in splices.items()})
        bed.scheduler.call_soon(server.process.kill)

    server.nucleus.ip._on_ivc_open_as_endpoint = die_instead_of_answering
    with pytest.raises(AddressFault, match="closed by remote"):
        client.nucleus.ip.open_ivc(uadd)
    assert spliced == [True]
    model = _model()
    taken = set()
    findings, checked = replay_trace(
        str(log.dump_jsonl(tmp_path / "dies-mid-open.jsonl")), model, taken)
    assert findings == [] and checked > 0
    assert ("ivc-endpoint OPENING --recv IVC_CLOSE--> FAILED"
            not in untaken_edges(model, taken))


# ---------------------------------------------------------------------------
# The riding edge: a call rides its circuit's open (PROTOCOL.md §3)
# ---------------------------------------------------------------------------

A, B = Address(1), Address(2)


def _hop_event(sender, receiver, msg, network="net0"):
    frame = msg.encode()
    return json.dumps({
        "at": 0.0, "op": "frame", "target": network,
        "args": {"src": sender, "dst": receiver, "protocol": "tcp",
                 "size": 64, "dropped": False,
                 "frames": [(shift_encode_u32s([len(frame)]) + frame).hex()]},
    })


def _lvc_up(sender, receiver, network="net0"):
    return [_hop_event(sender, receiver,
                       m.Msg(kind=m.LVC_HELLO, src=A, dst=B), network),
            _hop_event(receiver, sender,
                       m.Msg(kind=m.LVC_HELLO_ACK, src=B, dst=A), network)]


def _request(corr_id, flags=m.FLAG_REPLY_EXPECTED | m.FLAG_RIDES_OPEN):
    return m.Msg(kind=m.DATA, src=A, dst=B, flags=flags, corr_id=corr_id,
                 body=b"request")


def _replay_lines(tmp_path, lines):
    path = tmp_path / "riding.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return [f.rule for f in replay_trace(str(path), _model())[0]]


def _opening(*riders):
    """client opens a circuit from A to B through gw, with ``riders``
    sent behind the IVC_OPEN, and gw answers with the ACK."""
    return (_lvc_up("client", "gw")
            + [_hop_event("client", "gw", m.Msg(kind=m.IVC_OPEN, src=A, dst=B))]
            + [_hop_event("client", "gw", rider) for rider in riders]
            + [_hop_event("gw", "client",
                          m.Msg(kind=m.IVC_OPEN_ACK, src=B, dst=A))])


def test_one_request_riding_an_open_conforms(tmp_path):
    """A request behind its IVC_OPEN, sent twice as a retransmitted
    segment is, is one rider."""
    rider = _request(1)
    assert _replay_lines(tmp_path, _opening(rider, rider)) == []


@pytest.mark.parametrize("riders", [
    (_request(1), _request(2)),
], ids=["two-requests"])
def test_more_than_a_request_before_the_answer_fires_trc003(riders, tmp_path):
    """The riding edge is bounded by ``OPEN_RIDERS`` (1): a second,
    distinct request behind the same open takes it past its bound."""
    assert _replay_lines(tmp_path, _opening(*riders)) == ["TRC003"]


@pytest.mark.parametrize("rider", [
    _request(1, flags=0),
    _request(1, flags=m.FLAG_REPLY_EXPECTED | m.FLAG_CONNECTIONLESS),
], ids=["one-way", "datagram"])
def test_a_non_request_before_the_answer_fires_trc001(rider, tmp_path):
    """Only a request rides: an OPENING circuit has no edge for any
    other DATA."""
    assert _replay_lines(tmp_path, _opening(rider)) == ["TRC001"]


def _dialling(*riders):
    """client dials gw: an LVC_HELLO with ``riders`` behind it, then the
    answer."""
    return ([_hop_event("client", "gw",
                        m.Msg(kind=m.LVC_HELLO, src=A, dst=B))]
            + [_hop_event("client", "gw", rider) for rider in riders]
            + [_hop_event("gw", "client",
                          m.Msg(kind=m.LVC_HELLO_ACK, src=B, dst=A))])


def test_the_first_frames_riding_a_hello_conform(tmp_path):
    """A direct call's request, or a chained circuit's IVC_OPEN and the
    request behind it, rides the LVC_HELLO (PROTOCOL.md §3); plain DATA
    follows the answer."""
    after = [_hop_event("client", "gw",
                        _request(3, flags=m.FLAG_REPLY_EXPECTED))]
    assert _replay_lines(tmp_path, _dialling(_request(1)) + after) == []
    assert _replay_lines(tmp_path, _dialling(
        m.Msg(kind=m.IVC_OPEN, src=A, dst=B), _request(1))
        + [_hop_event("gw", "client",
                      m.Msg(kind=m.IVC_OPEN_ACK, src=B, dst=A))]
        + after) == []


@pytest.mark.parametrize("first", [
    (), (m.Msg(kind=m.IVC_OPEN, src=A, dst=B),),
], ids=["direct", "chained"])
def test_two_requests_behind_one_hello_fire_trc003(first, tmp_path):
    """The lvc riding edge is bounded by ``HELLO_RIDERS`` (1): a second,
    distinct request behind the same LVC_HELLO takes it past its
    bound."""
    lines = _dialling(*first, _request(1), _request(2))
    assert _replay_lines(tmp_path, lines) == ["TRC003"]


def test_a_direct_rider_after_the_hello_answer_fires_trc001(tmp_path):
    lines = _dialling() + [_hop_event("client", "gw", _request(1))]
    assert _replay_lines(tmp_path, lines) == ["TRC001"]


def test_data_after_the_answer_is_not_riding(tmp_path):
    lines = _opening(_request(1)) + [
        _hop_event("client", "gw", _request(2, flags=m.FLAG_REPLY_EXPECTED))]
    assert _replay_lines(tmp_path, lines) == []


def test_a_rider_after_the_answer_fires_trc001(tmp_path):
    """A request marked as riding the open after the open was answered:
    the riding edge leaves OPENING only."""
    lines = _opening(_request(1)) + [_hop_event("client", "gw", _request(2))]
    assert _replay_lines(tmp_path, lines) == ["TRC001"]


def test_an_answer_with_no_open_on_its_hop_fires_trc001(tmp_path):
    lines = _lvc_up("client", "gw") + [
        _hop_event("gw", "client", m.Msg(kind=m.IVC_OPEN_ACK, src=B, dst=A))]
    assert _replay_lines(tmp_path, lines) == ["TRC001"]


def test_a_straggler_on_a_taken_leg_conforms(tmp_path):
    """A kept leg's peer may still send a frame of the circuit that last
    used it after the next IVC_OPEN went out on it (PROTOCOL.md §3,
    "Kept legs"): the gateway drops it, and OPENING receives it."""
    lines = (_lvc_up("gw", "server")
             + [_hop_event("gw", "server", m.Msg(kind=m.IVC_OPEN, src=A, dst=B)),
                _hop_event("server", "gw", m.Msg(
                    kind=m.DATA, src=B, dst=A, flags=m.FLAG_IS_REPLY)),
                _hop_event("server", "gw",
                           m.Msg(kind=m.IVC_OPEN_ACK, src=B, dst=A))])
    assert _replay_lines(tmp_path, lines) == []


def test_a_resent_open_after_its_answer_conforms(tmp_path):
    """TCP lost the acknowledgement of the segment carrying an IVC_OPEN
    and sends the same bytes again after the IVC_OPEN_ACK arrived: the
    hop keeps its OPEN state, so its next plain DATA conforms."""
    opening = m.Msg(kind=m.IVC_OPEN, src=A, dst=B)
    lines = (_lvc_up("gw", "server")
             + [_hop_event("gw", "server", opening),
                _hop_event("server", "gw",
                           m.Msg(kind=m.IVC_OPEN_ACK, src=B, dst=A)),
                _hop_event("gw", "server", opening),
                _hop_event("gw", "server",
                           _request(1, flags=m.FLAG_REPLY_EXPECTED))])
    assert _replay_lines(tmp_path, lines) == []


def _refused_open(rider):
    """gw NAKs client's open, after the request that rode it."""
    return (_lvc_up("client", "gw") + _lvc_up("gw", "server", "net1") + [
        _hop_event("client", "gw", m.Msg(kind=m.IVC_OPEN, src=A, dst=B)),
        _hop_event("client", "gw", rider),
        _hop_event("gw", "client", m.Msg(kind=m.IVC_OPEN_NAK,
                                         src=Address(9), dst=A)),
    ])


def test_rider_spliced_past_a_nak_fires_trc001(tmp_path):
    """gw NAKs the open, then sends the request that rode it on toward
    the destination: refused, yet spliced, on a hop with no open, where
    the rider has no edge.  After the next IVC_OPEN for that
    destination reaches gw and gw forwards it, the same bytes may go
    on."""
    rider = _request(1)
    spliced = _hop_event("gw", "server", rider, "net1")
    assert _replay_lines(tmp_path, _refused_open(rider) + [spliced]) == [
        "TRC001"]
    reopened = [_hop_event("client", "gw", m.Msg(kind=m.IVC_OPEN, src=A, dst=B)),
                _hop_event("client", "gw", rider),
                _hop_event("gw", "server",
                           m.Msg(kind=m.IVC_OPEN, src=A, dst=B), "net1")]
    assert _replay_lines(
        tmp_path, _refused_open(rider) + reopened + [spliced]) == []


def test_a_rider_sent_on_with_no_open_on_its_hop_fires_trc001(tmp_path):
    """The reopen with the rider spliced onto a hop the IVC_OPEN never
    reached."""
    rider = _request(1)
    reopened = [_hop_event("client", "gw", m.Msg(kind=m.IVC_OPEN, src=A, dst=B)),
                _hop_event("client", "gw", rider),
                _hop_event("gw", "server", rider, "net1")]
    assert _replay_lines(tmp_path, _refused_open(rider) + reopened) == [
        "TRC001"]


def _cold_contact_trace(tmp_path, monkeypatch):
    """A warm-up and a cold contact from each end of the sharded chain:
    each newcomer registers, locates the echo server at the other end,
    calls it and dies — every chained first call rides its open.  Each
    network is traced from its creation, so the naming fleet's own
    handshakes are on the record too."""
    log = NetTraceLog()
    create = Testbed.network

    def traced_network(bed, *args, **kwargs):
        network = create(bed, *args, **kwargs)
        log.attach(network)
        return network

    monkeypatch.setattr(Testbed, "network", traced_network)
    bed, _groups = sharded_chain(hops=2, shards=2, replicas=2)
    servers = {"mEnd": "near.echo", "m0": "far.echo"}
    echo_server(bed, "near.echo", "m0")
    echo_server(bed, "far.echo", "mEnd")
    bed.settle()
    for round_name in ("warm", "new"):
        for machine, server in servers.items():
            newcomer = bed.module(f"{round_name}.{machine}", machine)
            uadd = newcomer.ali.locate(server)
            newcomer.ali.call(uadd, "echo", {"n": 1, "text": "x"})
            newcomer.process.kill()
            bed.settle()
    return log.dump_jsonl(tmp_path / "cold-contact.jsonl")


def _riders(path):
    """(line index, frame index) of every frame that rode an open."""
    found = []
    for index, line in enumerate(path.read_text().splitlines()):
        for slot, blob in enumerate(json.loads(line)["args"]["frames"]):
            frame = bytes.fromhex(blob)[4:]
            if (len(frame) >= m.HEADER_BYTES and m.HeaderView(frame).flags
                    & m.FLAG_RIDES_OPEN):
                found.append((index, slot))
    return found


def test_cold_contact_wire_replays_clean_and_its_mutation_fires(
        tmp_path, capsys, monkeypatch):
    """The recorded cold-contact wire passes ``verify --trace`` with its
    riders checked, and takes both of the LVC_HELLO's riding edges.
    Duplicating the first rider as a second, distinct request on the
    same hop (another correlation id) fires TRC003."""
    path = _cold_contact_trace(tmp_path, monkeypatch)
    riders = _riders(path)
    assert riders
    assert main(["verify", str(SRC_TREE), "--trace", str(path)]) == 0
    untaken = [line for line in capsys.readouterr().out.splitlines()
               if "no frame took" in line]
    assert untaken and not any("HELLO_SENT --send" in line
                               for line in untaken)
    lines = path.read_text().splitlines()
    index, slot = riders[0]
    event = json.loads(lines[index])
    blob = bytes.fromhex(event["args"]["frames"][slot])
    second = m.Msg.decode(blob[4:])
    second.corr_id += 1000
    frame = second.encode()
    event["args"]["frames"] = [
        (shift_encode_u32s([len(frame)]) + frame).hex()]
    mutated = tmp_path / "cold-contact-two-riders.jsonl"
    mutated.write_text("\n".join(
        lines[:index + 1] + [json.dumps(event)] + lines[index + 1:]) + "\n")
    findings, _checked = replay_trace(str(mutated), _model())
    assert [f.rule for f in findings] == ["TRC003"]
    assert main(["verify", str(SRC_TREE), "--trace", str(mutated)]) == 1
    assert "TRC003" in capsys.readouterr().out
