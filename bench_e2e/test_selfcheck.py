"""Self-check of the benchmark itself.

Not part of tier-1; run from the repo root with
``python -m pytest bench_e2e -q`` (about 15 s: every workload twice
untraced and twice traced at ``--smoke`` scale, each in a subprocess).
"""

from __future__ import annotations

import copy
import json
import os
import re

import pytest

from bench_e2e import HERE, load_catalog
from bench_e2e.suite import _child, compare, is_count
from bench_e2e.trace import LAYERS

CATALOG = load_catalog()
WORKLOADS = [w["name"] for w in CATALOG["workloads"]]
SIMULATED = [w for w in WORKLOADS if w != "rtcp_echo_packed"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SEED = 7


@pytest.fixture(scope="module")
def results() -> dict:
    return {"seed": SEED, "smoke": True, "runs": [
        _child(workload, SEED, 0.0, trace, True)
        for workload in WORKLOADS for trace in (0, 1, 0, 1)]}


def _runs(results: dict, workload: str, trace: int):
    return [run for run in results["runs"]
            if run["workload"] == workload and run["trace"] == trace]


def _value(results: dict, workload: str, name: str) -> float:
    trace = int(name not in {m["name"] for m in CATALOG["end_to_end"]})
    return _runs(results, workload, trace)[0]["metrics"][name]["value"]


def test_catalog_is_well_formed():
    assert set(CATALOG) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert 2 <= len(CATALOG["workloads"]) <= 8
    assert 1 <= len(CATALOG["end_to_end"]) <= 16
    assert 1 <= len(CATALOG["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in
                         CATALOG["end_to_end"] + CATALOG["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in CATALOG["end_to_end"])
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in CATALOG["end_to_end"])


def test_every_op_verified_and_every_metric_in_the_catalog(results):
    for run in results["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert run["detail"]["failed_op_share"] == 0
        wanted = CATALOG["per_layer" if run["trace"] else "end_to_end"]
        assert {name: m["unit"] for name, m in run["metrics"].items()} \
            == {m["name"]: m["unit"] for m in wanted}
    for workload in WORKLOADS:
        for metric in CATALOG["end_to_end"]:
            assert _value(results, workload, metric["name"]) > 0


def test_counts_repeat_exactly_for_one_seed(results):
    assert _value(results, "echo_chain3", "wire_frames_per_op") == 16.0
    for workload in SIMULATED:
        first, second = _runs(results, workload, 0)
        assert first["metrics"]["wire_frames_per_op"] \
            == second["metrics"]["wire_frames_per_op"]
        assert first["detail"]["virtual_ms_per_op"] \
            == second["detail"]["virtual_ms_per_op"]
        first, second = _runs(results, workload, 1)
        for name in (m["name"] for m in CATALOG["per_layer"] if is_count(m)):
            assert first["metrics"][name] == second["metrics"][name], name


def test_layer_rows_sum_to_the_traced_figure(results):
    for workload in WORKLOADS:
        assert 0.95 <= _value(results, workload, "trace.table_coverage") <= 1.05
        rows = sum(_value(results, workload, f"{layer}.self_us_per_op")
                   for layer in LAYERS)
        assert rows == pytest.approx(
            _value(results, workload, "trace.wall_us_per_op"), rel=0.05)
        assert _value(results, workload, "trace.overhead_ratio") > 1


def test_workloads_discriminate_as_predicted(results):
    def self_us(workload):
        return {layer: _value(results, workload, f"{layer}.self_us_per_op")
                for layer in LAYERS}

    for workload in WORKLOADS:
        calls = _value(results, workload, "nsp.calls_per_op")
        assert (calls > 0) == (workload == "cold_contact_sharded")
        assert _value(results, workload, "gateway.inter_gateway_control") == 0
    rtcp = self_us("rtcp_echo_packed")
    assert rtcp["ipcs"] == rtcp["gateway"] == 0
    assert rtcp["netsim"] < 0.05 * sum(rtcp.values())
    assert rtcp["realnet"] > 0
    echo = self_us("echo_chain3")
    assert sorted(echo, key=echo.get)[-2:] == ["ipcs", "netsim"]
    assert echo["realnet"] == 0
    assert _value(results, "echo_chain3", "conversion.pack_calls_per_op") == 0
    assert _value(results, "rtcp_echo_packed",
                  "conversion.pack_calls_per_op") == 2
    assert _value(results, "stream_fanin_2net",
                  "conversion.pack_calls_per_op") == 0.5


def test_span_sample_shows_the_recursion_as_nesting(results):
    """Sec. 6.1: the server's handler runs inside the client's
    ``pump_until``, itself inside the client's ``ali.call``."""
    path = os.path.join(HERE, "results", "trace_echo_chain3.json")
    with open(path, encoding="utf-8") as fh:
        events = json.load(fh)["traceEvents"]
    by_id = {event["args"]["id"]: event for event in events}
    assert {event["args"]["op"] for event in events} >= set(range(50))

    def ancestors(event):
        chain = []
        while event["args"]["parent"] in by_id:
            event = by_id[event["args"]["parent"]]
            chain.append(event["name"])
        return chain

    handlers = [event for event in events
                if event["name"].startswith("driver:echo_server")]
    assert handlers
    for handler in handlers:
        chain = ancestors(handler)
        assert "netsim:Scheduler.pump_until" in chain
        assert chain.index("netsim:Scheduler.pump_until") \
            < chain.index("ali:AliLayer.call")


def test_compare_judges_by_the_bounds(results, capsys):
    assert compare(results, results) == 0
    slower = copy.deepcopy(results)
    for run in _runs(slower, "echo_chain3", 0):
        run["metrics"]["ops_per_s"]["value"] *= 0.5
    assert compare(results, slower) == 1
    assert "worse" in capsys.readouterr().out
    recounted = copy.deepcopy(results)
    for run in _runs(recounted, "echo_chain3", 1):
        run["metrics"]["netsim.py_calls_per_op"]["value"] += 1
    assert compare(results, recounted) == 1
    assert "differs" in capsys.readouterr().out
