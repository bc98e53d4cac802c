"""Unit tests for the debugging utilities: LayerTracer (Sec. 6.2) and
the metric stores of :mod:`repro.util.counters`."""

import pytest

from deployments import echo_server, single_net
from repro.errors import DeadlockError
from repro.naming import server  # noqa: F401  (declares the per-request counts)
from repro.ntcs.address import Address
from repro.ntcs.nucleus import NucleusConfig
from repro.util import Counters, LayerTracer, NullTracer
from repro.util.counters import (
    CATALOGUE, HIGH_WATER, LVC_RX_QUEUE_HIGH_WATER, NAME_SERVER, ND_MESSAGES_SENT,
    ND_OPEN_RETRIES, NUCLEUS, REGISTRY, REPAIR_BACKOFF_BUCKETS, TOPOLOGY_QUERIES,
)
from repro.util.idgen import SequenceGenerator


# -- SequenceGenerator --------------------------------------------------------

def test_sequence_generator():
    gen = SequenceGenerator()
    assert gen.last == 0
    assert [gen.next() for _ in range(3)] == [1, 2, 3]
    assert gen.last == 3
    gen10 = SequenceGenerator(10)
    assert gen10.next() == 10


# -- Counters ---------------------------------------------------------------

def test_counters_undeclared_name_raises():
    counters = Counters(NUCLEUS)
    with pytest.raises(KeyError):
        counters["nd_mesages_sent"]
    with pytest.raises(KeyError):
        counters["nd_mesages_sent"] += 1
    with pytest.raises(KeyError):  # declared, but for another owner
        counters["pack_calls"]


def test_counters_declared_untouched_reads_zero():
    counters = Counters(NUCLEUS)
    assert counters[ND_MESSAGES_SENT] == 0
    assert ND_MESSAGES_SENT not in counters
    assert counters.snapshot() == {}
    assert list(counters) == []


def test_counters_snapshot_holds_touched_names_only():
    counters = Counters(NUCLEUS)
    counters[TOPOLOGY_QUERIES] += 1
    counters[ND_MESSAGES_SENT] += 4
    counters[ND_MESSAGES_SENT] += 1
    assert counters["nd_messages_sent"] == 5
    assert ND_MESSAGES_SENT in counters and ND_OPEN_RETRIES not in counters
    assert counters.snapshot() == {"nd_messages_sent": 5, "topology_queries": 1}
    assert list(counters) == [("nd_messages_sent", 5), ("topology_queries", 1)]


def test_each_owner_store_holds_exactly_its_declared_metrics():
    for owner in (NUCLEUS, REGISTRY, NAME_SERVER):
        declared = {m.name for m in CATALOGUE.values() if m.owner == owner}
        assert set(Counters(owner).keys()) == declared
    assert "ns_resolve_name" in Counters(NAME_SERVER).keys()


def test_high_water_metric_keeps_its_maximum():
    bed = single_net()
    prod = bed.module("hw.prod", "vax1")
    cons = bed.module("hw.cons", "sun1")
    for i in range(3):
        prod.ali.send(cons.ali.uadd, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    for _ in range(3):
        cons.ali.receive(timeout=1.0)
    prod.ali.send(cons.ali.uadd, "numbers", {"a": 3, "b": 0, "big": 0})
    bed.settle()
    assert cons.ali.queued() == 1
    assert cons.nucleus.counters[LVC_RX_QUEUE_HIGH_WATER] == 3
    assert CATALOGUE[LVC_RX_QUEUE_HIGH_WATER].kind == HIGH_WATER


def test_repair_rounds_from_eight_on_land_in_the_last_bucket():
    bed = single_net()
    module = bed.module("repairer", "vax1")
    for round_no in (1, 2, 8, 9, 30):
        module.nucleus.lcm._repair_backoff(round_no, module.ali.uadd,
                                           RuntimeError("injected"))
    counters = module.nucleus.counters
    assert [counters[name] for name in REPAIR_BACKOFF_BUCKETS] == \
        [1, 1, 0, 0, 0, 0, 0, 3]


# -- LayerTracer ------------------------------------------------------------

def _record_some(tracer):
    tracer.record("mod", "ALI", "send", "enter", caller="application",
                  reason="echo", depth=1)
    tracer.record("mod", "LCM", "send", "enter", caller="ALI",
                  reason="echo", depth=2)
    tracer.record("mod", "LCM", "send", "exit", caller="ALI",
                  reason="echo", depth=2)
    tracer.record("mod", "ALI", "send", "exit", caller="application",
                  reason="echo", depth=1)


def test_tracer_records_and_sequences():
    clock_value = [0.5]
    tracer = LayerTracer(clock=lambda: clock_value[0])
    _record_some(tracer)
    assert [(r.layer, r.phase) for r in tracer.records] == [
        ("ALI", "enter"), ("LCM", "enter"), ("LCM", "exit"), ("ALI", "exit")]
    assert tracer.max_depth() == 2
    assert all(r.time == 0.5 for r in tracer.records)
    tracer.clear()
    assert tracer.records == []
    assert tracer.max_depth() == 0


def test_tracer_layer_filter():
    tracer = LayerTracer(layers={"LCM"})
    _record_some(tracer)
    assert {r.layer for r in tracer.records} == {"LCM"}


def test_tracer_operation_filter():
    tracer = LayerTracer(operations={"open"})
    _record_some(tracer)
    assert tracer.records == []
    tracer.record("mod", "ND", "open", "enter")
    assert len(tracer.records) == 1


def test_tracer_format_is_indented_and_readable():
    tracer = LayerTracer()
    _record_some(tracer)
    text = tracer.format()
    lines = text.splitlines()
    assert len(lines) == 4
    assert "-> mod:ALI.send" in lines[0]
    assert "caller=application" in lines[0]
    assert "<- mod:LCM.send" in lines[2]
    # Depth-2 lines are indented deeper than depth-1 lines.
    assert lines[1].index("->") > lines[0].index("->")


def test_null_tracer_is_inert():
    tracer = NullTracer()
    tracer.record("mod", "ALI", "send", "enter")
    assert tracer.records == []
    assert tracer.max_depth() == 0
    assert tracer.format() == ""
    assert not tracer.enabled
    tracer.clear()


# -- labels built only when read ---------------------------------------------

def _formatted_addresses(monkeypatch):
    """A list that grows by one each time an ``Address`` is formatted."""
    formatted = []
    as_text = Address.__str__

    def counting(addr):
        formatted.append(addr)
        return as_text(addr)

    monkeypatch.setattr(Address, "__str__", counting)
    return formatted


def test_an_untraced_first_call_formats_no_address(monkeypatch):
    """Trace reasons and wait labels that name an address are built
    only when read: a first call opens its circuits and waits on its
    reply without formatting one."""
    bed = single_net()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    bed.settle()
    formatted = _formatted_addresses(monkeypatch)
    uadd = client.ali.locate("dest")
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    assert reply.values["text"] == "X"
    assert formatted == []


def test_traced_opens_and_deadlocked_waits_name_the_address():
    """An installed tracer gets the labels, and a wait that can never
    end names what it waited for."""
    bed = single_net(config=NucleusConfig(trace=True))
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    nucleus = client.nucleus
    uadd = client.ali.locate("dest")
    nucleus.ip.open_ivc(uadd)
    nucleus.nd.open_lvc(uadd, nucleus.addr_cache.lookup(uadd).blob)
    reasons = {(r.layer, r.reason) for r in nucleus.tracer.records
               if r.operation == "open"}
    assert {("IP", f"ivc to {uadd}"), ("ND", f"open to {uadd}")} <= reasons
    with pytest.raises(DeadlockError, match=f"reply from {uadd}"):
        bed.scheduler.pump_until(lambda: False,
                                 what=lambda: f"reply from {uadd}")
