"""Call-count budgets for the two hot paths an application feels.

Each test profiles a fixed, deterministic script with :mod:`cProfile`
and counts the calls of Python functions whose source file is under
``src/repro``: the Nucleus, the simulated IPCSs and netsim, nothing from
the standard library or the test harness.  Comprehension frames are left
out, because Python 3.12 inlines them (PEP 709) where 3.9 and 3.11 do
not; what is counted is then the same on every interpreter CI runs.

The ceiling is the count measured when the budget was set, so a change
that adds a call to either path fails here and has to raise the ceiling
in the same commit, saying why.  A change that removes calls lowers it.
"""

import cProfile
import os

import repro
from deployments import chain_nets, echo_server, two_nets

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _repro_calls(run) -> int:
    """Python calls into ``src/repro`` while ``run()`` runs."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    return sum(
        entry.callcount for entry in profiler.getstats()
        if not isinstance(entry.code, str)
        and entry.code.co_filename.startswith(_REPRO_DIR)
        and entry.code.co_name not in _COMPREHENSIONS)


def test_echo_call_across_three_gateways_budget():
    """One ``ali.call`` echo across ``chain_nets(3)``, 100 calls after 20
    warm-up calls: 79,400 -> 63,600 calls into ``src/repro`` (794.0 ->
    636.0 per call).  The drop is the per-message diet: a ``Msg`` built
    without its invalidation hook, header codecs bound once, a
    ``Nucleus.enter`` with no tracer call when tracing is off, a call
    that waits on a flag, ``Field.is_char`` decided at definition and
    a lossless network that skips its fault plan.  Then 63,600 -> 63,200
    (632.0 per call): ``LcmLayer.send`` builds its monitor record, and
    the ``str`` of its target, only when a monitor is active.  Then
    63,200 -> 60,200 (602.0 per call): a spliced frame is one gateway
    call that reads each header word it needs once, not a lambda, a
    forwarder and a credit check reading the kind up to four times."""
    bed = chain_nets(3)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    dst = client.ali.locate("far.echo")
    for n in range(20):
        client.ali.call(dst, "echo", {"n": n, "text": "warm"})

    def calls():
        for n in range(100):
            reply = client.ali.call(dst, "echo", {"n": n, "text": "budget"})
            assert reply.values == {"n": n, "text": "BUDGET"}

    assert _repro_calls(calls) <= 60_200


def test_one_way_8k_stream_through_a_gateway_budget():
    """64 one-way 8 KiB sends from ``vax1`` (Ethernet, tcp) to a sink on
    ``apollo1`` (ring, mbx) through ``gw1`` on ``two_nets()``, drained
    with ``settle()``, after 8 warm-up sends: 11,465 -> 8,967 calls into
    ``src/repro`` (179.1 -> 140.1 per message), then 8,967 -> 8,839
    (138.1 per message) with the monitor record built only for an
    active monitor, then 8,839 -> 8,519 (133.1 per message) with a
    spliced frame forwarded in one gateway call."""
    bed = two_nets()
    sink = bed.module("sink", "apollo1")
    received = []
    sink.ali.set_request_handler(lambda message: received.append(
        message.values["seq"]))
    producer = bed.module("producer", "vax1")
    dst = producer.ali.locate("sink")
    body = bytes(range(256)) * 32
    for seq in range(8):
        producer.ali.send(dst, "bulk", {"seq": seq, "data": body})
    bed.settle()

    def sends():
        for seq in range(8, 72):
            producer.ali.send(dst, "bulk", {"seq": seq, "data": body})
        bed.settle()

    assert _repro_calls(sends) <= 8_519
    assert received == list(range(72))
