"""Focused tests for LCM-Layer mechanics: forwarding chains, call
handles, connectionless behaviour, queue semantics."""

import pytest

from deployments import echo_server, single_net
from repro.errors import DestinationUnavailable, ReplyTimeout
from repro.ntcs.address import make_uadd


@pytest.fixture
def bed():
    return single_net()


def test_forwarding_chain_followed_transitively(bed):
    client = bed.module("client", "vax1")
    lcm = client.nucleus.lcm
    a, b, c = make_uadd(101), make_uadd(102), make_uadd(103)
    lcm.forwarding[a] = b
    lcm.forwarding[b] = c
    assert lcm._follow_forwarding(a) == c
    assert lcm._follow_forwarding(b) == c
    assert lcm._follow_forwarding(c) == c


def test_forwarding_cycle_detected(bed):
    client = bed.module("client", "vax1")
    lcm = client.nucleus.lcm
    a, b = make_uadd(101), make_uadd(102)
    lcm.forwarding[a] = b
    lcm.forwarding[b] = a
    with pytest.raises(DestinationUnavailable, match="cycle"):
        lcm._follow_forwarding(a)


def test_rekey_route_moves_forwarding_too(bed):
    client = bed.module("client", "vax1")
    lcm = client.nucleus.lcm
    from repro.ntcs.address import Address
    tadd = Address(value=5, temporary=True)
    target = make_uadd(200)
    lcm.forwarding[tadd] = target
    real = make_uadd(201)
    lcm.rekey_route(tadd, real)
    assert lcm.forwarding == {real: target}


def test_call_handle_states(bed):
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    handle = client.ali.call_async(uadd, "echo", {"n": 1, "text": "x"})
    assert not handle.ready
    reply = handle.result(timeout=2.0)
    assert handle.ready
    assert reply.values["text"] == "X"


def test_call_handle_timeout(bed):
    silent = bed.module("silent", "sun1")  # no handler: requests queue
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("silent")
    handle = client.ali.call_async(uadd, "echo", {"n": 1, "text": "x"})
    with pytest.raises(ReplyTimeout):
        handle.result(timeout=0.3)


def test_call_handle_error_on_peer_death(bed):
    victim = bed.module("victim", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("victim")
    handle = client.ali.call_async(uadd, "echo", {"n": 1, "text": "x"})
    victim.process.kill()
    bed.settle()
    with pytest.raises(DestinationUnavailable):
        handle.result(timeout=1.0)


def test_receive_queue_fifo(bed):
    sink = bed.module("sink", "sun1")
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("sink")
    for i in range(5):
        src.ali.send(uadd, "echo", {"n": i, "text": ""})
    bed.settle()
    got = [sink.ali.receive(timeout=0.1).values["n"] for _ in range(5)]
    assert got == [0, 1, 2, 3, 4]
    assert sink.nucleus.lcm.queued() == 0


def test_handler_bypasses_queue(bed):
    handled = []
    sink = bed.module("sink", "sun1")
    sink.ali.set_request_handler(lambda m: handled.append(m.values["n"]))
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("sink")
    src.ali.send(uadd, "echo", {"n": 7, "text": ""})
    bed.settle()
    assert handled == [7]
    assert sink.nucleus.lcm.queued() == 0
    # Removing the handler restores queueing.
    sink.ali.set_request_handler(None)
    src.ali.send(uadd, "echo", {"n": 8, "text": ""})
    bed.settle()
    assert sink.nucleus.lcm.queued() == 1


def test_orphan_reply_counted_not_crashing(bed):
    """A reply whose correlation id no longer matches any pending call
    (e.g. after a timeout) must be dropped gracefully."""
    slow = bed.module("slow", "sun1")

    def handle_later(request):
        slow.nucleus.scheduler.schedule(
            1.0, lambda: slow.ali.reply(request, "echo", {
                "n": request.values["n"], "text": "late"}))

    slow.ali.set_request_handler(handle_later)
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("slow")
    with pytest.raises(ReplyTimeout):
        client.ali.call(uadd, "echo", {"n": 1, "text": "x"}, timeout=0.2)
    bed.settle()  # the late reply arrives now
    assert client.nucleus.counters["lcm_orphan_replies"] == 1


def test_undecodable_message_counted_not_crashing(bed):
    """A message whose type id is unknown at the receiver is logged and
    dropped, not fatal (the registry mismatch case)."""
    from repro.conversion import Field, StructDef

    sink = bed.module("sink", "sun1")
    src = bed.module("src", "vax1")
    # Register a type only the sender knows.
    private = StructDef("private_type", 999, [Field("x", "u32")])
    src_entry = bed.registry  # shared registry in the testbed...
    # Simulate the mismatch by sending a type id the receiver's decode
    # path will reject: craft a raw DATA message with a bogus type id.
    uadd = src.ali.locate("sink")
    src.ali.send(uadd, "echo", {"n": 1, "text": "good"})
    bed.settle()
    # Now inject a corrupted body directly through the send path.
    lcm = src.nucleus.lcm
    ivc = lcm._routes[uadd]
    from repro.ntcs import message as m
    bogus = m.Msg(kind=m.DATA, src=src.address, dst=uadd,
                  flags=m.FLAG_PACKED, type_id=9999, corr_id=0,
                  body=b"garbage")
    src.nucleus.ip.send_raw(ivc, bogus)
    bed.settle()
    assert sink.nucleus.counters["lcm_undecodable_messages"] == 1
    assert sink.nucleus.error_log  # logged for the Sec. 6.3 error table
    # The good message is still there; the module survived.
    assert sink.ali.receive(timeout=0.1).values["n"] == 1


def test_datagram_flag_visible_to_receiver(bed):
    sink = bed.module("sink", "sun1")
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("sink")
    src.ali.datagram(uadd, "echo", {"n": 1, "text": ""})
    bed.settle()
    message = sink.ali.receive(timeout=0.1)
    assert message.connectionless
    assert not message.reply_expected


def test_faulted_target_memory_is_bounded_oldest_first(bed):
    """A server sees the circuits of far more clients die than it will
    ever send to again: the repair bookkeeping forgets the oldest
    faults once FAULTED_LIMIT is reached instead of growing with every
    client that ever came and went."""
    server = echo_server(bed, "dest", "sun1")
    lcm = server.nucleus.lcm
    limit = lcm.FAULTED_LIMIT
    for i in range(limit + 40):
        client = bed.module(f"c.{i}", "vax1")
        client.ali.call(server.ali.uadd, "echo", {"n": i, "text": "x"})
        client.process.kill()
        bed.settle()
    assert len(lcm._faulted_targets) == limit
    # The survivors are the most recent faults, in fault order.
    newest = bed.modules[f"c.{limit + 39}"].ali.uadd
    assert list(lcm._faulted_targets)[-1] == newest
    assert bed.modules["c.0"].ali.uadd not in lcm._faulted_targets
