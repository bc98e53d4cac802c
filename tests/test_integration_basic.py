"""Integration tests: the application-level primitives end to end on a
single network (paper Secs. 1.3, 2.4, 3.2–3.3)."""

import pytest

from deployments import echo_server, single_net
from repro import NAME_SERVER_UADD
from repro.errors import (
    BadParameter,
    DestinationUnavailable,
    NoSuchName,
    ReplyTimeout,
)


@pytest.fixture
def bed():
    return single_net()


def test_register_assigns_uadd(bed):
    commod = bed.module("worker.1", "sun1")
    assert commod.ali.uadd is not None
    assert not commod.ali.uadd.temporary
    assert commod.address == commod.ali.uadd


def test_locate_then_call(bed):
    echo_server(bed, "echo.server", "sun1")
    client = bed.module("client.1", "vax1")
    uadd = client.ali.locate("echo.server")
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "hi"})
    assert reply.values == {"n": 1, "text": "HI"}
    assert reply.is_reply if hasattr(reply, "is_reply") else True


def test_locate_unknown_name(bed):
    client = bed.module("client.1", "vax1")
    with pytest.raises(NoSuchName):
        client.ali.locate("nobody.home")


def test_async_send_and_polling_receive(bed):
    receiver = bed.module("sink.1", "sun1")
    sender = bed.module("source.1", "vax1")
    uadd = sender.ali.locate("sink.1")
    sender.ali.send(uadd, "echo", {"n": 5, "text": "async"})
    message = receiver.ali.receive(timeout=2.0)
    assert message.values["n"] == 5
    assert message.src == sender.ali.uadd


def test_receive_timeout(bed):
    receiver = bed.module("sink.1", "sun1")
    with pytest.raises(ReplyTimeout):
        receiver.ali.receive(timeout=0.5)


def test_send_receive_reply_cycle_by_hand(bed):
    """The synchronous primitives without a handler: an async call on
    the client side, receive + reply by hand on the server side."""
    server = bed.module("manual.server", "sun1")
    client = bed.module("client.1", "vax1")
    uadd = client.ali.locate("manual.server")
    handle = client.ali.call_async(uadd, "echo", {"n": 41, "text": "x"})
    assert not handle.ready
    request = server.ali.receive(timeout=2.0)
    assert request.reply_expected
    server.ali.reply(request, "echo", {"n": request.values["n"] + 1,
                                       "text": "manual"})
    reply = handle.result(timeout=2.0)
    assert reply.values["n"] == 42


def test_bidirectional_circuit_reuse(bed):
    """Once A talked to B, B can send to A over the same circuit
    without any naming-service traffic."""
    a = echo_server(bed, "a", "sun1")
    b = bed.module("b", "vax1")
    uadd_a = b.ali.locate("a")
    b.ali.call(uadd_a, "echo", {"n": 1, "text": "warm"})
    circuits_before = a.nucleus.ip.open_ivc_count()
    a.ali.send(b.ali.uadd, "echo", {"n": 2, "text": "reverse"})
    message = b.ali.receive(timeout=1.0)
    assert message.values["n"] == 2
    assert a.nucleus.ip.open_ivc_count() == circuits_before  # reused


def test_many_messages_in_order(bed):
    received = []
    sink = bed.module("sink", "sun1")
    sink.ali.set_request_handler(lambda msg: received.append(msg.values["n"]))
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("sink")
    for i in range(50):
        src.ali.send(uadd, "echo", {"n": i, "text": ""})
    bed.settle()
    assert received == list(range(50))


def test_datagram_best_effort(bed):
    sink = bed.module("sink", "sun1")
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("sink")
    assert src.ali.datagram(uadd, "echo", {"n": 1, "text": "dgram"}) is True
    bed.settle()
    message = sink.ali.receive(timeout=0.5)
    assert message.connectionless
    # To a dead destination the datagram reports failure, no exception.
    sink.process.kill()
    bed.settle()
    assert src.ali.datagram(uadd, "echo", {"n": 2, "text": "x"}) is False


def test_call_to_dead_module_fails_cleanly(bed):
    victim = bed.module("victim", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("victim")
    victim.process.kill()
    bed.settle()
    with pytest.raises(DestinationUnavailable):
        client.ali.call(uadd, "echo", {"n": 1, "text": "x"}, timeout=1.0)


def test_name_server_is_an_ordinary_destination(bed):
    """The naming service is "nothing more than an application built on
    the Nucleus" — modules can call it like any module."""
    client = bed.module("client", "vax1")
    assert client.ali.ping_name_server() is True
    reply = client.nucleus.lcm.call(NAME_SERVER_UADD, "ns_ping", {})
    assert reply.values["ok"] == 1


def test_status_utility(bed):
    commod = bed.module("worker", "sun1")
    status = commod.ali.status()
    assert status["name"] == "worker"
    assert status["machine"] == "sun1"
    assert status["machine_type"] == "Sun-3"
    assert status["recursion_depth"] == 0


# -- ALI parameter checking (the Sec. 2.4 veneer) -------------------------------

def test_ali_rejects_bad_parameters(bed):
    commod = bed.module("checker", "sun1")
    peer = bed.module("peer", "vax1")
    uadd = commod.ali.locate("peer")
    with pytest.raises(BadParameter):
        commod.ali.send("not-an-address", "echo", {})
    with pytest.raises(BadParameter):
        commod.ali.send(uadd, "unregistered_type", {})
    with pytest.raises(BadParameter):
        commod.ali.send(uadd, "echo", values=["not", "a", "dict"])
    with pytest.raises(BadParameter):
        commod.ali.call(uadd, "echo", {}, timeout=-1)
    with pytest.raises(BadParameter):
        commod.ali.locate("")
    with pytest.raises(BadParameter):
        commod.ali.register("again")  # already registered
    with pytest.raises(BadParameter):
        commod.ali.set_request_handler("not callable")


def test_double_name_registration_supersedes(bed):
    first = bed.module("same.name", "sun1")
    second_proc_commod = bed.module("same.name2", "vax1", register=False)
    second_uadd = second_proc_commod.ali.register("same.name")
    ns_db = bed.name_server_instance.db
    assert ns_db.resolve_name("same.name").uadd == second_uadd


def test_unregistered_module_can_still_call(bed):
    """Registration is not a precondition for communication — the
    Name-Server bootstrap itself depends on that (Sec. 3.4)."""
    echo_server(bed, "echo.server", "sun1")
    anon = bed.module("anon", "vax1", register=False)
    assert anon.address.temporary
    uadd = anon.ali.locate("echo.server")
    reply = anon.ali.call(uadd, "echo", {"n": 9, "text": "anon"})
    assert reply.values["text"] == "ANON"
