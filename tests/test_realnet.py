"""Integration tests: the unmodified portable layers over real OS TCP
sockets (experiment E10's strongest portability evidence)."""

import pytest

from repro import Field, StructDef, SUN3, VAX
from repro.errors import NoSuchName
from repro.realnet import RealDeployment

ECHO = StructDef("real_echo", 120, [Field("n", "u32"), Field("text", "char[32]")])


@pytest.fixture
def deployment():
    deployment = RealDeployment()
    deployment.registry.register(ECHO)
    deployment.machine("vaxish", VAX)
    deployment.machine("sunish", SUN3)
    deployment.name_server("vaxish")
    yield deployment
    deployment.shutdown()


def _echo_server(deployment, name, machine):
    commod = deployment.module(name, machine)

    def handle(request):
        if request.reply_expected:
            commod.ali.reply(request, "real_echo", {
                "n": request.values["n"],
                "text": request.values["text"].upper(),
            })

    commod.ali.set_request_handler(handle)
    return commod


def test_register_locate_call_over_real_sockets(deployment):
    _echo_server(deployment, "echo", "sunish")
    client = deployment.module("client", "vaxish")
    uadd = client.ali.locate("echo")
    reply = client.ali.call(uadd, "real_echo", {"n": 1, "text": "socket"},
                            timeout=5.0)
    assert reply.values == {"n": 1, "text": "SOCKET"}
    # VAX→Sun over real sockets still packs (the conversion layer is
    # substrate-independent).
    assert reply.mode == 1


def test_image_mode_between_like_types_over_real_sockets(deployment):
    deployment.machine("sunish2", SUN3)
    sink = deployment.module("sink", "sunish2")
    received = []
    sink.ali.set_request_handler(lambda m: received.append(m))
    src = deployment.module("src", "sunish")
    uadd = src.ali.locate("sink")
    src.ali.send(uadd, "real_echo", {"n": 0x01020304, "text": "img"})
    deployment.kernel.pump_until(lambda: received, timeout=5.0)
    assert received[0].mode == 0  # image between two Sun-types
    assert received[0].values["n"] == 0x01020304


def test_one_way_burst_over_real_sockets_arrives_in_order(deployment):
    """Back-to-back one-way sends: one ``recv()`` carries several
    messages, and the framing driver hands them up one at a time."""
    sink = deployment.module("sink", "sunish")
    received = []
    sink.ali.set_request_handler(lambda m: received.append(m.values["n"]))
    src = deployment.module("src", "vaxish")
    uadd = src.ali.locate("sink")
    for n in range(20):
        src.ali.send(uadd, "real_echo", {"n": n, "text": "burst"})
    deployment.kernel.pump_until(lambda: len(received) == 20, timeout=5.0)
    assert received == list(range(20))


def test_tadd_purge_over_real_sockets(deployment):
    ns_nucleus = deployment.name_server_instance.nucleus
    commod = deployment.module("worker", "sunish", register=False)
    assert commod.address.temporary
    commod.ali.register("worker")
    commod.ali.ping_name_server()
    assert ns_nucleus.lcm.temporary_route_keys() == 0


def test_locate_unknown_over_real_sockets(deployment):
    client = deployment.module("client", "vaxish")
    with pytest.raises(NoSuchName):
        client.ali.locate("nobody")


def test_many_round_trips(deployment):
    _echo_server(deployment, "echo", "sunish")
    client = deployment.module("client", "vaxish")
    uadd = client.ali.locate("echo")
    for i in range(20):
        reply = client.ali.call(uadd, "real_echo", {"n": i, "text": "x"},
                                timeout=5.0)
        assert reply.values["n"] == i


def test_hostile_length_prefix_over_real_sockets(deployment):
    """Real socket bytes whose length prefix claims 4 GiB: the server's
    ND-Layer counts one malformed message and closes the circuit, the
    kernel pump raises nothing, and the next call succeeds."""
    server = _echo_server(deployment, "echo", "sunish")
    client = deployment.module("client", "vaxish")
    uadd = client.ali.locate("echo")
    client.ali.call(uadd, "real_echo", {"n": 1, "text": "a"}, timeout=5.0)
    lvc = client.nucleus.lcm._routes[uadd].lvc
    lvc.mchan.channel.send(b"\xff\xff\xff\xf0" + b"never framed")
    counters = server.nucleus.counters
    assert deployment.kernel.pump_until(
        lambda: counters["nd_malformed_messages"] and not lvc.open,
        timeout=5.0)
    assert counters["nd_malformed_messages"] == 1
    reply = client.ali.call(uadd, "real_echo", {"n": 2, "text": "b"},
                            timeout=5.0)
    assert reply.values == {"n": 2, "text": "B"}
