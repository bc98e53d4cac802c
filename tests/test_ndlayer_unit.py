"""Focused tests for ND-Layer mechanics: open retry, the HELLO
exchange, malformed-message handling, fault notification."""

import pytest

from deployments import echo_server, send_burst_with_bad_frame, single_net
from repro.errors import AddressFault
from repro.ntcs.address import make_uadd


@pytest.fixture
def bed():
    return single_net()


def _open_located(client, uadd):
    """Open an LVC to a located module at the blob its locate cached
    (the ND-Layer resolves nothing itself: its caller plans the blob)."""
    return client.nucleus.nd.open_lvc(
        uadd, client.nucleus.addr_cache.lookup(uadd).blob)


def test_open_retries_then_faults(bed):
    """"There is no automatic relocation or recovery from failed
    channels (except for retry on open)" — Sec. 2.2."""
    client = bed.module("client", "vax1")
    nd = client.nucleus.nd
    target = make_uadd(50)
    with pytest.raises(AddressFault):
        nd.open_lvc(target, "tcp:ether0:sun1:9999")  # nobody listening
    assert client.nucleus.counters["nd_open_retries"] == nd.OPEN_RETRIES


def test_open_to_wrong_network_blob_faults(bed):
    client = bed.module("client", "vax1")
    with pytest.raises(AddressFault, match="not on local network"):
        client.nucleus.nd.open_lvc(make_uadd(50), "tcp:othernet:x:1")


def test_hello_exchanges_machine_types(bed):
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    lvc = _open_located(client, uadd)
    assert lvc.peer_mtype_name == "Sun-3"
    assert lvc.peer_addr == uadd
    assert "sun1" in lvc.peer_blob


def test_malformed_message_closes_circuit(bed):
    """Garbage on an LVC trips the header checks, closes the channel
    and counts the event — not a crash."""
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    lvc = _open_located(client, uadd)
    # Inject raw garbage under the message layer.
    lvc.mchan.send_message(b"this is not an NTCS message")
    bed.settle()
    server = bed.modules["dest"]
    assert server.nucleus.counters["nd_malformed_messages"] == 1


def test_malformed_frame_mid_burst_drops_the_rest(bed):
    """[ok, ok, bad-magic, ok] in one TCP chunk on a terminating LVC:
    the first two are delivered, the third closes the circuit, and the
    fourth is never handed up."""
    received = []
    sink = bed.module("sink", "sun1")
    sink.ali.set_request_handler(lambda msg: received.append(msg.values["a"]))
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("sink")
    client.ali.send(uadd, "numbers", {"a": 99, "b": 0, "big": 0})
    bed.settle()
    coalesced_before = bed.networks["ether0"].trains_coalesced
    open_before = sink.nucleus.nd.open_lvc_count()
    lvc = send_burst_with_bad_frame(client, uadd)
    bed.settle()
    assert bed.networks["ether0"].trains_coalesced > coalesced_before
    assert received == [99, 0, 1]
    assert sink.nucleus.counters["nd_malformed_messages"] == 1
    assert not lvc.open
    assert sink.nucleus.nd.open_lvc_count() == open_before - 1


def test_hostile_length_prefix_takes_the_malformed_path(bed):
    """A TCP length prefix above 16 MiB cannot start a message.  The
    receiving ND-Layer counts it malformed, closes the LVC and faults
    upward; the bytes behind it are discarded, nothing is raised into
    whoever is pumping, and the next call opens a fresh circuit."""
    server = echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    open_before = server.nucleus.nd.open_lvc_count()
    lvc = client.nucleus.lcm._routes[uadd].lvc
    lvc.mchan.channel.send(b"\xff\xff\xff\xf0" + b"never framed")
    bed.settle()
    assert server.nucleus.counters["nd_malformed_messages"] == 1
    assert server.nucleus.nd.open_lvc_count() == open_before - 1
    assert not lvc.open
    reply = client.ali.call(uadd, "echo", {"n": 2, "text": "y"})
    assert reply.values == {"n": 2, "text": "Y"}


def test_fault_notification_passed_upward(bed):
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    faults_before = client.nucleus.counters["nd_channel_faults"]
    bed.modules["dest"].process.kill()
    bed.settle()
    assert client.nucleus.counters["nd_channel_faults"] > faults_before
    assert client.nucleus.counters["lcm_circuit_faults"] >= 1


def test_open_lvc_counts(bed):
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    nd = client.nucleus.nd
    base = nd.open_lvc_count()
    uadd = client.ali.locate("dest")
    lvc = _open_located(client, uadd)
    assert nd.open_lvc_count() == base + 1
    nd.close(lvc, "test over")
    assert nd.open_lvc_count() == base


def test_ns_address_blob_never_invalidated(bed):
    """The Sec. 6.3 guard: a failed open toward the naming service must
    not purge its well-known cache entry."""
    client = bed.module("client", "vax1")
    nucleus = client.nucleus
    ns_uadd = bed.wellknown.ns_uadd
    nucleus.addr_cache.store(ns_uadd, "tcp:ether0:vax1:411", "VAX")
    bed.name_server_instance.process.kill()
    bed.settle()
    with pytest.raises(AddressFault):
        nucleus.nd.open_lvc(ns_uadd, "tcp:ether0:vax1:411")
    assert nucleus.addr_cache.lookup(ns_uadd) is not None


def test_regular_address_invalidated_on_open_failure(bed):
    victim = bed.module("victim", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("victim")
    # Prime the cache, then kill the victim.
    _open_located(client, uadd)
    assert client.nucleus.addr_cache.lookup(uadd) is not None
    victim.process.kill()
    bed.settle()
    blob = "tcp:ether0:sun1:32768"
    entry = client.nucleus.addr_cache.lookup(uadd)
    with pytest.raises(AddressFault):
        client.nucleus.nd.open_lvc(uadd, entry.blob if entry else blob)
    assert client.nucleus.addr_cache.lookup(uadd) is None
