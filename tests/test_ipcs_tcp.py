"""Unit tests for the simulated TCP IPCS."""

import pytest

from deployments import chain_nets, echo_server
from repro.errors import AddressInUse, ChannelClosed, ConnectionRefused, NetworkUnreachable
from repro.ipcs import SimTcpIpcs
from repro.machine import SimProcess


@pytest.fixture
def pair(sched, ether, vax1, sun1):
    """Server process on sun1 listening; client process on vax1."""
    server_proc = SimProcess(sun1, "server")
    client_proc = SimProcess(vax1, "client")
    server_ipcs = sun1.ipcs_for("ether0", "tcp")
    client_ipcs = vax1.ipcs_for("ether0", "tcp")
    listener = server_ipcs.listen(server_proc, "5000")
    return client_proc, client_ipcs, server_proc, listener


def test_address_blob_format(pair):
    _, _, _, listener = pair
    assert listener.address_blob() == "tcp:ether0:sun1:5000"
    assert SimTcpIpcs.parse_blob("tcp:ether0:sun1:5000") == ("ether0", "sun1", 5000)


def test_parse_blob_rejects_other_protocols():
    with pytest.raises(ValueError):
        SimTcpIpcs.parse_blob("mbx:ring0://a/b")


def test_connect_and_exchange(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    assert channel.open
    assert len(accepted) == 1
    server_channel = accepted[0]

    client_got, server_got = [], []
    channel.set_receive_handler(client_got.append)
    server_channel.set_receive_handler(server_got.append)
    channel.send(b"ping")
    sched.run_until_idle()
    assert server_got == [b"ping"]
    server_channel.send(b"pong")
    sched.run_until_idle()
    assert client_got == [b"pong"]


def test_connect_refused_when_no_listener(sched, pair):
    client_proc, client_ipcs, _, _ = pair
    with pytest.raises(ConnectionRefused, match="refused"):
        client_ipcs.connect(client_proc, "tcp:ether0:sun1:9999")


def test_connect_times_out_when_host_dead(sched, pair, sun1):
    client_proc, client_ipcs, _, listener = pair
    sun1.crash()
    with pytest.raises(ConnectionRefused, match="timed out"):
        client_ipcs.connect(client_proc, "tcp:ether0:sun1:5000", timeout=1.0)


def test_connect_wrong_network_unreachable(pair):
    client_proc, client_ipcs, _, _ = pair
    with pytest.raises(NetworkUnreachable):
        client_ipcs.connect(client_proc, "tcp:othernet:sun1:5000")


def test_port_collision(pair, sun1):
    server_proc = SimProcess(sun1, "second")
    with pytest.raises(AddressInUse):
        sun1.ipcs_for("ether0", "tcp").listen(server_proc, "5000")


def test_ephemeral_ports_allocated(sun1):
    proc = SimProcess(sun1, "p")
    ipcs = sun1.ipcs_for("ether0", "tcp")
    l1 = ipcs.listen(proc)
    l2 = ipcs.listen(proc)
    assert l1.binding != l2.binding


def test_stream_coalescing(sched, pair):
    """Sends queued back-to-back arrive as one coalesced chunk — the
    byte-stream semantics the ND-Layer driver must frame around."""
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    got = []
    accepted[0].set_receive_handler(got.append)
    channel.send(b"abc")
    channel.send(b"def")
    sched.run_until_idle()
    assert b"".join(got) == b"abcdef"
    assert len(got) == 1  # coalesced


def test_send_on_closed_channel_raises(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    channel.close()
    with pytest.raises(ChannelClosed):
        channel.send(b"late")


def test_close_notifies_peer(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    reasons = []
    accepted[0].set_close_handler(reasons.append)
    channel.close()
    sched.run_until_idle()
    assert reasons == ["closed by peer"]
    assert not accepted[0].open


def test_process_death_closes_channels_and_notifies(sched, pair):
    client_proc, client_ipcs, server_proc, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    reasons = []
    channel.set_close_handler(reasons.append)
    server_proc.kill()
    sched.run_until_idle()
    assert reasons  # client learned of the death via the wire
    assert not channel.open


def test_close_handler_fires_immediately_if_already_closed(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    channel.close()
    reasons = []
    channel.set_close_handler(reasons.append)
    assert reasons == ["closed by local end"]


def test_retransmission_recovers_lost_segment(sched, ether, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    got = []
    accepted[0].set_receive_handler(got.append)
    ether.faults.drop_next(1)
    channel.send(b"retried")
    sched.run_until_idle()
    assert got == [b"retried"]
    assert client_ipcs.segments_retransmitted >= 1


def test_retransmission_preserves_order_after_loss(sched, ether, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    got = []
    accepted[0].set_receive_handler(got.append)
    ether.faults.drop_next(1)  # first data segment lost
    channel.send(b"one")
    channel.send(b"two")
    channel.send(b"three")
    sched.run_until_idle()
    assert b"".join(got) == b"onetwothree"


def test_persistent_partition_aborts_channel(sched, ether, pair):
    client_proc, client_ipcs, _, listener = pair
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    reasons = []
    channel.set_close_handler(reasons.append)
    ether.faults.sever("vax1", "sun1")
    channel.send(b"doomed")
    sched.run_until_idle()
    assert reasons == ["retransmission timeout"]


def test_syn_retry_survives_single_loss(sched, ether, pair):
    client_proc, client_ipcs, _, listener = pair
    ether.faults.drop_next(1)  # the SYN
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    assert channel.open


def test_duplicate_syn_does_not_create_second_channel(sched, ether, pair):
    """If the SYNACK is lost the client retransmits its SYN; the server
    must answer again without opening a second connection."""
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    ether.faults.drop_next(2)  # SYN and then the first SYNACK... drop SYN, then SYNACK
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    sched.run_until_idle()
    assert channel.open
    assert len(accepted) == 1


def test_listener_close_refuses_new_connects(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    listener.close()
    with pytest.raises(ConnectionRefused):
        client_ipcs.connect(client_proc, "tcp:ether0:sun1:5000")


def test_bytes_accounting(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    accepted[0].set_receive_handler(lambda data: None)
    channel.send(b"12345")
    sched.run_until_idle()
    assert channel.bytes_sent == 5
    assert accepted[0].bytes_received == 5


# ---------------------------------------------------------------------------
# Where a stream chunk is born: the tail of the arrival train
# (PROTOCOL.md §13)
# ---------------------------------------------------------------------------

def _two_connections(client_proc, client_ipcs, listener):
    """Two established connections to one listener, with every chunk
    the server side receives logged as (connection tag, bytes)."""
    accepted, chunks = [], []
    listener.on_accept = accepted.append
    conn_a = client_ipcs.connect(client_proc, listener.address_blob())
    conn_b = client_ipcs.connect(client_proc, listener.address_blob())
    for tag, channel in zip("AB", accepted):
        channel.set_receive_handler(
            lambda data, tag=tag: chunks.append((tag, data)))
    return conn_a, conn_b, accepted, chunks


def _stranded(ipcs):
    return [conn for conn in ipcs._conns.values() if conn.rx_pending]


def test_interleaved_connections_get_one_chunk_each(sched, ether, pair, sun1):
    client_proc, client_ipcs, _, listener = pair
    conn_a, conn_b, _, chunks = _two_connections(
        client_proc, client_ipcs, listener)
    trains_before = ether.trains_coalesced
    events_before = sched.events_processed
    conn_a.send(b"a1")
    conn_b.send(b"b1")
    conn_a.send(b"a2")
    conn_b.send(b"b2")
    sched.run_until_idle()
    # One arrival train carried all four segments (and one carried the
    # four acknowledgements back): two scheduler events in all, and
    # each connection's bytes came up as one chunk, first arrival first.
    assert chunks == [("A", b"a1a2"), ("B", b"b1b2")]
    assert ether.trains_coalesced - trains_before == 2
    assert sched.events_processed - events_before == 2
    assert not _stranded(sun1.ipcs_for("ether0", "tcp"))


def test_interface_down_mid_train_strands_no_bytes(sched, ether, pair, sun1):
    """The train is DATA(A) CLOSE(B) DATA(A); B's close handler takes
    the interface down, so the tail segment is lost.  What arrived
    before still goes up when the train ends, nothing waits in
    ``rx_pending`` for a flush that will never come, and the lost tail
    arrives by retransmission once the interface is back."""
    client_proc, client_ipcs, _, listener = pair
    conn_a, conn_b, accepted, chunks = _two_connections(
        client_proc, client_ipcs, listener)
    server_ipcs = sun1.ipcs_for("ether0", "tcp")
    iface = sun1.interface("ether0")
    accepted[1].set_close_handler(lambda reason: setattr(iface, "up", False))
    conn_a.send(b"one")
    conn_b.close()
    conn_a.send(b"two")
    sched.run_for(0.003)
    assert not iface.up
    assert chunks == [("A", b"one")]
    assert not _stranded(server_ipcs)
    iface.up = True
    sched.run_until_idle()
    assert chunks == [("A", b"one"), ("A", b"two")]
    assert client_ipcs.segments_retransmitted >= 1
    assert not _stranded(server_ipcs)


def test_blocking_chunk_upcall_keeps_stream_order(sched, ether, pair, sun1):
    """A's handler blocks inside the first train's chunk upcall while a
    second train arrives.  B's bytes from both trains surface in the
    nested train end, as one chunk in stream order; A's second chunk
    follows its first."""
    client_proc, client_ipcs, _, listener = pair
    conn_a, conn_b, accepted, chunks = _two_connections(
        client_proc, client_ipcs, listener)

    def slow(data):
        chunks.append(("A", data))
        if data == b"a1":
            sched.pump_until(lambda: False, timeout=0.005, what="slow handler")
            chunks.append(("A", b"<unblocked>"))

    accepted[0].set_receive_handler(slow)
    conn_a.send(b"a1")
    conn_b.send(b"b1")
    sched.run_for(0.0002)  # less than the wire latency
    conn_a.send(b"a2")
    conn_b.send(b"b2")
    sched.run_until_idle()
    assert chunks == [("A", b"a1"), ("B", b"b1b2"), ("A", b"a2"),
                      ("A", b"<unblocked>")]
    assert not _stranded(sun1.ipcs_for("ether0", "tcp"))


def test_warm_echo_over_three_gateways_exact_substrate_cost():
    """One warm ALI echo across the 3-gateway chain, calls back to back:
    8 frame-hops, each a DATA segment and its ACK — 16 datagrams in 14
    delivery events (the server's ACK shares a train with its reply,
    the client's with its next request), no event of any other kind,
    8 one-way latencies."""
    bed = chain_nets(3)
    echo_server(bed, "dest", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("dest")
    for n in range(2):
        client.ali.call(uadd, "echo", {"n": n, "text": "warm"})
    frames = sum(net.frames_sent for net in bed.networks.values())
    events = bed.scheduler.events_processed
    started = bed.now
    client.ali.call(uadd, "echo", {"n": 2, "text": "x"})
    assert sum(n.frames_sent for n in bed.networks.values()) - frames == 16
    assert bed.scheduler.events_processed - events == 14
    assert bed.now - started == pytest.approx(0.008)
