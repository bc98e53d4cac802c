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


def test_mid_train_close_goes_up_after_the_bytes_before_it(sched, ether,
                                                          pair):
    """The train is DATA(A) CLOSE(B): A's chunk goes up before B's close
    upcall, as it would with one frame per train — the IPCS hands the
    train so far up ahead of an accept or close upcall."""
    client_proc, client_ipcs, _, listener = pair
    conn_a, conn_b, accepted, chunks = _two_connections(
        client_proc, client_ipcs, listener)
    accepted[1].set_close_handler(lambda reason: chunks.append(("B", reason)))
    conn_a.send(b"one")
    conn_b.close()
    sched.run_until_idle()
    assert chunks == [("A", b"one"), ("B", "closed by peer")]


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


def test_blocking_upcall_holds_back_no_acknowledgement(sched, ether, pair):
    """One train carries a segment for A and one for B; A's chunk upcall
    blocks for two retransmission timeouts.  Both range ACKs left at the
    arrival instant, ahead of every upcall, so B's sender never times
    out — acknowledging each connection as its chunk is handed up would
    hold B's ACK behind A's handler and retransmit B's segment."""
    client_proc, client_ipcs, _, listener = pair
    conn_a, conn_b, accepted, chunks = _two_connections(
        client_proc, client_ipcs, listener)
    acks, arrived = [], []
    ether.trace_hooks.append(
        lambda datagram, size, dropped: acks.append(
            (sched.now, datagram.payload)) if datagram.payload[0] == "ACK"
        else None)

    def slow(data):
        arrived.append(sched.now)
        chunks.append(("A", data))
        sched.pump_until(lambda: False, timeout=2 * client_ipcs.rto,
                         what="slow handler")

    accepted[0].set_receive_handler(slow)
    conn_a.send(b"a1")
    conn_b.send(b"b1")
    sched.run_until_idle()
    assert chunks == [("A", b"a1"), ("B", b"b1")]
    assert client_ipcs.segments_retransmitted == 0
    assert [at for at, _ in acks] == arrived * 2
    assert [payload[2:] for _, payload in acks] == [(0, 0), (0, 0)]


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


# ---------------------------------------------------------------------------
# One retransmission timer per connection: oldest first (PROTOCOL.md §13)
# ---------------------------------------------------------------------------

def _wire(network, sched):
    """Every frame ``network`` carries from now on, as (instant, sender,
    payload, dropped)."""
    frames = []
    network.trace_hooks.append(
        lambda datagram, size, dropped: frames.append(
            (sched.now, datagram.src_host, datagram.payload, dropped)))
    return frames


def _established(sched, pair):
    client_proc, client_ipcs, _, listener = pair
    accepted = []
    listener.on_accept = accepted.append
    channel = client_ipcs.connect(client_proc, listener.address_blob())
    got = []
    accepted[0].set_receive_handler(got.append)
    sched.run_until_idle()
    return channel, got


def _sent_again(frames, client="vax1"):
    """(instant, seq) of every DATA segment the client sent twice."""
    seen, again = set(), []
    for at, src, payload, _ in frames:
        if src == client and payload[0] == "DATA":
            if payload[2] in seen:
                again.append((at, payload[2]))
            seen.add(payload[2])
    return again


def test_a_crash_under_a_backlog_retransmits_only_the_oldest(sched, ether,
                                                             pair, sun1):
    """Ten segments are outstanding when the peer's host crashes.  The
    connection's one timer retransmits segment 0 alone, four times (a
    timer per segment sent 40), and aborts when the per-segment design
    did: first send + ``MAX_RETRIES`` · ``rto``."""
    _, client_ipcs, _, _ = pair
    channel, _ = _established(sched, pair)
    died = []
    channel.set_close_handler(lambda why: died.append((sched.now, why)))
    frames = _wire(ether, sched)
    sun1.crash()
    first_send = sched.now
    for i in range(10):
        channel.send(b"%d" % i)
    sched.run_until_idle()
    deadline = first_send
    for _ in range(SimTcpIpcs.MAX_RETRIES):
        deadline += client_ipcs.rto
    assert died == [(deadline, "retransmission timeout")]
    assert [seq for _, seq in _sent_again(frames)] == [0] * 4
    assert client_ipcs.segments_retransmitted == 4
    assert not client_ipcs._conns


def test_a_duplicate_is_answered_with_everything_received(sched, ether,
                                                         pair):
    """The range ACK of a three-segment train is lost.  The timer
    retransmits the oldest segment only, and the duplicate is answered
    with the cumulative range ``(0, 2)``, which clears the whole train:
    one retransmission where a timer per segment sent three."""
    _, client_ipcs, _, _ = pair
    channel, got = _established(sched, pair)
    frames = _wire(ether, sched)
    start = sched.now
    for part in (b"a", b"b", b"c"):
        channel.send(part)
    ether.faults.drop_next(1)  # the next frame is the train's range ACK
    sched.run_until_idle()
    acks = [(payload[2:], dropped) for _, src, payload, dropped in frames
            if src == "sun1"]
    assert acks == [((0, 2), True), ((0, 2), False)]
    assert _sent_again(frames) == [(start + client_ipcs.rto, 0)]
    assert got == [b"abc"]


def test_a_second_hole_waits_one_round_trip_not_a_timeout(sched, ether,
                                                         pair):
    """Segments 2 and 6 of a ten-segment train are lost.  Every answer
    the receiver sends while it holds data past a hole names the hole:
    the out-of-order segments' answers name 2 — and leave ahead of the
    train's owed range without retransmitting anything else — and the
    range that fills 2 names 6.  Each hole is retransmitted once, a round
    trip apart, long before the retransmission timeout."""
    _, client_ipcs, _, _ = pair
    channel, got = _established(sched, pair)
    frames = _wire(ether, sched)
    start = sched.now
    for i in range(10):
        if i in (2, 6):
            ether.faults.drop_next(1)
        channel.send(b"%d" % i)
    sched.run_until_idle()
    round_trip = 2 * ether.latency
    assert _sent_again(frames) == [(start + round_trip, 2),
                                   (start + 2 * round_trip, 6)]
    assert 2 * round_trip < client_ipcs.rto
    assert b"".join(got) == b"0123456789"
    assert client_ipcs.segments_retransmitted == 2


def test_a_lost_acknowledgement_is_not_taken_for_a_lost_segment(sched,
                                                                 ether,
                                                                 pair):
    """Segment 0's ACK is lost and segment 1's arrives.  The receiver
    holds nothing past a hole, so its answer names none and the sender
    retransmits nothing early: segment 0 goes again at its own deadline,
    and its duplicate's cumulative answer settles it."""
    _, client_ipcs, _, _ = pair
    channel, _ = _established(sched, pair)
    frames = _wire(ether, sched)
    start = sched.now
    channel.send(b"0")
    sched.run_for(ether.latency / 2)
    channel.send(b"1")
    ether.faults.drop_next(1)  # the next frame is segment 0's ACK
    sched.run_until_idle()
    assert _sent_again(frames) == [(start + client_ipcs.rto, 0)]
    assert client_ipcs.segments_retransmitted == 1


def test_a_named_hole_resent_at_once_spends_no_retry(sched, ether, pair,
                                                     sun1):
    """Segment 0 is lost; segment 1's answer names it, so it is resent
    at once — and then the peer's host crashes.  That resend spends none
    of the timer's ``MAX_RETRIES`` expiries: four more resends follow,
    and the abort comes ``MAX_RETRIES`` · ``rto`` after it."""
    _, client_ipcs, _, _ = pair
    channel, _ = _established(sched, pair)
    died = []
    channel.set_close_handler(lambda why: died.append((sched.now, why)))
    frames = _wire(ether, sched)
    start = sched.now
    ether.faults.drop_next(1)
    channel.send(b"0")
    channel.send(b"1")
    sched.schedule(1.5 * ether.latency, sun1.crash)
    sched.run_until_idle()
    resent = _sent_again(frames)
    assert resent[0] == (start + 2 * ether.latency, 0)
    assert [seq for _, seq in resent] == [0] * 5
    deadline = resent[0][0]
    for _ in range(SimTcpIpcs.MAX_RETRIES):
        deadline += client_ipcs.rto
    assert died == [(deadline, "retransmission timeout")]
