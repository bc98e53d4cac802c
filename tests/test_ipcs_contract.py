"""Behavior-contract tests run against BOTH native IPCSs.

The ND-Layer relies on a common core of behaviour from every IPCS
(connect/accept, bidirectional transfer, close notification, process
teardown); this suite pins that contract with one parametrized body —
while the IPCS-specific suites cover what legitimately differs."""

import pytest

from repro.errors import ChannelClosed, ConnectionRefused
from repro.ipcs import SimMbxIpcs, SimTcpIpcs
from repro.machine import Machine, SimProcess, SUN3, VAX
from repro.netsim import Network, Scheduler


class _Rig:
    def __init__(self, protocol):
        self.sched = Scheduler()
        self.net = Network(self.sched, "net0", latency=0.001)
        kind = SimTcpIpcs if protocol == "tcp" else SimMbxIpcs
        self.close_kind = "CLOSE" if protocol == "tcp" else "MBX_CLOSE"
        self.ack_kind = "ACK" if protocol == "tcp" else "MBX_PUT_ACK"
        self.machine_a = Machine(self.sched, "hosta", VAX)
        self.machine_a.attach_network(self.net)
        self.ipcs_a = kind(self.machine_a, self.net)
        self.machine_b = Machine(self.sched, "hostb", SUN3)
        self.machine_b.attach_network(self.net)
        self.ipcs_b = kind(self.machine_b, self.net)
        self.server = SimProcess(self.machine_b, "server")
        self.client = SimProcess(self.machine_a, "client")
        self.listener = self.ipcs_b.listen(self.server)


@pytest.fixture(params=["tcp", "mbx"])
def rig(request):
    return _Rig(request.param)


def test_contract_connect_and_accept(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    assert channel.open
    assert len(accepted) == 1
    assert accepted[0].open


def test_contract_bidirectional_bytes(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    a_got, b_got = [], []
    channel.set_receive_handler(a_got.append)
    accepted[0].set_receive_handler(b_got.append)
    channel.send(b"to-b")
    accepted[0].send(b"to-a")
    rig.sched.run_until_idle()
    assert b"".join(b_got) == b"to-b"
    assert b"".join(a_got) == b"to-a"


def test_contract_refused_when_no_listener(rig):
    rig.listener.close()
    with pytest.raises(ConnectionRefused):
        rig.ipcs_a.connect(rig.client, rig.listener.address_blob())


def test_contract_send_after_close_raises(rig):
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    channel.close()
    with pytest.raises(ChannelClosed):
        channel.send(b"late")


def test_contract_peer_close_notifies_once(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    reasons = []
    accepted[0].set_close_handler(reasons.append)
    channel.close()
    channel.close()  # idempotent
    rig.sched.run_until_idle()
    assert reasons == ["closed by peer"]


def test_contract_process_death_tears_down_everything(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    client_reasons = []
    channel.set_close_handler(client_reasons.append)
    rig.server.kill()
    rig.sched.run_until_idle()
    assert not channel.open
    assert client_reasons
    # The listener died with the process: new connects are refused.
    with pytest.raises(ConnectionRefused):
        rig.ipcs_a.connect(rig.client, rig.listener.address_blob())


def test_contract_in_order_delivery(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    got = []
    accepted[0].set_receive_handler(got.append)
    for i in range(20):
        channel.send(f"m{i:02d}".encode())
    rig.sched.run_until_idle()
    joined = b"".join(got).decode()
    assert joined == "".join(f"m{i:02d}" for i in range(20))


def test_contract_given_up_connect_leaves_nothing_behind(rig):
    """A connect that gives up before its open is answered sends nothing
    more — no retried open, even once the peer is reachable again — and
    neither side is left holding a connection."""
    server_iface = rig.machine_b.interface(rig.net.name)
    server_iface.up = False
    with pytest.raises(ConnectionRefused, match="timed out"):
        rig.ipcs_a.connect(rig.client, rig.listener.address_blob(),
                           timeout=0.012)
    frames = []
    rig.net.trace_hooks.append(
        lambda datagram, size, dropped: frames.append(datagram.payload))
    server_iface.up = True
    rig.sched.run_until_idle()
    assert frames == []
    assert not rig.ipcs_a._conns
    assert not rig.ipcs_b._conns


def test_contract_local_close_discards_the_channels_queued_data(rig):
    """One train carries data for A, then for B, and A's upcall closes
    B: B's data, not yet handed up, is discarded — B's handlers see only
    its close — and B's peer is told (PROTOCOL.md §13)."""
    accepted = []
    rig.listener.on_accept = accepted.append
    blob = rig.listener.address_blob()
    chan_a = rig.ipcs_a.connect(rig.client, blob)
    chan_b = rig.ipcs_a.connect(rig.client, blob)
    server_a, server_b = accepted
    events = []

    def on_a(data):
        events.append(("A", data))
        server_b.close()

    server_a.set_receive_handler(on_a)
    server_b.set_receive_handler(lambda data: events.append(("B", data)))
    server_b.set_close_handler(lambda why: events.append(("B", why)))
    chan_a.send(b"a1")
    chan_b.send(b"b1")
    rig.sched.run_until_idle()
    assert events == [("A", b"a1"), ("B", "closed by local end")]
    assert chan_b.closed_reason == "closed by peer"


def test_contract_many_concurrent_channels(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channels = [
        rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
        for _ in range(10)
    ]
    assert len(accepted) == 10
    got = []
    for i, server_chan in enumerate(accepted):
        server_chan.set_receive_handler(
            lambda data, i=i: got.append((i, data)))
    for i, chan in enumerate(channels):
        chan.send(f"ch{i}".encode())
    rig.sched.run_until_idle()
    assert sorted(got) == [(i, f"ch{i}".encode()) for i in range(10)]


# ---------------------------------------------------------------------------
# A connection whose CLOSE has arrived is owed nothing (PROTOCOL.md §13)
# ---------------------------------------------------------------------------

def _wire_log(network, host):
    """Every frame ``host`` sends on ``network``, as (kind, id)."""
    sent = []
    network.trace_hooks.append(
        lambda datagram, size, dropped: sent.append(datagram.payload[:2])
        if datagram.src_host == host else None)
    return sent


@pytest.mark.parametrize("closer, reason", [
    (None, "closed by peer"),
    ("data upcall", "closed by local end"),
    ("close upcall", "closed by peer"),
])
def test_close_in_the_train_is_answered_with_nothing(rig, closer, reason):
    """The train is data then CLOSE on one connection.  The bytes go up
    before the close upcall, and the peer — which has aborted and
    cancelled its timers — is sent neither the owed ACK nor a CLOSE,
    even when an upcall closes the channel itself."""
    accepted, events = [], []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    server_channel = accepted[0]

    def on_data(data):
        events.append(data)
        if closer == "data upcall":
            server_channel.close()

    def on_close(why):
        events.append(why)
        if closer == "close upcall":
            server_channel.close()

    server_channel.set_receive_handler(on_data)
    server_channel.set_close_handler(on_close)
    answers = _wire_log(rig.net, "hostb")
    channel.send(b"last words")
    channel.close()
    rig.sched.run_until_idle()
    assert events == [b"last words", reason]
    assert answers == []
    assert not server_channel.open


def test_simultaneous_close_sends_one_close_each_way(rig):
    accepted = []
    rig.listener.on_accept = accepted.append
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    server_channel = accepted[0]
    from_client = _wire_log(rig.net, "hosta")
    from_server = _wire_log(rig.net, "hostb")
    channel.close()
    server_channel.close()
    rig.sched.run_until_idle()
    assert [kind for kind, _ in from_client + from_server] == \
        [rig.close_kind] * 2
    for end in (channel, server_channel):
        assert end.closed_reason == "closed by local end"
    assert not rig.ipcs_a._conns
    assert not rig.ipcs_b._conns


def test_close_in_the_train_still_acknowledges_other_connections(rig):
    """The train is data(A) data(B) CLOSE(B): A's range ACK leaves at
    the arrival instant ahead of every upcall; B's is dropped with B."""
    accepted, events = [], []
    rig.listener.on_accept = accepted.append
    chan_a, chan_b = (rig.ipcs_a.connect(SimProcess(rig.machine_a, tag),
                                         rig.listener.address_blob())
                      for tag in "AB")
    accepted[0].set_receive_handler(lambda data: events.append(("A", data)))
    accepted[1].set_receive_handler(lambda data: events.append(("B", data)))
    accepted[1].set_close_handler(lambda why: events.append(("B", why)))
    rig.net.trace_hooks.append(
        lambda datagram, size, dropped: events.append(
            ("wire", datagram.payload))
        if datagram.src_host == "hostb" else None)
    chan_a.send(b"a1")
    chan_b.send(b"b1")
    chan_b.close()
    rig.sched.run_until_idle()
    assert events == [("wire", (rig.ack_kind, chan_a.channel_id, 0, 0)),
                      ("A", b"a1"), ("B", b"b1"), ("B", "closed by peer")]


# ---------------------------------------------------------------------------
# One acknowledgement timer per connection (PROTOCOL.md §13)
# ---------------------------------------------------------------------------

def _armed(ipcs):
    """The connections of ``ipcs`` whose timer is armed."""
    return [conn for conn in ipcs._conns.values() if conn.timer is not None]


def test_a_burst_arms_one_timer(rig):
    """A 32-segment burst on one connection rides one train delivery
    and arms one timer: ``pending()`` rises by exactly one beyond the
    wire's own event, where a timer per segment or record added 32.
    The burst's acknowledgement disarms it."""
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    rig.sched.run_until_idle()
    before = rig.sched.pending()
    for i in range(32):
        channel.send(b"%02d" % i)
    wire = 1  # the burst's one train delivery
    assert rig.sched.pending() - before - wire == 1
    assert [len(conn.unacked) for conn in _armed(rig.ipcs_a)] == [32]
    rig.sched.run_until_idle()
    assert rig.sched.pending() == 0
    assert not _armed(rig.ipcs_a)


def test_the_timer_follows_the_oldest_entry_to_its_own_deadline(rig):
    """Entry 0 is acknowledged; entry 1, sent half a latency later, is
    not — the peer's host crashed between the two arrivals.  The timer
    moves to entry 1 at entry 1's own deadline, so the connection dies
    when a timer of its own would have killed it: one timeout later
    (MBX), or ``MAX_RETRIES`` retransmission timeouts later (TCP)."""
    channel = rig.ipcs_a.connect(rig.client, rig.listener.address_blob())
    rig.sched.run_until_idle()
    died = []
    channel.set_close_handler(lambda why: died.append((rig.sched.now, why)))
    channel.send(b"acknowledged")
    rig.sched.run_for(rig.net.latency / 2)
    second_send = rig.sched.now
    channel.send(b"lost")
    rig.sched.schedule(rig.net.latency * 0.7, rig.machine_b.crash)
    rig.sched.run_until_idle()
    if isinstance(rig.ipcs_a, SimTcpIpcs):
        timeouts, reason = SimTcpIpcs.MAX_RETRIES, "retransmission timeout"
        timeout = rig.ipcs_a.rto
    else:
        timeouts, reason = 1, "record not acknowledged"
        timeout = rig.ipcs_a.ack_timeout
    deadline = second_send
    for _ in range(timeouts):
        deadline += timeout
    assert died == [(deadline, reason)]
    assert not _armed(rig.ipcs_a)
