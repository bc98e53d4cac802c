"""Unit tests for the STD-IF drivers: framing over streams, records
over mailboxes, and the driver factory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.conversion.shiftmode import shift_encode_u32s
from repro.machine import SimProcess
from repro.ntcs.drivers import make_driver
from repro.ntcs.drivers.sim_mbx import RecordChannel, SimMbxDriver
from repro.ntcs.drivers.sim_tcp import FramedChannel, SimTcpDriver
from repro.ntcs.message import HEADER_BYTES


class FakeChannel:
    """Just enough of an IPCS channel to exercise framing."""

    def __init__(self):
        self.sent = []
        self.open = True
        self._receive_handler = None
        self._close_handler = None

    def set_receive_handler(self, handler):
        self._receive_handler = handler

    def set_close_handler(self, handler):
        self._close_handler = handler

    def send(self, data):
        self.sent.append(data)

    def close(self):
        self.open = False

    def feed(self, data):
        self._receive_handler(data)


# -- FramedChannel (tcp) --------------------------------------------------------

def test_framed_send_prefixes_length():
    fake = FakeChannel()
    framed = FramedChannel(fake)
    framed.send_message(b"hello")
    assert fake.sent == [b"\x00\x00\x00\x05hello"]


def test_framed_reassembles_fragmented_input():
    fake = FakeChannel()
    framed = FramedChannel(fake)
    got = []
    framed.set_message_handler(got.append)
    wire = b"\x00\x00\x00\x05hello" + b"\x00\x00\x00\x02hi"
    # Deliver byte-by-byte: worst-case fragmentation.
    for i in range(len(wire)):
        fake.feed(wire[i:i + 1])
    assert got == [b"hello", b"hi"]


def test_framed_handles_coalesced_input():
    fake = FakeChannel()
    framed = FramedChannel(fake)
    got = []
    framed.set_message_handler(got.append)
    fake.feed(b"\x00\x00\x00\x03abc\x00\x00\x00\x03def\x00\x00")
    fake.feed(b"\x00\x03ghi")
    assert got == [b"abc", b"def", b"ghi"]


def test_framed_empty_message():
    fake = FakeChannel()
    framed = FramedChannel(fake)
    got = []
    framed.set_message_handler(got.append)
    framed.send_message(b"")
    fake.feed(b"\x00\x00\x00\x00")
    assert got == [b""]


def test_framed_rejects_insane_length():
    """A prefix above 16 MiB goes up alone, as one message shorter than
    any NTCS header (the ND-Layer's malformed path); nothing is raised
    and every byte after it is discarded."""
    fake = FakeChannel()
    framed = FramedChannel(fake)
    got = []
    framed.set_message_handler(got.append)
    fake.feed(b"\x00\x00\x00\x02ok\xFF\xFF\xFF\xFF\x00\x00")
    fake.feed(b"\x00\x02no")
    assert got == [b"ok", b"\xFF\xFF\xFF\xFF"]
    assert len(got[-1]) < HEADER_BYTES


# What a FramedChannel hands up for a byte stream, however it is split:
# each sane prefix's message while the stream holds it whole, then, on
# the first prefix above the limit, that prefix alone and nothing more.
_LIMIT = 16 * 1024 * 1024


def _reference_framing(stream):
    """(messages, the offending prefix or None)."""
    out, at = [], 0
    while len(stream) - at >= 4:
        length = int.from_bytes(stream[at:at + 4], "big")
        if length > _LIMIT:
            return out, stream[at:at + 4]
        if len(stream) - at - 4 < length:
            break
        out.append(stream[at + 4:at + 4 + length])
        at += 4 + length
    return out, None


def _prefixed(length, body=b""):
    return shift_encode_u32s([length]) + body


_messages = st.lists(st.binary(max_size=40), max_size=6)
_piece = st.one_of(
    st.binary(max_size=40).map(lambda body: _prefixed(len(body), body)),
    st.tuples(st.binary(max_size=40), st.integers(1, 60)).map(
        lambda inflated: _prefixed(len(inflated[0]) + inflated[1],
                                   inflated[0])),
    st.integers(_LIMIT + 1, 2 ** 32 - 1).map(_prefixed),
    st.binary(min_size=1, max_size=12),  # garbage between frames
)


def _feed_split(stream, cuts, then=b""):
    """Feed ``stream`` cut at ``cuts``, then ``then`` as one more chunk."""
    fake = FakeChannel()
    framed = FramedChannel(fake)
    got = []
    framed.set_message_handler(got.append)
    points = sorted({0, len(stream), *(cut % (len(stream) + 1)
                                      for cut in cuts)})
    for start, end in zip(points, points[1:]):
        fake.feed(stream[start:end])
    if then:
        fake.feed(then)
    return got


@settings(max_examples=200, deadline=None)
@given(messages=_messages, bad_at=st.integers(0, 6),
       prefix=st.integers(_LIMIT + 1, 2 ** 32 - 1),
       tail=st.binary(max_size=30), cuts=st.lists(st.integers(0, 10 ** 4)))
def test_framed_stream_is_exact_or_ends_in_one_malformed_blob(
        messages, bad_at, prefix, tail, cuts):
    """Whole frames split anywhere come up exactly; an inflated prefix
    after the first ``bad_at`` of them comes up alone, and nothing
    after it does — not the garbage, not the valid frames behind it."""
    bad_at = min(bad_at, len(messages))
    frames = [_prefixed(len(body), body) for body in messages]
    hostile = _prefixed(prefix)
    stream = b"".join(frames[:bad_at] + [hostile, tail] + frames[bad_at:])
    assert _feed_split(stream, cuts) == messages[:bad_at] + [hostile]
    assert _feed_split(b"".join(frames), cuts) == messages


@settings(max_examples=200, deadline=None)
@given(pieces=st.lists(_piece, max_size=8),
       cuts=st.lists(st.integers(0, 10 ** 4)))
def test_framed_reassembly_of_hostile_streams_never_raises(pieces, cuts):
    """Frames, inflated prefixes and garbage between frames, split at
    arbitrary points: reassembly never raises and matches the reference
    framing; once an offending prefix has come up, a valid frame fed
    behind it does not."""
    stream = b"".join(pieces)
    messages, offending = _reference_framing(stream)
    got = _feed_split(stream, cuts, then=_prefixed(2, b"ok"))
    if offending is None:
        assert got[:len(messages)] == messages
    else:
        assert got == messages + [offending]


def test_framed_round_trip_via_two_endpoints():
    a, b = FakeChannel(), FakeChannel()
    framed_a = FramedChannel(a)
    framed_b = FramedChannel(b)
    got = []
    framed_b.set_message_handler(got.append)
    for message in (b"x" * 1, b"y" * 1000, b""):
        framed_a.send_message(message)
    for chunk in a.sent:
        b.feed(chunk)
    assert got == [b"x", b"y" * 1000, b""]


# -- RecordChannel (mbx) ------------------------------------------------------

def test_record_channel_is_one_to_one():
    fake = FakeChannel()
    record = RecordChannel(fake)
    got = []
    record.set_message_handler(got.append)
    record.send_message(b"whole message")
    assert fake.sent == [b"whole message"]  # no prefix
    fake.feed(b"r1")
    fake.feed(b"r2")
    assert got == [b"r1", b"r2"]


# -- factory -----------------------------------------------------------------

def test_make_driver_dispatch(sched, ether, ring, vax1, apollo1):
    tcp_driver = make_driver(vax1.ipcs_for("ether0", "tcp"))
    mbx_driver = make_driver(apollo1.ipcs_for("ring0", "mbx"))
    assert isinstance(tcp_driver, SimTcpDriver)
    assert isinstance(mbx_driver, SimMbxDriver)
    assert tcp_driver.network_name == "ether0"
    assert mbx_driver.network_name == "ring0"

    class WeirdIpcs:
        protocol = "carrier-pigeon"

    with pytest.raises(ValueError):
        make_driver(WeirdIpcs())


def test_drivers_listen_and_connect_end_to_end(sched, ether, vax1, sun1):
    driver_a = make_driver(vax1.ipcs_for("ether0", "tcp"))
    driver_b = make_driver(sun1.ipcs_for("ether0", "tcp"))
    server = SimProcess(sun1, "server")
    client = SimProcess(vax1, "client")
    accepted = []
    blob = driver_b.listen(server, accepted.append)
    assert blob.startswith("tcp:ether0:sun1:")
    mchan = driver_a.connect(client, blob)
    got = []
    accepted[0].set_message_handler(got.append)
    mchan.send_message(b"framed over the stream")
    sched.run_until_idle()
    assert got == [b"framed over the stream"]


def test_driver_listen_with_pinned_binding(sched, ether, sun1):
    driver = make_driver(sun1.ipcs_for("ether0", "tcp"))
    process = SimProcess(sun1, "ns")
    blob = driver.listen(process, lambda mchan: None, binding="411")
    assert blob == "tcp:ether0:sun1:411"
