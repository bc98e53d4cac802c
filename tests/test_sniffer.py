"""The wire trace read as a sniffer: :class:`NetTraceLog` events
filtered by host and by the ``dropped`` flag, and its hex blobs parsed
back into NTCS messages for wire-level checks of the paper's conversion
claims."""

import pytest

from deployments import echo_server, single_net
from repro.ntcs import message as m
from repro.ntcs.message import HEADER_BYTES


@pytest.fixture
def bed():
    return single_net()


def _between(log, host_a, host_b):
    """Every recorded frame between two hosts (either direction)."""
    return [event for event in log.events
            if {event["args"]["src"], event["args"]["dst"]} == {host_a, host_b}]


def _blobs(log):
    """Every bytes blob carried by a delivered frame (segments' data,
    mailbox records), decoded from the trace's hex."""
    return [bytes.fromhex(blob) for event in log.events
            if not event["args"]["dropped"]
            for blob in event["args"]["frames"]]


def test_sniffer_records_frames(bed):
    log = bed.record_wire_trace()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    assert len(log) > 0
    assert _between(log, "vax1", "sun1")
    log.detach()
    count = len(log)
    client.ali.call(uadd, "echo", {"n": 2, "text": "y"})
    assert len(log) == count  # detached: nothing new


def test_sniffer_filter(bed):
    """Filtering by source and destination keeps one direction of one
    conversation: the client's frames to the server, NTCS data among
    them."""
    log = bed.record_wire_trace()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    outbound = [event for event in log.events
                if (event["args"]["src"], event["args"]["dst"])
                == ("vax1", "sun1")]
    assert 0 < len(outbound) < len(_between(log, "vax1", "sun1"))
    assert any(bytes.fromhex(blob)[4:8] == b"NTCS"
               for event in outbound for blob in event["args"]["frames"])


def test_dropped_frames_are_not_recorded(bed):
    """What was *delivered* is the trace with the ``dropped`` flag
    clear: a frame the fault plan drops is on the trace, marked
    dropped, and absent from the delivered view."""
    ether = bed.networks["ether0"]
    log = bed.record_wire_trace()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    log.clear()
    sent_before = ether.frames_sent
    ether.faults.drop_next(2)
    client.ali.call(uadd, "echo", {"n": 2, "text": "y"})
    bed.settle()
    sent = ether.frames_sent - sent_before
    assert len(log) == sent
    delivered = [event for event in log.events
                 if not event["args"]["dropped"]]
    assert len(delivered) == sent - 2
    log.detach()
    assert ether.trace_hooks == []


def _ntcs_messages(log):
    """Parse NTCS messages out of traced TCP segments (length-framed)."""
    messages = []
    for blob in _blobs(log):
        # Each TCP segment carries one framed message in these tests.
        if len(blob) >= 4 + HEADER_BYTES:
            try:
                messages.append(m.Msg.decode(blob[4:]))
            except Exception:
                pass
    return messages


def test_wire_headers_are_shift_mode_everywhere(bed):
    """Every NTCS message on the wire starts with the shift-mode magic
    in the same byte order, whatever machines are involved."""
    log = bed.record_wire_trace()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    framed = [blob for blob in _blobs(log) if len(blob) >= 4 + HEADER_BYTES]
    assert framed
    for blob in framed:
        assert blob[4:8] == b"NTCS"  # magic, MSB first, always


def test_wire_bodies_between_unlike_machines_are_character_data(bed):
    """Sec. 5 at the byte level: trace VAX→Sun application traffic and
    check the packed body really is the ASCII character transport
    format."""
    log = bed.record_wire_trace()
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    log.clear()
    client.ali.call(uadd, "echo", {"n": 0x01020304, "text": "wired"})
    app_messages = [msg for msg in _ntcs_messages(log)
                    if msg.kind == m.DATA and msg.type_id == 100]
    assert app_messages
    for msg in app_messages:
        assert msg.mode == 1  # packed on the wire
        assert all(9 <= byte < 127 for byte in msg.body), (
            "packed body must be character data"
        )
        assert b"16909060" in msg.body  # 0x01020304 as decimal ASCII
