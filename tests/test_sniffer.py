"""Tests for the wire sniffer, including wire-level faithfulness checks
of the paper's conversion claims."""

import pytest

from deployments import echo_server, single_net
from repro.netsim import Sniffer
from repro.ntcs import message as m
from repro.ntcs.message import HEADER_BYTES


@pytest.fixture
def bed():
    return single_net()


def test_sniffer_records_frames(bed):
    sniffer = Sniffer().attach(bed.networks["ether0"])
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    assert len(sniffer) > 0
    assert sniffer.between("vax1", "sun1")
    sniffer.detach()
    count = len(sniffer)
    client.ali.call(uadd, "echo", {"n": 2, "text": "y"})
    assert len(sniffer) == count  # detached: nothing new


def test_sniffer_filter(bed):
    sniffer = Sniffer(
        keep=lambda d: d.payload and d.payload[0] == "SYN"
    ).attach(bed.networks["ether0"])
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    assert len(sniffer) >= 1
    assert all(f.payload[0] == "SYN" for f in sniffer.frames)


def test_dropped_frames_are_not_recorded(bed):
    """The sniffer sees what was *delivered*: a frame the fault plan
    drops is not on its tape, while the wire trace — a second tap on
    the same network — still shows it, marked dropped."""
    ether = bed.networks["ether0"]
    log = bed.record_wire_trace()
    sniffer = Sniffer().attach(ether)
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    sniffer.clear()
    log.clear()
    sent_before = ether.frames_sent
    ether.faults.drop_next(2)
    client.ali.call(uadd, "echo", {"n": 2, "text": "y"})
    bed.settle()
    sent = ether.frames_sent - sent_before
    assert len(log) == sent
    assert sum(event["args"]["dropped"] for event in log.events) == 2
    assert len(sniffer) == sent - 2
    sniffer.detach()
    assert len(ether.trace_hooks) == 1  # the wire trace is still attached


def test_double_attach_rejected(bed):
    sniffer = Sniffer().attach(bed.networks["ether0"])
    with pytest.raises(RuntimeError):
        sniffer.attach(bed.networks["ether0"])


def _ntcs_messages(sniffer):
    """Parse NTCS messages out of sniffed TCP segments (length-framed)."""
    messages = []
    for blob in sniffer.payload_bytes():
        # Each TCP segment carries one framed message in these tests.
        if len(blob) >= 4 + HEADER_BYTES:
            try:
                messages.append(m.Msg.decode(bytes(blob[4:])))
            except Exception:
                pass
    return messages


def test_wire_headers_are_shift_mode_everywhere(bed):
    """Every NTCS message on the wire starts with the shift-mode magic
    in the same byte order, whatever machines are involved."""
    sniffer = Sniffer().attach(bed.networks["ether0"])
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    framed = [b for b in sniffer.payload_bytes()
              if len(b) >= 4 + HEADER_BYTES]
    assert framed
    for blob in framed:
        assert bytes(blob[4:8]) == b"NTCS"  # magic, MSB first, always


def test_wire_bodies_between_unlike_machines_are_character_data(bed):
    """Sec. 5 at the byte level: sniff VAX→Sun application traffic and
    check the packed body really is the ASCII character transport
    format."""
    sniffer = Sniffer().attach(bed.networks["ether0"])
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("dest")
    sniffer.clear()
    client.ali.call(uadd, "echo", {"n": 0x01020304, "text": "wired"})
    app_messages = [msg for msg in _ntcs_messages(sniffer)
                    if msg.kind == m.DATA and msg.type_id == 100]
    assert app_messages
    for msg in app_messages:
        assert msg.mode == 1  # packed on the wire
        assert all(9 <= byte < 127 for byte in msg.body), (
            "packed body must be character data"
        )
        assert b"16909060" in msg.body  # 0x01020304 as decimal ASCII
