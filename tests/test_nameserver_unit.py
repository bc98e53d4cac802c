"""Focused tests for the Name Server module: protocol edge cases,
error replies, counters, self-registration."""

import pytest

from deployments import single_net
from repro import NAME_SERVER_UADD
from repro.ntcs.message import FLAG_INTERNAL


@pytest.fixture
def bed():
    return single_net()


def test_self_registration_matches_convention(bed):
    server = bed.name_server_instance
    assert server.uadd == NAME_SERVER_UADD
    record = server.db.resolve_name("name.server")
    assert record.attrs == {"kind": "nameserver"}
    assert record.blob_on("ether0") == server.listen_blob


def test_ns_counts_requests_by_type(bed):
    client = bed.module("client", "vax1")  # one ns_register
    client.ali.ping_name_server()          # one ns_ping
    server = bed.name_server_instance
    assert server.counters["ns_register"] == 1
    assert server.counters["ns_ping"] == 1


def test_unknown_request_type_counted_and_ignored(bed):
    client = bed.module("client", "vax1")
    # "echo" is an application type the NS has no handler for.
    client.nucleus.lcm.send(NAME_SERVER_UADD, "echo",
                            {"n": 1, "text": "confused"})
    bed.settle()
    assert bed.name_server_instance.counters["unknown_requests"] == 1


def test_resolve_name_not_found_reply(bed):
    client = bed.module("client", "vax1")
    reply = client.nucleus.lcm.call(NAME_SERVER_UADD, "ns_resolve_name",
                                    {"name": "ghost"}, flags=FLAG_INTERNAL)
    assert reply.type_name == "ns_resolve_name_ack"
    assert reply.values["found"] == 0


def test_resolve_uadd_not_found_reply(bed):
    client = bed.module("client", "vax1")
    reply = client.nucleus.lcm.call(NAME_SERVER_UADD, "ns_resolve_uadd",
                                    {"uadd": 424242}, flags=FLAG_INTERNAL)
    assert reply.type_name == "ns_record_ack"
    assert reply.values["found"] == 0
    assert reply.values["record"] == b""


def test_forward_unknown_uadd_is_none_status(bed):
    from repro.naming import protocol as p
    client = bed.module("client", "vax1")
    reply = client.nucleus.lcm.call(NAME_SERVER_UADD, "ns_forward",
                                    {"uadd": 424242}, flags=FLAG_INTERNAL)
    assert reply.values["status"] == p.FWD_NONE


def test_deregister_unknown_is_not_ok(bed):
    client = bed.module("client", "vax1")
    reply = client.nucleus.lcm.call(NAME_SERVER_UADD, "ns_deregister",
                                    {"uadd": 424242}, flags=FLAG_INTERNAL)
    assert reply.values["ok"] == 0


def test_malformed_register_payload_yields_error_ack(bed):
    client = bed.module("client", "vax1")
    reply = client.nucleus.lcm.call(NAME_SERVER_UADD, "ns_register", {
        "name": "broken", "mtype": "VAX",
        "payload": b"no separator at all",
    }, flags=FLAG_INTERNAL)
    assert reply.type_name == "ns_ack"
    assert reply.values["ok"] == 0
    # And the error landed in the NS's running error table (Sec. 6.3).
    assert bed.name_server_instance.nucleus.error_log


def test_list_gateways_empty(bed):
    client = bed.module("client", "vax1")
    reply = client.nucleus.lcm.call(NAME_SERVER_UADD, "ns_list_gw", {},
                                    flags=FLAG_INTERNAL)
    assert reply.values["count"] == 0
    assert reply.values["records"] == b""


def test_query_attrs_roundtrip_over_wire(bed):
    from repro.naming import protocol as p
    bed.module("tagged", "sun1", attrs={"kind": "demo", "tier": "2"})
    client = bed.module("client", "vax1")
    reply = client.nucleus.lcm.call(NAME_SERVER_UADD, "ns_query_attrs", {
        "query": p.encode_attrs({"kind": "demo"}).encode("ascii"),
    }, flags=FLAG_INTERNAL)
    records = p.decode_records(reply.values["records"])
    assert [r.name for r in records] == ["tagged"]
    assert records[0].attrs["tier"] == "2"


def test_ns_survives_many_clients(bed):
    """Stress-ish: 30 modules registering and resolving concurrently-ish."""
    modules = [bed.module(f"m{i}", "sun1" if i % 2 else "vax1")
               for i in range(30)]
    client = bed.module("client", "vax1")
    for i in range(30):
        assert client.ali.locate(f"m{i}") == modules[i].ali.uadd
    server = bed.name_server_instance
    assert server.counters["ns_register"] == 31  # 30 + the client
    assert len(server.db) == 32  # + the NS itself


# Hostile bytes in a naming field (hardening: decoder fuzzing).  Each
# request carries one non-ASCII byte where the protocol expects ASCII.
_NON_ASCII_REQUESTS = {
    "ns_register": {"name": "evil", "mtype": "VAX", "payload": b"\xff"},
    "ns_resolve_batch": {"count": 1, "names": b"\xff"},
    "ns_query_attrs": {"query": b"\xff"},
}


@pytest.mark.parametrize("type_name", sorted(_NON_ASCII_REQUESTS))
def test_non_ascii_datagram_is_logged_not_raised(bed, type_name):
    """A datagram nobody waits for must not raise out of an unrelated
    ``settle()``: the server logs it as a failed request."""
    client = bed.module("client", "vax1")
    assert client.nucleus.lcm.datagram(
        NAME_SERVER_UADD, type_name, _NON_ASCII_REQUESTS[type_name],
        flags=FLAG_INTERNAL)
    bed.settle()
    assert any(type_name in line
               for line in bed.name_server_instance.nucleus.error_log)


@pytest.mark.parametrize("type_name", sorted(_NON_ASCII_REQUESTS))
def test_non_ascii_call_gets_an_error_ack(bed, type_name):
    """Sent as a call, the same request is answered ``ns_ack ok=0``."""
    client = bed.module("client", "vax1")
    reply = client.nucleus.lcm.call(
        NAME_SERVER_UADD, type_name, _NON_ASCII_REQUESTS[type_name],
        flags=FLAG_INTERNAL)
    assert reply.type_name == "ns_ack"
    assert reply.values["ok"] == 0
