"""Focused tests for Gateway mechanics: validation, identity, hop
limits, splice bookkeeping."""

import pytest

from deployments import (
    chain_nets,
    echo_server,
    send_burst_with_bad_frame,
    two_nets,
)
from repro import APOLLO, Testbed, VAX
from repro.errors import NtcsError
from repro.machine import SimProcess
from repro.ntcs import message as m
from repro.ntcs.gateway import Gateway
from repro.ntcs.iplayer import MAX_HOPS


def test_gateway_requires_two_networks():
    bed = Testbed()
    bed.network("ether0", protocol="tcp")
    bed.machine("single", VAX, networks=["ether0"])
    process = SimProcess(bed.machines["single"], "gw")
    with pytest.raises(NtcsError, match="at least 2"):
        Gateway(process, bed.registry, bed.wellknown)


def test_gateway_registers_all_networks():
    bed = two_nets()
    gw = bed.gateways["gw1"]
    record = bed.name_server_instance.db.resolve_uadd(gw.uadd)
    assert record.is_gateway
    assert sorted(record.networks()) == ["ether0", "ring0"]
    assert record.blob_on("ether0") and record.blob_on("ring0")
    # All stacks share the gateway identity.
    assert all(nucleus.self_addr == gw.uadd
               for nucleus in gw.stacks.values())


def test_gateway_is_mine_recognizes_all_identities():
    bed = two_nets()
    gw = bed.gateways["gw1"]
    assert gw._is_mine(gw.uadd)
    from repro.ntcs.address import make_uadd
    assert not gw._is_mine(make_uadd(999))


def test_gateway_splice_accounting():
    bed = two_nets()
    echo_server(bed, "ring.echo", "apollo1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("ring.echo")
    gw = bed.gateways["gw1"]
    before = gw.splice_count()
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    after_call = gw.splice_count()
    assert after_call > before
    # Closing the client's circuit unwinds exactly its splice (other
    # live circuits — e.g. modules' naming traffic — stay spliced).
    client.nucleus.lcm._drop_route(uadd)
    bed.settle()
    assert gw.splice_count() == after_call - 1


def test_hop_count_limit_naks():
    """An IVC_OPEN arriving with aux >= MAX_HOPS must be refused, not
    forwarded (routing-loop backstop)."""
    bed = two_nets()
    echo_server(bed, "ring.echo", "apollo1")
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("ring.echo")

    # Sabotage: make the client's IP-layer start its circuits at the
    # hop ceiling.
    original = client.nucleus.ip.open_ivc

    gw = bed.gateways["gw1"]
    refused_before = gw.circuits_refused

    # Open an LVC to the gateway and send a too-old IVC_OPEN by hand.
    nucleus = client.nucleus
    record = bed.name_server_instance.db.resolve_uadd(gw.uadd)
    lvc = nucleus.nd.open_lvc(gw.uadd, record.blob_on("ether0"))
    msg = m.Msg(kind=m.IVC_OPEN, src=nucleus.self_addr, dst=uadd,
                flags=m.FLAG_PACKED | m.FLAG_INTERNAL, aux=MAX_HOPS)
    msg.type_id, msg.body = nucleus.pack_internal("ivc_open", {
        "dst_network": "ring0", "src_mtype": "VAX", "src_listen_blob": "",
    })
    nucleus.nd.send(lvc, msg)
    bed.settle()
    assert gw.circuits_refused == refused_before + 1


def test_nongateway_module_naks_foreign_ivc_open():
    """A plain module receiving an IVC_OPEN for someone else refuses it
    ("only gateways may forward")."""
    bed = two_nets()
    bystander = bed.module("bystander", "sun1")
    client = bed.module("client", "vax1")
    uadd_bystander = client.ali.locate("bystander")
    nucleus = client.nucleus
    record = bed.name_server_instance.db.resolve_uadd(uadd_bystander)
    lvc = nucleus.nd.open_lvc(uadd_bystander, record.blob_on("ether0"))
    from repro.ntcs.address import make_uadd
    msg = m.Msg(kind=m.IVC_OPEN, src=nucleus.self_addr,
                dst=make_uadd(4242),  # not the bystander
                flags=m.FLAG_PACKED | m.FLAG_INTERNAL, aux=0)
    msg.type_id, msg.body = nucleus.pack_internal("ivc_open", {
        "dst_network": "ring0", "src_mtype": "VAX", "src_listen_blob": "",
    })
    nucleus.nd.send(lvc, msg)
    bed.settle()
    assert bystander.nucleus.counters["ivc_open_refused_not_gateway"] == 1


def test_gateway_forwards_without_conversion():
    """Pass-through bytes are forwarded verbatim: the gateway's own
    machine type must not affect the end-to-end mode (the gateway here
    is an Apollo, the ends are VAX and Apollo: packed)."""
    bed = two_nets()
    received = []
    sink = bed.module("ring.sink", "apollo1")
    sink.ali.set_request_handler(lambda msg: received.append(msg))
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("ring.sink")
    client.ali.send(uadd, "numbers", {"a": 1, "b": 2, "big": 3})
    bed.settle()
    assert received[0].mode == 1  # packed: VAX->Apollo, despite Apollo gw
    registry_counters = bed.registry.counters
    # Exactly one pack (at the source) and one unpack (at the sink):
    # the gateway converted nothing.
    assert registry_counters["pack_calls"] >= 1


def test_malformed_frame_mid_burst_on_spliced_lvc():
    """[ok, ok, bad-magic, ok] in one TCP chunk on a spliced LVC: the
    first two are forwarded, the third closes the leg (tearing the
    circuit down, Sec. 4.3), and the fourth is never forwarded."""
    bed = two_nets()
    received = []
    sink = bed.module("ring.sink", "apollo1")
    sink.ali.set_request_handler(lambda msg: received.append(msg.values["a"]))
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("ring.sink")
    client.ali.send(uadd, "numbers", {"a": 99, "b": 0, "big": 0})
    bed.settle()
    gw = bed.gateways["gw1"]
    forwarded_before = gw.messages_forwarded
    splices_before = gw.splice_count()
    lvc = send_burst_with_bad_frame(client, uadd)
    bed.settle()
    assert received == [99, 0, 1]
    assert gw.messages_forwarded == forwarded_before + 2
    assert gw.stacks["ether0"].counters["nd_malformed_messages"] == 1
    assert gw.splice_count() == splices_before - 1
    assert not lvc.open


def test_chain_nets_prime_routing_reaches_ns():
    """Modules on the far end of a 3-gateway chain can register —
    their NS traffic rides the prime-gateway chain."""
    bed = chain_nets(3)
    far = bed.module("far.worker", "mEnd")
    assert not far.address.temporary
