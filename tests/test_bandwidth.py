"""Tests for the bandwidth (serialization delay) model and its
interaction with the conversion modes."""

import pytest

from repro import Field, StructDef, SUN3, Testbed, VAX
from repro.netsim import Network, Scheduler


def test_bandwidth_adds_serialization_delay():
    sched = Scheduler()
    slow = Network(sched, "slow", latency=0.001, bandwidth=1000.0)
    a = slow.attach("a")
    b = slow.attach("b")
    arrivals = []
    b.bind_protocol("x", lambda d: arrivals.append(sched.now))
    a.send("b", "x", ("small",), size=100)
    a.send("b", "x", ("big",), size=1000)
    sched.run_until_idle()
    # 0.001 + 100/1000 = 0.101; 0.001 + 1000/1000 = 1.001 (plus ordering)
    assert arrivals[0] == pytest.approx(0.101)
    assert arrivals[1] == pytest.approx(1.001)


def test_no_bandwidth_means_latency_only():
    sched = Scheduler()
    fast = Network(sched, "fast", latency=0.002)
    a = fast.attach("a")
    b = fast.attach("b")
    arrivals = []
    b.bind_protocol("x", lambda d: arrivals.append(sched.now))
    a.send("b", "x", ("huge",), size=10 ** 9)
    sched.run_until_idle()
    assert arrivals[0] == pytest.approx(0.002)


def test_bytes_accounting():
    sched = Scheduler()
    net = Network(sched, "n", latency=0.001)
    a = net.attach("a")
    net.attach("b")
    a.send("b", "x", (), size=500)
    a.send("b", "x", ())  # default frame size
    assert net.bytes_sent == 500 + Network.DEFAULT_FRAME_SIZE


def test_packed_mode_costs_wire_time_on_slow_networks():
    """With a bandwidth model, the 2.4–2.7x character-format expansion
    (Sec. 5.2) becomes measurable latency — the reason the paper avoids
    needless conversions and uses shift mode for headers."""
    def round_trip_time(src_machine, dst_machine):
        bed = Testbed()
        bed.network("ether0", protocol="tcp", latency=0.001,
                    bandwidth=100_000.0)
        bed.machine("vax1", VAX, networks=["ether0"])
        bed.machine("vax2", VAX, networks=["ether0"])
        bed.machine("sun1", SUN3, networks=["ether0"])
        bed.name_server("vax1")
        payload = StructDef("payload", 100, [
            Field("seq", "u32"),
        ] + [Field(f"w{i}", "u32") for i in range(500)])  # ~2 KB struct
        bed.registry.register(payload)
        # Large values: ten decimal digits each, so the character
        # format genuinely expands (small ints would actually shrink).
        values = {"seq": 1}
        values.update({f"w{i}": 4_000_000_000 - i for i in range(500)})

        server = bed.module("dest", dst_machine)
        server.ali.set_request_handler(
            lambda req: server.ali.reply(req, "payload", values))
        client = bed.module("client", src_machine)
        uadd = client.ali.locate("dest")
        client.ali.call(uadd, "payload", values)  # warm up the circuit
        t0 = bed.now
        client.ali.call(uadd, "payload", values)
        return bed.now - t0

    image_time = round_trip_time("vax1", "vax2")   # VAX->VAX: image
    packed_time = round_trip_time("vax1", "sun1")  # VAX->Sun: packed
    assert packed_time > image_time * 1.5
