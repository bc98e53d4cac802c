"""Canned deployments shared by integration tests and benchmarks."""

from __future__ import annotations

from repro import APOLLO, Field, StructDef, SUN3, Testbed, VAX
from repro.naming.shards import deploy_naming
from repro.ntcs.nucleus import NucleusConfig

# Application message types used across the integration tests.
ECHO = StructDef("echo", 100, [Field("n", "u32"), Field("text", "char[32]")])
NUMBERS = StructDef("numbers", 101, [
    Field("a", "u32"), Field("b", "i32"), Field("big", "u64"),
])
BULK = StructDef("bulk", 102, [Field("seq", "u32"), Field("data", "bytes")])


def register_app_types(bed: Testbed) -> None:
    for sdef in (ECHO, NUMBERS, BULK):
        bed.registry.register(sdef)


def single_net(config: NucleusConfig = None) -> Testbed:
    """One Ethernet, a VAX and a Sun, Name Server on the VAX."""
    bed = Testbed(config=config)
    bed.network("ether0", protocol="tcp")
    bed.machine("vax1", VAX, networks=["ether0"])
    bed.machine("sun1", SUN3, networks=["ether0"])
    bed.name_server("vax1")
    register_app_types(bed)
    return bed


def two_nets(config: NucleusConfig = None) -> Testbed:
    """Ethernet (tcp) + Apollo ring (mbx) joined by one gateway; Name
    Server on the Ethernet side — the paper's Fig. 2-2 shape."""
    bed = Testbed(config=config)
    bed.network("ether0", protocol="tcp")
    bed.network("ring0", protocol="mbx", latency=0.0005)
    bed.machine("vax1", VAX, networks=["ether0"])
    bed.machine("sun1", SUN3, networks=["ether0"])
    bed.machine("gw1", APOLLO, networks=["ether0", "ring0"])
    bed.machine("apollo1", APOLLO, networks=["ring0"])
    bed.machine("apollo2", APOLLO, networks=["ring0"])
    bed.name_server("vax1")
    bed.gateway("gw1", prime_for=["ring0"])
    register_app_types(bed)
    return bed


def chain_nets(hops: int, config: NucleusConfig = None) -> Testbed:
    """A linear chain of ``hops + 1`` networks joined by ``hops``
    gateways: net0 -gw0- net1 -gw1- ... -gw(h-1)- net(h).  Name Server
    on net0.  Used by the E5/E6 internet experiments."""
    bed = Testbed(config=config)
    for i in range(hops + 1):
        bed.network(f"net{i}", protocol="tcp")
    bed.machine("m0", VAX, networks=["net0"])
    bed.name_server("m0")
    for i in range(hops):
        bed.machine(f"gwm{i}", SUN3, networks=[f"net{i}", f"net{i + 1}"])
        # Each network routes toward the Name Server through the
        # gateway one step closer to net0.
        bed.gateway(f"gwm{i}", prime_for=[f"net{i + 1}"])
    bed.machine("mEnd", VAX, networks=[f"net{hops}"])
    register_app_types(bed)
    return bed


def sharded_single_net(shards: int = 2, replicas: int = 2,
                       config: NucleusConfig = None):
    """One Ethernet carrying a ``shards`` × ``replicas`` naming fleet
    (machine ``ns<shard><replica>`` per server) plus two app machines;
    every module's NspLayer is built from the fleet directory.  Returns
    ``(bed, {shard_id: [servers]})``."""
    bed = Testbed(config=config)
    bed.network("ether0", protocol="tcp")
    shard_machines = []
    for s in range(shards):
        row = []
        for r in range(replicas):
            name = f"ns{s}{r}"
            bed.machine(name, VAX if (s + r) % 2 == 0 else SUN3,
                        networks=["ether0"])
            row.append(name)
        shard_machines.append(row)
    bed.machine("app1", SUN3, networks=["ether0"])
    bed.machine("app2", VAX, networks=["ether0"])
    groups = deploy_naming(bed, shard_machines)
    register_app_types(bed)
    return bed, groups


def sharded_chain(hops: int = 2, shards: int = 2, replicas: int = 2,
                  config: NucleusConfig = None):
    """The :func:`chain_nets` internet shape with the naming fleet
    sharded across dedicated machines on net0: client machine ``m0`` on
    net0, ``hops`` gateways, far machine ``mEnd`` on the last network.
    Returns ``(bed, {shard_id: [servers]})``."""
    bed = Testbed(config=config)
    for i in range(hops + 1):
        bed.network(f"net{i}", protocol="tcp")
    shard_machines = []
    for s in range(shards):
        row = []
        for r in range(replicas):
            name = f"ns{s}{r}"
            bed.machine(name, VAX, networks=["net0"])
            row.append(name)
        shard_machines.append(row)
    bed.machine("m0", VAX, networks=["net0"])
    groups = deploy_naming(bed, shard_machines)
    for i in range(hops):
        bed.machine(f"gwm{i}", SUN3, networks=[f"net{i}", f"net{i + 1}"])
        bed.gateway(f"gwm{i}", prime_for=[f"net{i + 1}"])
    bed.machine("mEnd", VAX, networks=[f"net{hops}"])
    register_app_types(bed)
    return bed, groups


def echo_server(bed: Testbed, name: str, machine: str, **kwargs):
    """A module answering echo requests with the text upper-cased."""
    commod = bed.module(name, machine, **kwargs)

    def handle(request):
        if request.type_name == "echo" and request.reply_expected:
            commod.ali.reply(request, "echo", {
                "n": request.values["n"],
                "text": request.values["text"].upper(),
            })

    commod.ali.set_request_handler(handle)
    return commod


def send_burst_with_bad_frame(client, uadd):
    """Over ``client``'s established circuit to ``uadd``, send four
    frames back to back — "numbers" messages a=0 and a=1, a zeroed
    (bad-magic) frame, then a=3 — and return the LVC they went out on."""
    lvc = client.nucleus.lcm._routes[uadd].lvc
    frames = []
    lvc.mchan.send_message = frames.append  # capture instead of sending
    try:
        for a in (0, 1, 3):
            client.ali.send(uadd, "numbers", {"a": a, "b": 0, "big": 0})
    finally:
        del lvc.mchan.send_message
    frames.insert(2, bytes(len(frames[0])))
    for frame in frames:
        lvc.mchan.send_message(frame)
    return lvc
