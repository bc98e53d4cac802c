"""Canned deployments shared by integration tests and benchmarks.

Every builder takes a :class:`Substrate`: the simulator (the default)
or real loopback sockets, where each network is an ``rtcp`` port
namespace under one realtime kernel.  The topology, and every count the
layers above the ND-Layer keep, is the same on both."""

from __future__ import annotations

from typing import List

from repro import APOLLO, Field, StructDef, SUN3, Testbed, VAX
from repro.naming.shards import deploy_naming
from repro.ntcs.nucleus import NucleusConfig
from repro.realnet import RealDeployment


class Substrate:
    """What a canned topology runs on.  ``"sim"`` builds a virtual-time
    :class:`Testbed` whose networks keep their native IPCS; ``"real"``
    builds a :class:`RealDeployment` whose networks are all ``rtcp`` and
    remembers it, so :meth:`shutdown` can release its sockets."""

    def __init__(self, name: str):
        self.name = name
        self.beds: List[RealDeployment] = []

    def bed(self, config: NucleusConfig = None) -> Testbed:
        if self.name == "sim":
            return Testbed(config=config)
        bed = RealDeployment(config)
        self.beds.append(bed)
        return bed

    def protocol(self, native: str) -> str:
        return native if self.name == "sim" else "rtcp"

    def shutdown(self) -> None:
        while self.beds:
            self.beds.pop().shutdown()


SIM = Substrate("sim")

# Application message types used across the integration tests.
ECHO = StructDef("echo", 100, [Field("n", "u32"), Field("text", "char[32]")])
NUMBERS = StructDef("numbers", 101, [
    Field("a", "u32"), Field("b", "i32"), Field("big", "u64"),
])
BULK = StructDef("bulk", 102, [Field("seq", "u32"), Field("data", "bytes")])


def register_app_types(bed: Testbed) -> None:
    for sdef in (ECHO, NUMBERS, BULK):
        bed.registry.register(sdef)


def single_net(config: NucleusConfig = None,
               substrate: Substrate = SIM) -> Testbed:
    """One Ethernet, a VAX and a Sun, Name Server on the VAX."""
    bed = substrate.bed(config)
    bed.network("ether0", protocol=substrate.protocol("tcp"))
    bed.machine("vax1", VAX, networks=["ether0"])
    bed.machine("sun1", SUN3, networks=["ether0"])
    bed.name_server("vax1")
    register_app_types(bed)
    return bed


def two_nets(config: NucleusConfig = None,
             substrate: Substrate = SIM) -> Testbed:
    """Ethernet (tcp) + Apollo ring (mbx) joined by one gateway; Name
    Server on the Ethernet side — the paper's Fig. 2-2 shape."""
    bed = substrate.bed(config)
    bed.network("ether0", protocol=substrate.protocol("tcp"))
    bed.network("ring0", protocol=substrate.protocol("mbx"), latency=0.0005)
    bed.machine("vax1", VAX, networks=["ether0"])
    bed.machine("sun1", SUN3, networks=["ether0"])
    bed.machine("gw1", APOLLO, networks=["ether0", "ring0"])
    bed.machine("apollo1", APOLLO, networks=["ring0"])
    bed.machine("apollo2", APOLLO, networks=["ring0"])
    bed.name_server("vax1")
    bed.gateway("gw1", prime_for=["ring0"])
    register_app_types(bed)
    return bed


def chain_nets(hops: int, config: NucleusConfig = None,
               substrate: Substrate = SIM) -> Testbed:
    """A linear chain of ``hops + 1`` networks joined by ``hops``
    gateways: net0 -gw0- net1 -gw1- ... -gw(h-1)- net(h).  Name Server
    on net0.  Used by the E5/E6 internet experiments."""
    bed = substrate.bed(config)
    for i in range(hops + 1):
        bed.network(f"net{i}", protocol=substrate.protocol("tcp"))
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
                       config: NucleusConfig = None,
                       substrate: Substrate = SIM):
    """One Ethernet carrying a ``shards`` × ``replicas`` naming fleet
    (machine ``ns<shard><replica>`` per server) plus two app machines;
    every module's NspLayer is built from the fleet directory.  Returns
    ``(bed, {shard_id: [servers]})``."""
    bed = substrate.bed(config)
    bed.network("ether0", protocol=substrate.protocol("tcp"))
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
                  config: NucleusConfig = None,
                  substrate: Substrate = SIM):
    """The :func:`chain_nets` internet shape with the naming fleet
    sharded across dedicated machines on net0: client machine ``m0`` on
    net0, ``hops`` gateways, far machine ``mEnd`` on the last network.
    Returns ``(bed, {shard_id: [servers]})``."""
    bed = substrate.bed(config)
    for i in range(hops + 1):
        bed.network(f"net{i}", protocol=substrate.protocol("tcp"))
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


def heal_naming_shards(bed: Testbed) -> int:
    """Run one anti-entropy round on every live name server (the test
    harness's convergence step); returns how many records moved."""
    applied = 0
    for group in bed.shard_groups.values():
        for server in group:
            if server.process.alive:
                applied += server.run_antientropy()
    return applied


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


def veteran_of_far_echo(bed: Testbed):
    """On a :func:`sharded_chain`: an echo server ``far.echo`` on
    ``mEnd`` and a ``veteran`` client on ``m0`` that has called it once,
    so the last gateway's stack on the far network holds the server's
    blob from the open protocol (Sec. 3.3).  Returns ``(server,
    veteran, server_uadd)``."""
    server = echo_server(bed, "far.echo", "mEnd")
    veteran = bed.module("veteran", "m0")
    uadd = veteran.ali.locate("far.echo")
    veteran.ali.call(uadd, "echo", {"n": 0, "text": "warm"})
    bed.settle()
    return server, veteran, uadd


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
