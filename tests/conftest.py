"""Shared fixtures: schedulers, networks, machines, and IPCS instances,
and the wire-conformance recorder."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from deployments import Substrate
from repro.analysis import Project
from repro.analysis.model import extract, replay_trace
from repro.ipcs import SimMbxIpcs, SimTcpIpcs
from repro.machine import APOLLO, Machine, SimProcess, SUN3, VAX
from repro.netsim import NetTraceLog, Network, Scheduler
from repro.testbed import Testbed
from repro.util.counters import FRAMES_OUT_OF_MODEL


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "out_of_model: the test delivers a frame out of the "
        "declared machines on purpose and asserts its own "
        "frames_out_of_model count")


def _nuclei(bed):
    """Every Nucleus of a bed: gateway stacks, name servers, modules."""
    for gateway in bed.gateways.values():
        yield from gateway.stacks.values()
    servers = [bed.name_server_instance, *bed.name_shard_servers.values(),
               *(server for group in bed.shard_groups.values()
                 for server in group)]
    yield from {id(server): server.nucleus for server in servers
                if server is not None}.values()
    for commod in bed.modules.values():
        yield commod.nucleus


@pytest.fixture(scope="session")
def wire_model():
    """The protocol model extracted from ``src/repro``, once per run."""
    return extract(Project.load(
        [Path(__file__).resolve().parent.parent / "src" / "repro"]))


@pytest.fixture
def wire_conformance(request, monkeypatch, wire_model):
    """Record every network a ``Testbed`` creates, one
    :class:`NetTraceLog` per bed, and after the test replay each bed's
    trace through the declared wire machines (``verify --trace``).  Any
    finding fails the test and writes that trace into
    ``chaos-failures/`` for replay.  A bed whose networks carried nothing
    (real sockets) is skipped."""
    logs = {}
    create = Testbed.network

    def traced_network(bed, *args, **kwargs):
        network = create(bed, *args, **kwargs)
        logs.setdefault(bed, NetTraceLog()).attach(network)
        return network

    monkeypatch.setattr(Testbed, "network", traced_network)
    yield
    failures = []
    for index, (bed, log) in enumerate(logs.items()):
        if not log.events:
            continue
        name = re.sub(r"[^\w.-]+", "_", request.node.nodeid)
        path = f"{name}.bed{index}.jsonl"
        findings, _checked = replay_trace(path, wire_model,
                                          events=log.events)
        found = [finding.render() for finding in findings]
        if found:
            out_dir = Path("chaos-failures")
            out_dir.mkdir(exist_ok=True)
            log.dump_jsonl(out_dir / path)
            failures.extend(found)
    if failures:
        pytest.fail("wire trace leaves the declared machines:\n"
                    + "\n".join(failures), pytrace=False)


@pytest.fixture(autouse=True)
def no_frames_out_of_model(request, monkeypatch):
    """Fail a test when a Nucleus of any ``Testbed`` it built (a
    ``RealDeployment`` too) dropped a frame out of its own machines
    (``frames_out_of_model``).  A test marked ``out_of_model`` delivers
    such frames on purpose and asserts its own counts."""
    if request.node.get_closest_marker("out_of_model"):
        yield
        return
    beds = []
    init = Testbed.__init__

    def recorded_init(bed, *args, **kwargs):
        init(bed, *args, **kwargs)
        beds.append(bed)

    monkeypatch.setattr(Testbed, "__init__", recorded_init)
    yield
    found = [f"bed {index}: {nucleus.process.name} dropped "
             f"{nucleus.counters[FRAMES_OUT_OF_MODEL]} frame(s) out of model"
             for index, bed in enumerate(beds) for nucleus in _nuclei(bed)
             if nucleus.counters[FRAMES_OUT_OF_MODEL]]
    if found:
        pytest.fail("\n".join(found), pytrace=False)


@pytest.fixture(params=["sim", "real"])
def substrate(request):
    """What a ``tests/deployments.py`` topology runs on: the simulator,
    then real loopback sockets (shut down after the test).  A test that
    wants its own ids parametrizes it with ``indirect=True``."""
    substrate = Substrate(request.param)
    yield substrate
    substrate.shutdown()


@pytest.fixture
def sched():
    return Scheduler()


@pytest.fixture
def ether(sched):
    """One Ethernet-like network."""
    return Network(sched, "ether0", latency=0.001)


@pytest.fixture
def ring(sched):
    """One Apollo-ring-like network."""
    return Network(sched, "ring0", latency=0.0005)


@pytest.fixture
def vax1(sched, ether):
    machine = Machine(sched, "vax1", VAX)
    machine.attach_network(ether)
    SimTcpIpcs(machine, ether)
    return machine


@pytest.fixture
def sun1(sched, ether):
    machine = Machine(sched, "sun1", SUN3)
    machine.attach_network(ether)
    SimTcpIpcs(machine, ether)
    return machine


@pytest.fixture
def apollo1(sched, ring):
    machine = Machine(sched, "apollo1", APOLLO)
    machine.attach_network(ring)
    SimMbxIpcs(machine, ring)
    return machine


@pytest.fixture
def apollo2(sched, ring):
    machine = Machine(sched, "apollo2", APOLLO)
    machine.attach_network(ring)
    SimMbxIpcs(machine, ring)
    return machine


def make_process(machine, name):
    return SimProcess(machine, name)


@pytest.fixture
def proc_factory():
    return make_process
