"""Shared fixtures: schedulers, networks, machines, and IPCS instances."""

from __future__ import annotations

import pytest

from deployments import Substrate
from repro.ipcs import SimMbxIpcs, SimTcpIpcs
from repro.machine import APOLLO, Machine, SimProcess, SUN3, VAX
from repro.netsim import Network, Scheduler


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
