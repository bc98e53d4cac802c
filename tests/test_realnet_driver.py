"""Edge-case tests for the real-socket ND driver."""

import pytest

from repro import VAX
from repro.errors import ConnectionRefused, NetworkUnreachable
from repro.machine import Machine, SimProcess
from repro.netsim import Network
from repro.realnet.driver import LoopbackRealIpcs, LoopbackTcpDriver
from repro.realnet.kernel import RealtimeKernel


@pytest.fixture
def rig():
    kernel = RealtimeKernel()
    machine = Machine(kernel, "m1", VAX)
    ipcs = LoopbackRealIpcs(machine, Network(kernel, "loop0"))
    driver = LoopbackTcpDriver(ipcs)
    process = SimProcess(machine, "p1")
    yield kernel, machine, driver, process
    kernel.close()


def test_listen_assigns_real_port(rig):
    kernel, machine, driver, process = rig
    blob = driver.listen(process, lambda mchan: None)
    kind, network, host, port = blob.split(":")
    assert kind == "rtcp" and network == "loop0" and host == "127.0.0.1"
    assert int(port) > 0


def test_connect_refused_when_nothing_listens(rig):
    kernel, machine, driver, process = rig
    with pytest.raises(ConnectionRefused):
        driver.connect(process, "rtcp:loop0:127.0.0.1:1", timeout=2.0)


def test_connect_rejects_foreign_blobs(rig):
    kernel, machine, driver, process = rig
    with pytest.raises(NetworkUnreachable):
        driver.connect(process, "rtcp:othernet:127.0.0.1:80")


def test_round_trip_and_close_notification(rig):
    kernel, machine, driver, process = rig
    accepted = []
    blob = driver.listen(process, accepted.append)
    client_channel = driver.connect(process, blob, timeout=2.0)
    assert kernel.pump_until(lambda: accepted, timeout=2.0)
    got = []
    accepted[0].set_message_handler(got.append)
    client_channel.send_message(b"over real sockets")
    assert kernel.pump_until(lambda: got, timeout=2.0)
    assert got == [b"over real sockets"]

    reasons = []
    accepted[0].set_close_handler(reasons.append)
    client_channel.close()
    assert kernel.pump_until(lambda: reasons, timeout=2.0)
    assert reasons == ["closed by peer"]


def test_large_message_crosses_socket_buffers(rig):
    """A message bigger than typical socket buffers exercises the
    partial-write (EAGAIN) path."""
    kernel, machine, driver, process = rig
    accepted = []
    blob = driver.listen(process, accepted.append)
    client_channel = driver.connect(process, blob, timeout=2.0)
    kernel.pump_until(lambda: accepted, timeout=2.0)
    got = []
    accepted[0].set_message_handler(got.append)
    big = bytes(range(256)) * 4096  # 1 MiB
    client_channel.send_message(big)
    assert kernel.pump_until(lambda: got, timeout=10.0)
    assert got[0] == big


def test_process_kill_closes_listener(rig):
    kernel, machine, driver, process = rig
    blob = driver.listen(process, lambda mchan: None)
    process.kill()
    other = SimProcess(machine, "p2")
    with pytest.raises(ConnectionRefused):
        driver.connect(other, blob, timeout=1.0)
