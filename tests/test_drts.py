"""Integration tests for the DRTS services (paper Secs. 1, 1.3): the
network monitor, the precision time corrector, error logging, process
control."""

import pytest

from deployments import echo_server, single_net
from repro import SUN3
from repro.drts.errorlog import ErrorLogServer, enable_error_logging
from repro.drts.monitor import Monitor, enable_monitoring
from repro.drts.proctl import ProcessController
from repro.drts.timeservice import TimeServer, enable_time_correction
from repro.errors import SimulationError


# -- monitor --------------------------------------------------------------

def test_monitor_collects_send_and_recv_events():
    bed = single_net()
    monitor = Monitor(bed.module("mon", "sun1", register=False))
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    enable_monitoring(client)
    uadd = client.ali.locate("dest")
    client.ali.call(uadd, "echo", {"n": 1, "text": "x"})
    bed.settle()
    events = monitor.events_for("client")
    sends = [e for e in events if e["event"] == "send"]
    recvs = [e for e in events if e["event"] == "recv"]
    assert any(e["msg_type"] == "echo" for e in sends)
    assert any(e["msg_type"] == "echo" for e in recvs)
    # Naming-service traffic is monitored too (the Sec. 6.1 scenario).
    assert any(e["msg_type"].startswith("ns_") for e in sends)
    assert monitor.count() == monitor.count("send") + monitor.count("recv")


def test_monitor_events_carry_timestamps():
    bed = single_net()
    monitor = Monitor(bed.module("mon", "sun1", register=False))
    sink = bed.module("sink", "sun1")
    client = bed.module("client", "vax1")
    enable_monitoring(client)
    uadd = client.ali.locate("sink")
    bed.run_for(5.0)
    client.ali.send(uadd, "echo", {"n": 1, "text": "x"})
    bed.settle()
    events = [e for e in monitor.events_for("client")
              if e["msg_type"] == "echo"]
    assert events
    assert all(e["t"] >= 5.0 for e in events)


def test_monitor_survives_monitor_death():
    """Monitoring is best-effort: a dead monitor drops data but never
    breaks the application send path."""
    bed = single_net()
    monitor = Monitor(bed.module("mon", "sun1", register=False))
    sink = bed.module("sink", "sun1")
    client = bed.module("client", "vax1")
    mon_client = enable_monitoring(client)
    uadd = client.ali.locate("sink")
    client.ali.send(uadd, "echo", {"n": 1, "text": "a"})
    monitor.commod.process.kill()
    bed.settle()
    client.ali.send(uadd, "echo", {"n": 2, "text": "b"})
    bed.settle()
    assert sink.nucleus.lcm.queued() == 2  # both application sends landed
    assert mon_client.dropped >= 1


# -- time service -----------------------------------------------------------

def test_time_correction_beats_raw_clock():
    """E12's core claim: corrected timestamps are far closer to true
    time than the drifting local clock."""
    bed = single_net()
    # Give the client machine a badly wrong clock; the time server's
    # (vax1) is the reference.
    bed.machines["sun1"].clock.offset = 7.5
    bed.machines["sun1"].clock.drift = 1e-4
    TimeServer(bed.module("time", "vax1", register=False))
    client = bed.module("client", "sun1")
    time_client = enable_time_correction(client)
    bed.run_for(10.0)
    corrected = time_client.corrected_now()
    raw = bed.machines["sun1"].clock.now()
    true = bed.scheduler.now
    assert abs(raw - true) > 1.0
    assert abs(corrected - true) < 0.05
    assert time_client.syncs >= 1


def test_time_sync_is_periodic_not_per_call():
    """Sec. 6.2: "time service data communication only occurs
    periodically"."""
    bed = single_net()
    server = TimeServer(bed.module("time", "vax1", register=False))
    client = bed.module("client", "sun1")
    time_client = enable_time_correction(client, refresh_interval=100.0)
    for _ in range(10):
        time_client.corrected_now()
    assert time_client.syncs == 1
    bed.run_for(101.0)
    time_client.corrected_now()
    assert time_client.syncs == 2
    assert server.requests_served == 2


def test_time_client_survives_server_death():
    bed = single_net()
    server = TimeServer(bed.module("time", "vax1", register=False))
    client = bed.module("client", "sun1")
    time_client = enable_time_correction(client, refresh_interval=1.0)
    time_client.corrected_now()
    server.commod.process.kill()
    bed.run_for(2.0)
    # Stale but serviceable: no exception, failure counted.
    time_client.corrected_now()
    assert time_client.sync_failures >= 1


# -- error logging -----------------------------------------------------------

def test_error_log_ships_to_central_table():
    bed = single_net()
    errlog = ErrorLogServer(bed.module("errlog", "sun1", register=False))
    client = bed.module("client", "vax1")
    enable_error_logging(client)
    client.nucleus.log_error("something regrettable")
    bed.settle()
    entries = [e for e in errlog.entries if e["module"] == "client"]
    assert len(entries) == 1
    assert entries[0]["text"] == "something regrettable"
    # The local running table keeps it too.
    assert "something regrettable" in client.nucleus.error_log


def test_error_log_client_never_recurses():
    bed = single_net()
    client = bed.module("client", "vax1")
    shipper = enable_error_logging(client)  # no errlog server exists
    client.nucleus.log_error("shouting into the void")
    bed.settle()
    assert shipper.dropped == 1
    assert shipper.shipped == 0


# -- process control -------------------------------------------------------

def test_controller_spawn_and_kill():
    bed = single_net()
    controller = ProcessController(bed)
    commod = controller.spawn("worker", "sun1")
    assert commod.process.alive
    controller.kill("worker")
    assert not commod.process.alive
    with pytest.raises(SimulationError):
        controller.kill("nobody")


def test_controller_relocate_preserves_attrs():
    bed = single_net()
    bed.machine("sun2", SUN3, networks=["ether0"])
    bed.module("svc", "sun1", attrs={"kind": "index", "shard": "7"})
    controller = ProcessController(bed)
    new = controller.relocate("svc", "sun2")
    record = bed.name_server_instance.db.resolve_uadd(new.ali.uadd)
    assert record.attrs == {"kind": "index", "shard": "7"}
    assert new.nucleus.machine.name == "sun2"
    assert controller.relocations == 1


def test_controller_relocate_unknown_module():
    bed = single_net()
    controller = ProcessController(bed)
    with pytest.raises(SimulationError):
        controller.relocate("ghost", "sun1")
