"""Tests for the DRTS extensions: the NTCS-facing process-control
server and the monitor's analysis helpers."""

import pytest

from deployments import echo_server, single_net
from repro import SUN3
from repro.drts.monitor import Monitor, enable_monitoring
from repro.drts.proctl import ProcessController, ProcessControlServer


@pytest.fixture
def bed():
    bed = single_net()
    bed.machine("sun2", SUN3, networks=["ether0"])
    return bed


def _echo_rebuild(old, new):
    def handle(request):
        if request.reply_expected:
            new.ali.reply(request, "echo", {
                "n": request.values["n"],
                "text": f"{request.values['text']}@{new.nucleus.machine.name}",
            })
    new.ali.set_request_handler(handle)


# -- process-control server -------------------------------------------------

def test_relocation_requested_over_the_ntcs(bed):
    echo_server(bed, "server", "sun1")
    controller = ProcessController(bed)
    proctl = ProcessControlServer(
        bed.module("proctl.host", "vax1", register=False), controller)
    proctl.allow("server", _echo_rebuild)

    operator = bed.module("operator", "vax1")
    proctl_uadd = operator.ali.locate("drts.proctl")
    reply = operator.ali.call(proctl_uadd, "proctl_relocate", {
        "module": "server", "target_machine": "sun2",
    })
    assert reply.values["ok"] == 1
    assert "sun2" in reply.values["detail"]
    # And the relocation really happened, visible to any client.
    client = bed.module("client", "vax1")
    uadd = client.ali.locate("server")
    answer = client.ali.call(uadd, "echo", {"n": 1, "text": "hi"})
    assert answer.values["text"].endswith("@sun2")


def test_disallowed_relocation_refused(bed):
    bed.module("precious", "sun1")
    controller = ProcessController(bed)
    proctl = ProcessControlServer(
        bed.module("proctl.host", "vax1", register=False), controller)
    operator = bed.module("operator", "vax1")
    proctl_uadd = operator.ali.locate("drts.proctl")
    reply = operator.ali.call(proctl_uadd, "proctl_relocate", {
        "module": "precious", "target_machine": "sun2",
    })
    assert reply.values["ok"] == 0
    assert "not allowed" in reply.values["detail"]
    assert bed.modules["precious"].nucleus.machine.name == "sun1"


def test_relocation_to_unknown_machine_refused(bed):
    echo_server(bed, "server", "sun1")
    controller = ProcessController(bed)
    proctl = ProcessControlServer(
        bed.module("proctl.host", "vax1", register=False), controller)
    proctl.allow("server", _echo_rebuild)
    operator = bed.module("operator", "vax1")
    proctl_uadd = operator.ali.locate("drts.proctl")
    reply = operator.ali.call(proctl_uadd, "proctl_relocate", {
        "module": "server", "target_machine": "nonexistent",
    })
    assert reply.values["ok"] == 0


# -- monitor analysis -----------------------------------------------------

def test_monitor_summary_and_matrix(bed):
    monitor = Monitor(bed.module("mon", "sun1", register=False))
    echo_server(bed, "dest", "sun1")
    client = bed.module("client", "vax1")
    enable_monitoring(client)
    uadd = client.ali.locate("dest")
    for i in range(3):
        client.ali.call(uadd, "echo", {"n": i, "text": ""})
    bed.settle()
    summary = monitor.summary()
    assert summary["client"]["send"] >= 3
    assert summary["client"]["recv"] >= 3
    conversation = [e for e in monitor.events
                    if (e["module"], e["peer"]) == ("client", str(uadd))]
    assert len(conversation) >= 6  # sends + recvs


def test_monitor_send_rate(bed):
    monitor = Monitor(bed.module("mon", "sun1", register=False))
    sink = bed.module("sink", "sun1")
    client = bed.module("client", "vax1")
    enable_monitoring(client)
    uadd = client.ali.locate("sink")
    for i in range(5):
        client.ali.send(uadd, "echo", {"n": i, "text": ""})
        bed.run_for(1.0)  # one send per virtual second
    bed.settle()
    # Each echo send is stamped when it left: one per virtual second.
    times = [e["t"] for e in monitor.events_for("client")
             if e["event"] == "send" and e["msg_type"] == "echo"]
    assert len(times) == 5
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert gaps == pytest.approx([1.0] * 4, rel=0.05)
