"""Tests for the window manager: the second message-based application
domain on the same NTCS (paper ref [22])."""

import pytest

from deployments import single_net, two_nets
from repro.errors import NtcsError
from repro.wm import WindowClient, WindowManager, register_wm_types


@pytest.fixture
def system():
    bed = single_net()
    register_wm_types(bed.registry)
    wm = WindowManager(bed.module("wm.host", "sun1", register=False))
    app = bed.module("app", "vax1")
    client = WindowClient(app)
    return bed, wm, app, client


def test_create_write_snapshot(system):
    bed, wm, app, client = system
    wid = client.create("status", width=20, height=3)
    assert client.write(wid, 0, "hello")
    assert client.write(wid, 2, "bottom row")
    title, rows = client.snapshot(wid)
    assert title == "status"
    assert rows == ["hello", "", "bottom row"]


def test_width_clipping(system):
    bed, wm, app, client = system
    wid = client.create("narrow", width=5, height=1)
    client.write(wid, 0, "a very long line of text")
    _, rows = client.snapshot(wid)
    assert rows == ["a ver"]


def test_row_out_of_range(system):
    bed, wm, app, client = system
    wid = client.create("w", width=10, height=2)
    assert client.write(wid, 5, "nope") is False


def test_bad_geometry_refused(system):
    bed, wm, app, client = system
    with pytest.raises(NtcsError, match="bad geometry"):
        client.create("huge", width=10_000, height=1)


def test_ownership_enforced(system):
    bed, wm, app, client = system
    wid = client.create("mine", width=10, height=2)
    intruder_commod = bed.module("intruder", "vax1")
    intruder = WindowClient(intruder_commod)
    assert intruder.write(wid, 0, "hijack") is False
    # Snapshots are open, though.
    assert intruder.snapshot(wid) is not None
    assert intruder.close(wid) is False
    assert client.close(wid) is True


def test_close_and_list(system):
    bed, wm, app, client = system
    w1 = client.create("one", width=5, height=1)
    w2 = client.create("two", width=5, height=1)
    assert client.list_windows() == [(w1, "one"), (w2, "two")]
    client.close(w1)
    assert client.list_windows() == [(w2, "two")]
    assert client.snapshot(w1) is None


def test_input_events_flow_to_owner(system):
    bed, wm, app, client = system
    received = []
    client.on_input = lambda wid, text: received.append((wid, text))
    wid = client.create("console", width=40, height=5)
    assert wm.inject_input(wid, "ls -l") is True
    bed.settle()
    assert received == [(wid, "ls -l")]
    assert wm.inputs_forwarded == 1
    assert wm.inject_input(9999, "void") is False


def test_input_after_owner_death_is_dropped(system):
    bed, wm, app, client = system
    wid = client.create("doomed", width=10, height=1)
    app.process.kill()
    bed.settle()
    assert wm.inject_input(wid, "anyone there?") is False
    assert wm.inputs_dropped == 1


def test_wm_input_multiplexes_with_app_traffic(system):
    """A module can serve its own requests *and* receive window input:
    the client chains to the previously installed handler."""
    bed, wm, app, client = system
    # app already has the WindowClient dispatch installed; add app logic
    # by re-wrapping: install app handler first on a fresh module.
    worker = bed.module("worker", "sun1")
    app_messages = []
    worker.ali.set_request_handler(
        lambda msg: app_messages.append(msg.type_name))
    worker_client = WindowClient(worker)
    inputs = []
    worker_client.on_input = lambda wid, text: inputs.append(text)
    wid = worker_client.create("mixed", width=10, height=1)

    other = bed.module("other", "vax1")
    uadd = other.ali.locate("worker")
    other.ali.send(uadd, "echo", {"n": 1, "text": "app traffic"})
    wm.inject_input(wid, "user typed")
    bed.settle()
    assert app_messages == ["echo"]
    assert inputs == ["user typed"]


def test_windows_across_networks():
    """The display server on the Apollo ring, the application on the
    VAX: window traffic crosses the gateway like anything else."""
    bed = two_nets()
    register_wm_types(bed.registry)
    wm = WindowManager(bed.module("wm.host", "apollo1", register=False))
    app = bed.module("app", "vax1")
    client = WindowClient(app)
    wid = client.create("remote", width=12, height=2)
    client.write(wid, 0, "over the gw")
    title, rows = client.snapshot(wid)
    assert rows[0] == "over the gw"
