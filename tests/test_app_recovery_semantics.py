"""Application-level recovery semantics (paper Sec. 3.5): the NTCS
recovers *communication*, never application state — "recovery from this
type of failure belongs in the area of transaction management, and not
in the NTCS"."""

from deployments import single_net
from repro import SUN3
from repro.drts.proctl import ProcessController
from repro.wm import WindowClient, WindowManager, register_wm_types


def test_window_state_is_lost_on_wm_relocation_and_rebuilt_by_client():
    """Relocating the window manager gives a fresh, empty display: the
    NTCS forwarded the circuits, but window contents are application
    state, which the application must rebuild (Sec. 3.5's "module-level
    recovery mechanism")."""
    bed = single_net()
    bed.machine("sun2", SUN3, networks=["ether0"])
    register_wm_types(bed.registry)
    wm_holder = [WindowManager(bed.module("wm.host", "sun1",
                                          register=False))]
    # WindowManager registers under its service name, not the process
    # name: relocate by the *registered* name.
    bed.modules["drts.windows"] = wm_holder[0].commod

    app = bed.module("app", "vax1")
    client = WindowClient(app)
    wid = client.create("stateful", width=20, height=2)
    client.write(wid, 0, "precious state")

    controller = ProcessController(bed)

    def rebuild(old, new):
        wm_holder.append(WindowManager.attach(new))

    controller.relocate("drts.windows", "sun2", rebuild=rebuild)

    # The old window is gone (fresh display) — the NTCS did not and
    # must not preserve it.
    assert client.snapshot(wid) is None
    # The application recovers by recreating its windows.
    new_wid = client.create("stateful", width=20, height=2)
    client.write(new_wid, 0, "rebuilt state")
    _, rows = client.snapshot(new_wid)
    assert rows[0] == "rebuilt state"
