#!/usr/bin/env python
"""The portable window manager (paper ref [22]) — a second application
domain on the same NTCS.

A display server runs on an Apollo workstation on the ring; application
modules on the Ethernet create windows, render a tiny dashboard, and
react to (simulated) user keystrokes — every interaction is an NTCS
message crossing the gateway.

Run:  python examples/windows.py
"""

from repro import APOLLO, Testbed, VAX
from repro.wm import WindowClient, WindowManager, register_wm_types


def main():
    bed = Testbed()
    bed.network("ether0", protocol="tcp")
    bed.network("ring0", protocol="mbx", latency=0.0005)
    bed.machine("vax1", VAX, networks=["ether0"])
    bed.machine("gw1", APOLLO, networks=["ether0", "ring0"])
    bed.machine("workstation", APOLLO, networks=["ring0"])
    bed.name_server("vax1")
    bed.gateway("gw1", prime_for=["ring0"])
    register_wm_types(bed.registry)

    wm = WindowManager(bed.module("wm.host", "workstation", register=False))

    # An application module on the VAX draws a dashboard remotely.
    app = bed.module("dashboard.app", "vax1")
    typed = []
    client = WindowClient(app, on_input=lambda wid, text: typed.append(text))

    status = client.create("system status", width=36, height=4)
    console = client.create("console", width=36, height=3)
    client.write(status, 0, "NTCS dashboard -- all systems go")
    client.write(status, 1, "name server : up (vax1)")
    client.write(status, 2, "gateway gw1 : forwarding")
    client.write(console, 0, "$ _")

    print("Windows on the workstation:")
    for wid, title in client.list_windows():
        heading, rows = client.snapshot(wid)
        print(f"\n  +--[ {heading} ]" + "-" * max(0, 30 - len(heading)))
        for row in rows:
            print(f"  | {row}")

    # The user types into the console window on the workstation; the
    # event travels back across the gateway to the owning module.
    wm.inject_input(console, "status --verbose")
    bed.settle()
    print(f"\napplication received input events: {typed}")
    client.write(console, 0, f"$ {typed[0]}")
    client.write(console, 1, "everything is fine.")
    _, rows = client.snapshot(console)
    print("console now shows:", rows)


if __name__ == "__main__":
    main()
