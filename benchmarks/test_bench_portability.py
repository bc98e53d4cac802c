"""E10-portability — paper Secs. 1, 2.2, 7.

The identical portable upper layers over: every machine-type pair, both
simulated native IPCSs (TCP streams and MBX mailboxes), mixed-IPCS
paths through a gateway, and — the strongest form — real OS TCP
sockets.  Only the ND-Layer drivers differ.
"""

from deployments import register_app_types
from repro import APOLLO, Field, IBM_PC, StructDef, SUN3, Testbed, VAX
from repro.realnet import RealDeployment

MACHINE_TYPES = [VAX, SUN3, APOLLO, IBM_PC]


def _pairwise_matrix():
    """All machine-type pairs exercising both IPCSs + a gateway."""
    bed = Testbed()
    bed.network("ether0", protocol="tcp")
    bed.network("ring0", protocol="mbx")
    # One machine of each type on each network, plus the NS + gateway.
    for mtype in MACHINE_TYPES:
        bed.machine(f"e.{mtype.name}", mtype, networks=["ether0"])
        bed.machine(f"r.{mtype.name}", mtype, networks=["ring0"])
    bed.machine("nshost", VAX, networks=["ether0"])
    bed.machine("gwhost", APOLLO, networks=["ether0", "ring0"])
    bed.name_server("nshost")
    bed.gateway("gwhost", prime_for=["ring0"])
    register_app_types(bed)

    received = {}

    def make_server(name, machine):
        commod = bed.module(name, machine)

        def handle(request):
            if request.reply_expected:
                commod.ali.reply(request, "numbers", dict(request.values))

        commod.ali.set_request_handler(handle)
        return commod

    rows = []
    failures = 0
    pattern = {"a": 0x01020304, "b": -77, "big": 2 ** 45 + 5}
    for src_type in MACHINE_TYPES:
        for dst_type in MACHINE_TYPES:
            for src_net, dst_net in (("e", "e"), ("r", "r"), ("e", "r")):
                server_name = f"srv.{dst_type.name}.{dst_net}.{src_type.name}.{src_net}"
                make_server(server_name, f"{dst_net}.{dst_type.name}")
                client = bed.module(
                    f"cli.{src_type.name}.{src_net}.{dst_type.name}.{dst_net}",
                    f"{src_net}.{src_type.name}")
                reply = client.ali.call(client.ali.locate(server_name),
                                        "numbers", pattern)
                ok = reply.values == pattern
                if not ok:
                    failures += 1
                path = {"e": "tcp", "r": "mbx"}[src_net] + "->" + \
                    {"e": "tcp", "r": "mbx"}[dst_net]
                rows.append((src_type.name, dst_type.name, path,
                             "image" if reply.mode == 0 else "packed", ok))
    return rows, failures


def test_bench_portability(benchmark, report):
    rows, failures = _pairwise_matrix()
    report.table(
        "E10-portability: machine-type pairs x IPCS paths "
        "(tcp->tcp, mbx->mbx, tcp->gateway->mbx)",
        ["source type", "dest type", "IPCS path", "reply mode", "round trip OK"],
        rows,
    )
    assert failures == 0
    report.note(
        f"{len(rows)} combinations, 0 failures: the layers above the "
        "ND-Layer never changed; only the driver bound to each ComMod "
        "did (Sec. 2.2)."
    )

    real_rows = _real_sockets()
    report.table(
        "E10-portability: real OS TCP sockets (localhost), same upper layers",
        ["substrate", "driver path", "round trip OK",
         "mode (VAX-type -> Sun-type)"],
        real_rows,
    )
    assert all(ok and mode == "packed" for _, _, ok, mode in real_rows)

    benchmark.pedantic(_pairwise_matrix, rounds=1, iterations=1)


def _real_sockets():
    """Real OS sockets under the same upper layers: a VAX-type client
    calls a Sun-type server on its own loopback namespace, then one on
    a second namespace through the same portable Gateway (Sec. 4.2)."""
    deployment = RealDeployment()
    try:
        deployment.network("loop1", protocol="rtcp")
        deployment.registry.register(
            StructDef("port_echo", 130, [Field("n", "u32")]))
        deployment.machine("vaxish", VAX)
        deployment.machine("sunish", SUN3)
        deployment.machine("gwhost", APOLLO, networks=["loop0", "loop1"])
        deployment.machine("sunfar", SUN3, networks=["loop1"])
        deployment.name_server("vaxish")
        deployment.gateway("gwhost", prime_for=["loop1"])
        client = deployment.module("client", "vaxish")
        rows = []
        for path, machine in (("rtcp loop0", "sunish"),
                              ("rtcp loop0 -> gateway -> rtcp loop1",
                               "sunfar")):
            server = deployment.module(f"echo.{machine}", machine)
            server.ali.set_request_handler(
                lambda req, server=server: req.reply_expected
                and server.ali.reply(req, "port_echo", {"n": req.values["n"]}))
            reply = client.ali.call(client.ali.locate(f"echo.{machine}"),
                                    "port_echo", {"n": 42}, timeout=5.0)
            rows.append(("kernel sockets", path, reply.values["n"] == 42,
                         "packed" if reply.mode == 1 else "image"))
        return rows
    finally:
        deployment.shutdown()
