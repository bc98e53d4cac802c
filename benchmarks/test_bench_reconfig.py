"""E4-reconfig — paper Sec. 3.5.

Dynamic reconfiguration under load: a client streams messages while the
server is relocated.  Reports delivery/drop counts (the paper is
explicit that drops can happen during reconfiguration), recovery time,
and the forwarding machinery's work.  Ablation: the local
forwarding-address table.
"""

from deployments import single_net
from repro import SUN3
from repro.drts.proctl import ProcessController


def _run_stream(relocations, use_forwarding_table=True, messages=120,
                gap=0.004):
    bed = single_net()
    bed.machine("sun2", SUN3, networks=["ether0"])
    received = []

    def install(commod):
        commod.ali.set_request_handler(
            lambda msg: received.append(msg.values["n"]))

    sink = bed.module("sink", "sun1")
    install(sink)
    src = bed.module("src", "vax1")
    uadd = src.ali.locate("sink")
    controller = ProcessController(bed)
    targets = ["sun2", "sun1"] * relocations
    relocate_at = [messages * (i + 1) // (relocations + 1)
                   for i in range(relocations)]

    recovery_gap = 0.0
    last_drop_time = None
    for n in range(messages):
        if relocate_at and n == relocate_at[0]:
            relocate_at.pop(0)
            controller.relocate("sink", targets.pop(0),
                                rebuild=lambda old, new: install(new))
        if not use_forwarding_table:
            src.nucleus.lcm.forwarding.clear()
        src.ali.send(uadd, "echo", {"n": n, "text": ""})
        bed.run_for(gap)
    bed.settle()
    ns_forward_queries = bed.name_server_instance.counters["ns_forward"]
    return {
        "sent": messages,
        "delivered": len(set(received)),
        "duplicates": len(received) - len(set(received)),
        "dropped": messages - len(set(received)),
        "faults": src.nucleus.counters["lcm_address_faults"],
        "relocations_followed": src.nucleus.counters["lcm_relocations_followed"],
        "ns_forward_queries": ns_forward_queries,
        "tail_ok": (messages - 1) in set(received),
    }


def test_bench_reconfig(benchmark, report):
    rows = []
    for relocations in (0, 1, 2, 3):
        result = _run_stream(relocations)
        rows.append((
            relocations, result["sent"], result["delivered"],
            result["dropped"], result["duplicates"],
            result["relocations_followed"], result["tail_ok"],
        ))
        if relocations == 0:
            assert result["dropped"] == 0  # static environment: lossless
        assert result["duplicates"] == 0
        assert result["tail_ok"]
    report.table(
        "E4-reconfig: 120-message stream with n relocations mid-stream",
        ["relocations", "sent", "delivered", "dropped", "dups",
         "forwards followed", "tail intact"],
        rows,
    )
    report.note(
        "Drops occur only in relocation windows (Sec. 3.5: the NTCS "
        '"can not lose messages in a static environment" but they "can '
        'be dropped due to the nature of dynamic reconfiguration").'
    )

    # Ablation: forwarding-address table.
    with_table = _run_stream(2, use_forwarding_table=True)
    without_table = _run_stream(2, use_forwarding_table=False)
    report.table(
        "E4-reconfig ablation: local forwarding-address table (2 relocations)",
        ["forwarding table", "delivered", "NS forwarding queries"],
        [
            ("on", with_table["delivered"], with_table["ns_forward_queries"]),
            ("off (cleared each send)", without_table["delivered"],
             without_table["ns_forward_queries"]),
        ],
    )
    assert without_table["ns_forward_queries"] >= with_table["ns_forward_queries"]

    benchmark.pedantic(lambda: _run_stream(1, messages=40), rounds=3,
                       iterations=1)
