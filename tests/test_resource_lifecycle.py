"""Resource lifecycle: a module's circuits, hooks and tables die with it.

A long-lived deployment sees modules come and go for ever (paper Sec. 1:
"while running").  Whatever one cold contact allocates along its path —
IPCS connections, LVCs, IVC endpoint entries, gateway splices, kill
hooks on the servers that accepted its circuits — must be released when
the module dies, or every gateway and name server grows with *history*
instead of with what it currently has open (PROTOCOL.md §10, "Process
death").

Each deployment runs 50 register → locate → call-across-the-gateways →
kill cycles; a snapshot after cycle 5 (warm-up: lazily opened naming
circuits, route caches) must still describe the system after cycle 50.
The three tests split the assertions by the defect each one catches:

* hooks of closed channels kept on the surviving (accepting) process,
* teardown registered *during* ``kill()`` never run — a live connection
  owned by a dead process, pinning its whole Nucleus,
* gateway-spliced LVCs never forgotten by the IP-Layer.
"""

import gc
import weakref

import pytest

from deployments import sharded_chain, two_nets

CYCLES = 50
WARMUP = 5


def _two_nets():
    """Ethernet (sim-TCP) and Apollo ring (MBX) joined by one gateway;
    clients alternate sides, so both IPCSs connect and accept."""
    bed = two_nets()
    return bed, [("sun1", "apollo1"), ("apollo2", "vax1")]


def _sharded_chain():
    """Three TCP networks, two gateways, a 2x2 sharded naming fleet."""
    bed, _groups = sharded_chain(hops=2, shards=2, replicas=2)
    return bed, [("mEnd", "m0"), ("m0", "mEnd")]


def _echo_server(bed, name, machine):
    commod = bed.module(name, machine)

    def handle(request):
        commod.ali.reply(request, "echo", {
            "n": request.values["n"],
            "text": request.values["text"].upper()})

    commod.ali.set_request_handler(handle)


def _nuclei(bed):
    """(label, nucleus) of every stack that outlives the cycles."""
    for name, gateway in bed.gateways.items():
        for network, nucleus in gateway.stacks.items():
            yield f"gw.{name}/{network}", nucleus
    servers = list(bed.name_shard_servers.values()) \
        or [bed.name_server_instance]
    for server in servers:
        yield server.name, server.nucleus
    for name, commod in bed.modules.items():
        yield name, commod.nucleus


def _ipcs_tables(bed):
    """(label, table) of every IPCS connection/listener table."""
    for machine in bed.machines.values():
        for ipcs in machine.ipcs_instances():
            label = f"{machine.name}/{ipcs.network.name}"
            for attr in ("_conns", "_by_peer", "_listeners", "_mailboxes"):
                table = getattr(ipcs, attr, None)
                if table is not None:
                    yield f"{label}{attr}", table


def _teardown_count(process):
    """What the process would still tear down if it died now.  (The
    ``getattr`` lets the file run against the SimProcess that predates
    resource ownership, where every teardown was a kill hook.)"""
    return len(process._kill_hooks) + len(getattr(process, "_resources", ()))


def _snapshot(bed):
    hooks = {
        f"{process.name}@{machine.name}": _teardown_count(process)
        for machine in bed.machines.values()
        for process in machine.processes
    }
    tables = {}
    for name, gateway in bed.gateways.items():
        tables[f"gw.{name}._splices"] = len(gateway._splices)
        tables[f"gw.{name}._splice_credit"] = len(gateway._splice_credit)
    for label, nucleus in _nuclei(bed):
        tables[f"{label}.ip._by_lvc"] = len(nucleus.ip._by_lvc)
        tables[f"{label}.nd._lvcs"] = len(nucleus.nd._lvcs)
    for label, table in _ipcs_tables(bed):
        tables[label] = len(table)
    return {"hooks": hooks, "tables": tables}


class _Run:
    """One deployment after CYCLES cold contacts."""

    def __init__(self, build):
        bed, pairs = build()
        for k, (server_machine, _client_machine) in enumerate(pairs):
            _echo_server(bed, f"srv.{k}", server_machine)
        bed.settle()
        self.bed = bed
        self.dead_nuclei = []
        self.dead_processes = []
        for i in range(CYCLES):
            k = i % len(pairs)
            self._cycle(i, k, pairs[k][1])
            if i + 1 == WARMUP:
                self.warm = _snapshot(bed)
        self.final = _snapshot(bed)

    def _cycle(self, i, k, machine):
        bed = self.bed
        name = f"new.{i}"
        new = bed.module(name, machine)
        dst = new.ali.locate(f"srv.{k}")
        reply = new.ali.call(dst, "echo", {"n": i, "text": "ping"})
        assert reply.values == {"n": i, "text": "PING"}
        self.dead_nuclei.append(weakref.ref(new.nucleus))
        self.dead_processes.append(new.process)
        new.process.kill()
        bed.settle()
        del bed.modules[name]


@pytest.fixture(scope="module", params=[_two_nets, _sharded_chain],
                ids=["two_nets", "sharded_chain"])
def run(request):
    return _Run(request.param)


def test_every_call_crossed_a_gateway(run):
    """The cycles exercise what they claim to: every contact spliced a
    circuit through every gateway of its deployment."""
    for gateway in run.bed.gateways.values():
        assert gateway.circuits_established >= CYCLES
        assert gateway.inter_gateway_control_messages == 0


def test_surviving_processes_hold_no_history(run):
    """Gateways, name servers and application servers accept a circuit
    per contact; once it closes, nothing of it may stay registered for
    their own death."""
    assert run.final["hooks"] == run.warm["hooks"]


def test_dead_modules_leave_nothing_behind(run):
    """Whatever a dying module opens while dying is closed too: no
    connection anywhere is owned by a dead process, and nothing keeps
    the dead module's Nucleus reachable."""
    for label, table in _ipcs_tables(run.bed):
        for entry in table.values():
            owner = getattr(entry, "channel", entry).owner
            assert owner.alive, f"{label}: {entry!r} owned by dead {owner!r}"
    for process in run.dead_processes:
        assert _teardown_count(process) == 0
    gc.collect()
    leaked = [ref() for ref in run.dead_nuclei if ref() is not None]
    assert not leaked, f"{len(leaked)} of {CYCLES} dead Nuclei still reachable"


def test_circuit_tables_return_to_steady_state(run):
    """Splice tables, IVC endpoint entries, LVC tables and IPCS
    connection tables describe what is open now, not what ever was."""
    assert run.final["tables"] == run.warm["tables"]
