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
Half the newcomers sit behind a gateway and route on the first hop their
registration proved, so the snapshot also covers learned routes.
The three tests split the assertions by the defect each one catches:

* hooks of closed channels kept on the surviving (accepting) process,
* teardown registered *during* ``kill()`` never run — a live connection
  owned by a dead process, pinning its whole Nucleus,
* gateway-spliced LVCs never forgotten by the IP-Layer.

Two more read the wire after the warm-up: every connection opened in
that time is closed by exactly one CLOSE, and no acknowledgement
arrives at a connection already gone, apart from a pinned residue
(PROTOCOL.md §13).

A last test aims the same snapshot at a gateway's final chain hop
dialling a stale cached blob (PROTOCOL.md §3, "IVC through gateways"):
a failed open must not leave a spliced leg or a half-open LVC behind.
The same holds for the client's blob primed by its locate (PROTOCOL.md
§5) when the destination relocates or dies before the first call, and a
forged locate reply primes nothing at all.

The snapshot also holds each gateway's parked legs per peer (PROTOCOL.md
§3, "Kept legs"): a gateway never parks more legs to a peer than it
ever had circuits open to that peer at once, and none to a dead module.
Three hazards aim at a parked leg whose peer dies: killed, crashed
silently, and a NAKed open further down the chain.

Each simulated IPCS connection has one acknowledgement timer
(PROTOCOL.md §13).  The snapshot holds the connections whose timer is
armed, and takes it only when they are exactly the connections with
unacknowledged data; a deployment torn down mid-burst leaves no timer
armed.
"""

import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from deployments import (
    SIM,
    chain_nets,
    echo_server,
    sharded_chain,
    two_nets,
    veteran_of_far_echo,
)
from repro.drts.proctl import ProcessController
from repro.errors import DestinationUnavailable, ProtocolError
from repro.naming import protocol as p
from repro.ntcs.address import make_uadd
from repro.util.counters import GATEWAY_STALE_ADDR_FALLBACKS

# Every trace these tests put on a simulated wire steps the declared
# wire machines (tests/conftest.py).
pytestmark = pytest.mark.usefixtures("wire_conformance")

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


# Every table each IPCS must have.  A table renamed or gone fails the
# lookup below rather than silently leaving the snapshot.
IPCS_TABLES = {
    "tcp": ("_conns", "_by_peer", "_listeners", "_acks_owed", "_rx_ready"),
    "mbx": ("_conns", "_mailboxes", "_acks_owed", "_records"),
    # Over real sockets the kernel holds the connections: the IPCS slot
    # keeps no table of its own.
    "rtcp": (),
}


def _ipcs_tables(bed):
    """(label, table) of every IPCS connection/listener table, and of
    every arrival-train queue (PROTOCOL.md §13): connections owed an
    acknowledgement, stream chunks and records not yet handed up."""
    for machine in bed.machines.values():
        for ipcs in machine.ipcs_instances():
            for attr in IPCS_TABLES[ipcs.protocol]:
                label = f"{machine.name}/{ipcs.network.name}"
                yield f"{label}{attr}", getattr(ipcs, attr)


def _train_debts(bed):
    """What a settled bed still owes some arrival train: a non-empty
    train queue, or a connection holding an unsent ACK range."""
    debts = []
    for label, table in _ipcs_tables(bed):
        if not isinstance(table, dict):
            if table:
                debts.append(f"{label}: {len(table)} queued")
            continue
        debts.extend(f"{label}: {entry!r} owes {entry.ack_from}-{entry.ack_to}"
                     for entry in table.values()
                     if getattr(entry, "ack_from", None) is not None)
    return debts


def _teardown_count(process):
    """What the process would still tear down if it died now.  (The
    ``getattr`` lets the file run against the SimProcess that predates
    resource ownership, where every teardown was a kill hook.)"""
    return len(process._kill_hooks) + len(getattr(process, "_resources", ()))


def _parked(gateway):
    """A gateway's parked legs, counted per peer."""
    return {str(peer): len(legs)
            for peer, legs in sorted(gateway._parked.items())}


def _track_peak_circuits(bed):
    """Count, from now on, the most circuits each gateway has had open
    at once to each peer it dialled; returns the live Counter keyed by
    (gateway name, peer)."""
    peaks = Counter()
    for name, gateway in bed.gateways.items():
        def establish(nucleus, lvc, msg, name=name, gateway=gateway,
                      original=gateway._establish):
            original(nucleus, lvc, msg)
            live = Counter(str(leg.dialled) for leg in gateway._splices
                           if not leg.inbound)
            for peer, count in live.items():
                peaks[name, peer] = max(peaks[name, peer], count)

        gateway._establish = establish
    return peaks


def _parking_beyond_peak(bed, peaks):
    """(gateway, peer, parked, peak) wherever a gateway holds more
    parked legs to a peer than it ever had circuits to it at once."""
    return [(name, peer, count, peaks[name, peer])
            for name, gateway in bed.gateways.items()
            for peer, count in _parked(gateway).items()
            if count > peaks[name, peer]]


def _parked_to(bed, commod):
    """Legs any gateway still keeps parked to ``commod``'s module."""
    return sum(len(gateway._parked.get(commod.nucleus.self_addr, ()))
               for gateway in bed.gateways.values())


def _armed_timers(bed):
    """(label, connection ids) of every simulated IPCS's connections
    whose acknowledgement timer is armed; each must be exactly the
    connections holding unacknowledged data."""
    for machine in bed.machines.values():
        for ipcs in machine.ipcs_instances():
            if ipcs.protocol not in ("tcp", "mbx"):
                continue
            label = f"{machine.name}/{ipcs.network.name}"
            armed = sorted(conn.local_id for conn in ipcs._conns.values()
                           if conn.timer is not None)
            assert armed == sorted(
                conn.local_id for conn in ipcs._conns.values()
                if conn.unacked), label
            yield f"{label}.timers_armed", armed


def _ended_but_indexed(nucleus):
    """The circuits a Nucleus still indexes although their machine has
    finished: an IVC CLOSED or FAILED, an LVC CLOSED."""
    return ([ivc for ivc in nucleus.ip._by_lvc.values()
             if ivc.state in ("CLOSED", "FAILED")]
            + [lvc for lvc in nucleus.nd._lvcs.values()
               if lvc.state == "CLOSED"])


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
        tables[f"gw.{name}._parked"] = _parked(gateway)
    for label, nucleus in _nuclei(bed):
        assert not _ended_but_indexed(nucleus), label
        tables[f"{label}.ip._by_lvc"] = len(nucleus.ip._by_lvc)
        tables[f"{label}.nd._lvcs"] = len(nucleus.nd._lvcs)
        # Planned and learned first hops (PROTOCOL.md §3): one per
        # destination network, whoever came and went.
        tables[f"{label}.ip.route_cache"] = sorted(nucleus.ip.route_cache)
        tables[f"{label}.ip._suspect_gateways"] = len(
            nucleus.ip._suspect_gateways)
    for label, table in _ipcs_tables(bed):
        tables[label] = len(table)
    tables.update(_armed_timers(bed))
    return {"hooks": hooks, "tables": tables}


class _WireCensus:
    """Frames sent on every network, by segment kind, and the
    acknowledgements that arrived at a connection already gone."""

    def __init__(self, bed):
        self.kinds = Counter()
        self.dead_acks = 0
        for network in bed.networks.values():
            network.trace_hooks.append(
                lambda datagram, size, dropped:
                self.kinds.update((datagram.payload[0],)))
        for machine in bed.machines.values():
            for ipcs in machine.ipcs_instances():
                self._tap(ipcs)

    def _tap(self, ipcs):
        """Wrap the IPCS's one ACK handler; raises if it has none."""
        handle = ipcs._handle_ack

        def tapped(datagram):
            if datagram.payload[1] not in ipcs._conns:
                self.dead_acks += 1
            handle(datagram)

        ipcs._handle_ack = tapped


class _Run:
    """One deployment after CYCLES cold contacts."""

    def __init__(self, build):
        self.name = build.__name__.lstrip("_")
        bed, pairs = build()
        for k, (server_machine, _client_machine) in enumerate(pairs):
            _echo_server(bed, f"srv.{k}", server_machine)
        bed.settle()
        assert not _train_debts(bed)
        self.bed = bed
        self.peaks = _track_peak_circuits(bed)
        self.beyond_peak = []
        self.parked_to_dead = 0
        self.dead_nuclei = []
        self.dead_processes = []
        self.topology_queries = Counter()
        for i in range(CYCLES):
            k = i % len(pairs)
            self._cycle(i, k, pairs[k][1])
            if i + 1 == WARMUP:
                self.warm = _snapshot(bed)
                self.wire = _WireCensus(bed)
        self.final = _snapshot(bed)

    def _cycle(self, i, k, machine):
        bed = self.bed
        name = f"new.{i}"
        new = bed.module(name, machine)
        dst = new.ali.locate(f"srv.{k}")
        reply = new.ali.call(dst, "echo", {"n": i, "text": "ping"})
        assert reply.values == {"n": i, "text": "PING"}
        self.topology_queries[machine] += new.nucleus.counters[
            "topology_queries"]
        self.dead_nuclei.append(weakref.ref(new.nucleus))
        self.dead_processes.append(new.process)
        new.process.kill()
        bed.settle()
        assert not _train_debts(bed), f"cycle {i}: {_train_debts(bed)}"
        self.beyond_peak += _parking_beyond_peak(bed, self.peaks)
        self.parked_to_dead += _parked_to(bed, new)
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


# Topology queries the newcomers made, by the machine they ran on.  A
# newcomer behind a gateway (apollo1, mEnd) registered through its prime
# gateway, so it calls into the naming network on the route that
# registration proved (PROTOCOL.md §3) and asks naming for no topology.
NEWCOMER_TOPOLOGY_QUERIES = {
    "two_nets": {"vax1": CYCLES // 2, "apollo1": 0},
    "sharded_chain": {"m0": CYCLES // 2, "mEnd": 0},
}


def test_newcomers_behind_a_gateway_route_on_what_they_learned(run):
    assert run.topology_queries == NEWCOMER_TOPOLOGY_QUERIES[run.name]


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
        if not isinstance(table, dict):
            continue  # a train queue: empty once settled
        for entry in table.values():
            owner = getattr(entry, "channel", entry).owner
            assert owner.alive, f"{label}: {entry!r} owned by dead {owner!r}"
    for process in run.dead_processes:
        assert _teardown_count(process) == 0
    gc.collect()
    leaked = [ref() for ref in run.dead_nuclei if ref() is not None]
    assert not leaked, f"{len(leaked)} of {CYCLES} dead Nuclei still reachable"


def test_circuit_tables_return_to_steady_state(run):
    """Splice tables, parked legs, IVC endpoint entries, LVC tables and
    IPCS connection tables describe what is open now, not what ever
    was."""
    assert run.final["tables"] == run.warm["tables"]
    assert run.beyond_peak == []
    assert run.parked_to_dead == 0


def test_one_close_per_connection(run):
    """The tables are back to steady state, so every connection opened
    after the warm-up has closed since — each with exactly one CLOSE.
    A peer whose CLOSE has arrived is not answered with another."""
    kinds = run.wire.kinds
    assert kinds["SYNACK"] > 0
    assert kinds["CLOSE"] == kinds["SYNACK"]
    assert kinds["MBX_CLOSE"] == kinds["MBX_OPEN_ACK"]


# Acknowledgements of the dying module's ns_deregister: they leave in
# the train before its CLOSE arrives and reach a connection already
# gone, one per dying module, sent by the first hop of its naming
# circuit.  By (network, sender): on two_nets, 23 from the Name Server's
# vax1 on ether0 and 22 from gw1 on ring0; on the sharded chain, 22 from
# the naming shards on net0 (ns00 10, ns10 12) and 23 from gwm1 on net2.
# A later hop's ACK reaches the leg its gateway keeps parked (PROTOCOL.md
# §3): 67 and 91 before, with 22 more from vax1 on ether0, and 23 from
# gwm0 on net1 plus 23 more from the shards on net0.  Pinned for a
# change that closes a dying module's circuits oldest first.
DEAD_ACK_RESIDUE = {"two_nets": 45, "sharded_chain": 45}


def test_no_ack_reaches_a_dead_connection_but_the_deregister_residue(run):
    assert run.wire.dead_acks == DEAD_ACK_RESIDUE[run.name]


def _crashed_destination(bed, server, uadd):
    """The destination's machine crashes while the last gateway still
    caches its blob (the failed connect invalidates it; re-arm puts it
    back)."""
    bed.machines["mEnd"].crash()
    return server.nucleus.nd.listen_blob, server.nucleus.mtype.name


def _impostor_behind_the_blob(bed, server, uadd):
    """The destination dies and its cached blob now reaches a different
    live module."""
    impostor = echo_server(bed, "other.echo", "mEnd")
    server.process.kill()
    return impostor.nucleus.nd.listen_blob, impostor.nucleus.mtype.name


@pytest.mark.parametrize("hostile, fallbacks", [
    (_crashed_destination, 2),
    (_impostor_behind_the_blob, 0),
], ids=["machine_crash", "impostor"])
def test_stale_final_hop_leaves_nothing_behind(hostile, fallbacks):
    """The veteran's call over the stale entry fails typed; the first
    failure also reaps the veteran's old circuit, so the snapshot after
    it must still describe the system after the failure is repeated."""
    bed, _groups = sharded_chain(hops=2, shards=2, replicas=2)
    server, veteran, uadd = veteran_of_far_echo(bed)
    blob, mtype_name = hostile(bed, server, uadd)
    bed.settle()
    far_stack = bed.gateways["gwm1"].stacks["net2"]
    snapshots = []
    for _attempt in range(2):
        far_stack.addr_cache.store(uadd, blob, mtype_name)
        with pytest.raises(DestinationUnavailable):
            veteran.ali.call(uadd, "echo", {"n": 1, "text": "x"}, timeout=5.0)
        bed.settle()
        snapshots.append(_snapshot(bed))
    assert snapshots[0] == snapshots[1]
    assert far_stack.counters[GATEWAY_STALE_ADDR_FALLBACKS] == fallbacks


# Hazards of a primed location: the locate leaves the destination's
# blob in the client's address cache (PROTOCOL.md §5), so the first call
# may dial an address the destination has already left.  Each hazard
# runs four times on one bed, client and peer dying at the end of each
# run.  The first runs are warm-up: the first contact with each naming
# shard leaves circuits that stay open.  The last two snapshots must be
# equal.

def _echo_rebuild(_old, new):
    new.ali.set_request_handler(lambda request: new.ali.reply(
        request, "echo", {"n": request.values["n"],
                          "text": request.values["text"].upper()}))


def _relocated_before_the_first_call(bed, i, machine):
    """(a) The call faults once on the primed blob, the LCM follows the
    forwarding to the replacement and the reply arrives.  On the
    client's own network its ND-Layer dialled the blob and drops it."""
    echo_server(bed, f"peer.{i}", machine)
    client = bed.module(f"client.{i}", "m0")
    uadd = client.ali.locate(f"peer.{i}")
    assert uadd in client.nucleus.addr_cache
    new = ProcessController(bed).relocate(f"peer.{i}", machine,
                                          rebuild=_echo_rebuild)
    bed.settle()
    reply = client.ali.call(uadd, "echo", {"n": i, "text": "x"}, timeout=5.0)
    assert reply.values == {"n": i, "text": "X"}
    counters = client.nucleus.counters
    assert counters["lcm_address_faults"] == 1
    assert counters["lcm_relocations_followed"] == 1
    assert (uadd in client.nucleus.addr_cache) == (machine != "m0")
    return [client, new]


def _killed_before_the_first_call(bed, i, machine):
    """(b) The first call ends in a typed error well inside its
    timeout: no hang."""
    server = echo_server(bed, f"peer.{i}", machine)
    client = bed.module(f"client.{i}", "m0")
    uadd = client.ali.locate(f"peer.{i}")
    server.process.kill()
    bed.settle()
    start = bed.now
    with pytest.raises(DestinationUnavailable):
        client.ali.call(uadd, "echo", {"n": i, "text": "x"}, timeout=5.0)
    assert bed.now - start < 2.0
    return [client]


def _hazard_snapshots(hazard, machine, prepare=None):
    bed, _groups = sharded_chain(hops=2, shards=2, replicas=2)
    peaks = _track_peak_circuits(bed)
    if prepare is not None:
        prepare(bed)
    snapshots = []
    for i in range(4):
        for commod in hazard(bed, i, machine):
            commod.process.kill()
        bed.settle()
        for name, commod in list(bed.modules.items()):
            if not commod.process.alive:
                assert _parked_to(bed, commod) == 0, name
                del bed.modules[name]
        assert not _train_debts(bed)
        assert _parking_beyond_peak(bed, peaks) == []
        snapshots.append(_snapshot(bed))
    return snapshots


@pytest.mark.parametrize("machine", ["m0", "mEnd"],
                         ids=["same_network", "two_gateways_away"])
@pytest.mark.parametrize("hazard", [
    _relocated_before_the_first_call,
    _killed_before_the_first_call,
], ids=["relocated", "killed"])
def test_primed_location_hazards_leave_nothing_behind(hazard, machine):
    snapshots = _hazard_snapshots(hazard, machine)
    assert snapshots[-2] == snapshots[-1]


def _forge_locate_replies(bed, forge):
    """Every naming server answers ``ns_resolve_name`` honestly, then
    ``forge`` rewrites the record its reply carries."""
    for group in bed.shard_groups.values():
        for server in group:
            honest = server._handlers["ns_resolve_name"]

            def forged(request, honest=honest):
                reply_type, values = honest(request)
                values["record"] = forge(values["record"])
                return reply_type, values

            server._handlers["ns_resolve_name"] = forged


def _another_uadd(data):
    (record,) = p.decode_records(data)
    return p.encode_records([replace(record, uadd=make_uadd(4242))])


def _another_name(data):
    (record,) = p.decode_records(data)
    return p.encode_records([replace(record, name="impostor")])


@pytest.mark.parametrize("forge", [
    _another_uadd,
    _another_name,
    lambda data: data + b"\x1d" + data,
    lambda data: b"\xff",
    lambda data: b"",
], ids=["another_uadd", "another_name", "two_records", "non_ascii", "empty"])
def test_forged_locate_reply_primes_nothing(forge):
    """(c) A reply whose record is not the one asked about, or does not
    decode, is a ``ProtocolError`` and plants no blob for any UAdd."""
    def hazard(bed, i, _machine):
        server = echo_server(bed, f"peer.{i}", "mEnd")
        client = bed.module(f"client.{i}", "m0")
        cached = len(client.nucleus.addr_cache)
        with pytest.raises(ProtocolError):
            client.ali.locate(f"peer.{i}")
        assert len(client.nucleus.addr_cache) == cached
        assert server.ali.uadd not in client.nucleus.addr_cache
        assert make_uadd(4242) not in client.nucleus.addr_cache
        return [client, server]

    snapshots = _hazard_snapshots(
        hazard, "mEnd", prepare=lambda bed: _forge_locate_replies(bed, forge))
    assert snapshots[-2] == snapshots[-1]



# Hazards of a parked leg (PROTOCOL.md §3, "Kept legs").  On
# chain_nets(2) a client on m0 calls an echo server on mEnd and dies:
# gwm0 keeps its leg to gwm1 and gwm1 its leg to the server.  Then the
# peer at the far end of a parked leg dies.

def _quiesce(bed, substrate, done):
    """Let the bed come to rest: the simulator settles; over real
    sockets the kernel is pumped until ``done`` holds."""
    if substrate.name == "sim":
        bed.settle()
        assert done()
    else:
        assert bed.scheduler.pump_until(done, timeout=5)


def _forget_the_dead(bed):
    for name, commod in list(bed.modules.items()):
        if not commod.process.alive:
            del bed.modules[name]


def _assert_last_rounds_match(bed, substrate, snapshots):
    """The last two rounds leave equal snapshots.  Over real sockets,
    whose kernel has no idle state, the last one is waited for."""
    if substrate.name == "real":
        assert bed.scheduler.pump_until(
            lambda: _snapshot(bed) == snapshots[-2], timeout=5)
    else:
        assert snapshots[-2] == snapshots[-1]


def _call_and_die(bed, substrate, client_name, server_name):
    """A client on m0 locates and calls ``server_name`` once, then dies;
    returns once its circuit's legs are parked."""
    server = bed.modules[server_name]
    client = bed.module(client_name, "m0")
    uadd = client.ali.locate(server_name)
    reply = client.ali.call(uadd, "echo", {"n": 1, "text": "x"}, timeout=5.0)
    assert reply.values["text"] == "X"
    client.process.kill()
    _quiesce(bed, substrate, lambda: _parked_to(bed, server) == 1)
    _forget_the_dead(bed)
    return uadd


def test_a_killed_peers_close_evicts_its_parked_leg(substrate):
    """Kill: the server's CLOSE reaches gwm1's parked leg, whose fault
    upcall evicts it as it arrives: no later circuit can take it."""
    bed = chain_nets(2, substrate=substrate)
    snapshots = []
    for i in range(3):
        server = echo_server(bed, f"dest.{i}", "mEnd")
        _call_and_die(bed, substrate, f"client.{i}", f"dest.{i}")
        server.process.kill()
        if substrate.name == "sim":
            # The CLOSE's one-way trip on net2, and nothing more.
            start = bed.now
            assert bed.scheduler.pump_until(
                lambda: _parked_to(bed, server) == 0, timeout=1.0)
            assert round((bed.now - start) * 1000, 4) == 1.0
        _quiesce(bed, substrate, lambda: _parked_to(bed, server) == 0)
        _forget_the_dead(bed)
        snapshots.append(_snapshot(bed))
    _assert_last_rounds_match(bed, substrate, snapshots)


def test_a_parked_leg_to_a_silently_crashed_host_fails_typed():
    """Silent host crash (simulator only: over loopback sockets the OS
    closes a crashed module's sockets, which is the kill above).  No
    CLOSE arrives, so the leg stays parked until a circuit takes it.
    That circuit's IVC_OPEN goes unanswered until the transport gives
    up; the fault evicts the leg.  The LCM's retries dial afresh, and
    the call ends in the typed error a crashed destination always gave,
    inside its timeout.  So does the next newcomer's call, which finds
    no leg parked."""
    bed = chain_nets(2)
    server = echo_server(bed, "dest", "mEnd")
    uadd = _call_and_die(bed, SIM, "client", "dest")
    gwm1 = bed.gateways["gwm1"]
    far_stack = gwm1.stacks["net2"]
    bed.machines["mEnd"].crash()
    bed.settle()
    assert _parked_to(bed, server) == 1
    snapshots = []
    for i in range(3):
        client = bed.module(f"late.{i}", "m0")
        client.nucleus.addr_cache.store(uadd, server.nucleus.nd.listen_blob,
                                        server.nucleus.mtype.name)
        reused, dials = gwm1.legs_reused, far_stack.counters["nd_open_retries"]
        start = bed.now
        with pytest.raises(DestinationUnavailable):
            client.ali.call(uadd, "echo", {"n": i, "text": "x"}, timeout=5.0)
        assert bed.now - start < 5.0
        assert _parked_to(bed, server) == 0
        assert gwm1.legs_reused - reused == (1 if i == 0 else 0)
        assert far_stack.counters["nd_open_retries"] > dials
        client.process.kill()
        bed.settle()
        _forget_the_dead(bed)
        snapshots.append(_snapshot(bed))
    assert snapshots[-2] == snapshots[-1]


def test_a_nak_downstream_parks_the_upstream_leg(substrate):
    """NAKed open: each newcomer locates a server that then dies, and
    calls it.  Its circuit opens on gwm0's parked leg to gwm1; gwm1
    finds the server gone and NAKs.  The newcomer's open fails typed,
    it closes its first hop, and gwm0 parks the leg again: one leg,
    reused every time, never leaked."""
    bed = chain_nets(2, substrate=substrate)
    echo_server(bed, "warm", "mEnd")
    _call_and_die(bed, substrate, "warm.client", "warm")
    gwm0, gwm1 = bed.gateways["gwm0"], bed.gateways["gwm1"]
    to_gwm1 = lambda: _parked(gwm0).get(str(gwm1.uadd)) == 1
    assert to_gwm1()
    snapshots = []
    for i in range(3):
        server = echo_server(bed, f"dest.{i}", "mEnd")
        client = bed.module(f"client.{i}", "m0")
        uadd = client.ali.locate(f"dest.{i}")
        server.process.kill()
        db = bed.name_server_instance.db
        _quiesce(bed, substrate, lambda: not db.resolve_uadd(uadd).alive)
        reused, refused = gwm0.legs_reused, gwm1.circuits_refused
        with pytest.raises(DestinationUnavailable):
            client.ali.call(uadd, "echo", {"n": i, "text": "x"}, timeout=5.0)
        assert gwm0.legs_reused > reused
        assert gwm1.circuits_refused > refused
        client.process.kill()
        _quiesce(bed, substrate, to_gwm1)
        _forget_the_dead(bed)
        snapshots.append(_snapshot(bed))
    _assert_last_rounds_match(bed, substrate, snapshots)


def _live_connection_timers(bed):
    """Connection timers still live on the bed's event heap."""
    return [event for _, _, event in bed.scheduler.queue._heap
            if not event.cancelled and event.note == "ipcs ack timer"]


@pytest.mark.parametrize("build", [_two_nets, _sharded_chain],
                         ids=["two_nets", "sharded_chain"])
def test_no_timer_outlives_a_torn_down_deployment(build):
    """Every client sends a burst that is still unacknowledged when
    every process of the deployment is killed: each connection's timer
    dies with its connection, and no connection is left."""
    bed, pairs = build()
    for k, (server_machine, _client_machine) in enumerate(pairs):
        sink = bed.module(f"sink.{k}", server_machine)
        sink.ali.set_request_handler(lambda request: None)
    bed.settle()
    for k, (_server_machine, client_machine) in enumerate(pairs):
        client = bed.module(f"client.{k}", client_machine)
        dst = client.ali.locate(f"sink.{k}")
        for n in range(8):
            client.ali.send(dst, "echo", {"n": n, "text": "burst"})
    assert any(armed for _label, armed in _armed_timers(bed))
    assert _live_connection_timers(bed)
    for machine in bed.machines.values():
        for process in list(machine.processes):
            process.kill()
    assert _live_connection_timers(bed) == []
    assert [label for label, table in _ipcs_tables(bed)
            if label.endswith("_conns") and table] == []
