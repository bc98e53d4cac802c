"""The four workloads.

Each is a closed loop of application operations over the public ALI of
a deployment built from ``tests/deployments.py`` (or
``repro.realnet.RealDeployment``), with a correctness oracle on every
op.  ``--seed`` picks payload bytes, server order and the
background-name sample; the program under test sees only the generated
inputs.  Why each workload exists is recorded in ``README.md`` and in
``BENCHMARK.json``.

A workload's :meth:`Workload.op` performs one *unit* — one application
op, or one burst of 32 sends for the stream — and never raises: any
exception is typed and counted into :attr:`Workload.failed`.
"""

from __future__ import annotations

import random
import selectors
import time
import traceback
import zlib
from collections import Counter
from typing import Dict, List, Optional

import deployments
from repro import SUN3, VAX
from repro.naming.shards import HashRing
from repro.realnet import RealDeployment

#: Counters that are high-water marks: summed across modules they are
#: meaningless, so snapshots take the maximum and deltas the end value.
GAUGES = ("lvc_rx_queue_high_water", "sched.max_pump_depth")

#: The phases of one cold contact timed from outside, around the ALI
#: calls: the read/write split of its per-op latency.
PHASES = ("nsp.register_us", "nsp.locate_us", "ip.first_call_us",
          "lcm.relocated_call_us", "nsp.deregister_us")

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"


class VerifyError(Exception):
    """A reply or delivery that does not match what was sent."""


def _texts(rng: random.Random, count: int, max_len: int) -> List[str]:
    return ["".join(rng.choices(_ALPHABET, k=rng.randint(1, max_len)))
            for _ in range(count)]


def _merge(total: Counter, counts: Dict[str, int]) -> None:
    """Fold one module's counter snapshot into a running total."""
    for name, value in counts.items():
        if name in GAUGES:
            total[name] = max(total[name], value)
        else:
            total[name] += value


class Workload:
    """Shared bookkeeping: op accounting, failure typing, counters."""

    name = ""
    #: Application ops one :meth:`op` call performs.
    unit_ops = 1
    #: :meth:`op` calls per measured segment, full scale and ``--smoke``.
    segment_units = 0
    smoke_segment_units = 0
    #: Stated in the output: what the traffic crosses.
    substrate = "simulated networks (netsim), virtual time"

    def __init__(self, seed: int, smoke: bool):
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.ops = 0
        self.payload_bytes = 0
        self.failed: Counter = Counter()
        self.first_failure: Optional[str] = None
        #: Wall samples (microseconds) per :data:`PHASES` entry, for the
        #: workload whose op is a sequence of ALI calls.
        self.phases_us: Dict[str, List[float]] = {}

    def build(self) -> None:
        """Build the deployment, start the servers, load the data."""
        raise NotImplementedError

    def _op(self) -> None:
        raise NotImplementedError

    def op(self) -> None:
        """One unit of work, verified; never raises."""
        self.ops += self.unit_ops
        try:
            self._op()
        except Exception as exc:  # the workload must keep running
            self._fail(type(exc).__name__, self.unit_ops,
                       traceback.format_exc())

    def _fail(self, kind: str, ops: int, detail: str) -> None:
        self.failed[kind] += ops
        if self.first_failure is None:
            self.first_failure = detail

    def end_segment(self) -> None:
        """Hook run (inside the timed segment) after its last unit."""

    def virtual_now(self) -> Optional[float]:
        """Simulated seconds so far, or None on a real substrate."""
        return None

    def counters(self) -> Counter:
        """Raw totals of every public counter the benchmark reads."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`build` opened."""


class SimWorkload(Workload):
    """A workload over a simulated :class:`repro.testbed.Testbed`."""

    def __init__(self, seed: int, smoke: bool):
        super().__init__(seed, smoke)
        self.bed = None
        self._commods: Dict[str, object] = {}
        self._retired: Counter = Counter()

    def _module(self, name: str, machine: str):
        commod = self.bed.module(name, machine)
        self._commods[name] = commod
        return commod

    def _retire(self, name: str) -> None:
        """Forget a dead module but keep what its counters recorded."""
        commod = self._commods.pop(name)
        _merge(self._retired, commod.nucleus.counters.snapshot())
        if self.bed.modules.get(name) is commod:
            del self.bed.modules[name]

    def virtual_now(self) -> float:
        return self.bed.now

    def counters(self) -> Counter:
        bed = self.bed
        total = Counter(self._retired)
        nuclei = [commod.nucleus for commod in self._commods.values()]
        for gateway in bed.gateways.values():
            nuclei.extend(gateway.stacks.values())
            for attr in ("frames_forwarded_zero_copy", "messages_forwarded",
                         "circuits_established", "train_splices",
                         "credit_overruns_dropped",
                         "inter_gateway_control_messages"):
                total["gw." + attr] += getattr(gateway, attr)
        servers = list(bed.name_shard_servers.values()) \
            or [bed.name_server_instance]
        nuclei.extend(server.nucleus for server in servers)
        for nucleus in nuclei:
            _merge(total, nucleus.counters.snapshot())
        _merge(total, bed.registry.counters.snapshot())
        for net in bed.networks.values():
            total["net.frames_sent"] += net.frames_sent
            total["net.bytes_sent"] += net.bytes_sent
            total["net.trains_coalesced"] += net.trains_coalesced
        total["wire_frames"] = total["net.frames_sent"]
        total["sched.events"] = bed.scheduler.events_processed
        total["sched.max_pump_depth"] = bed.scheduler.max_pump_depth_seen
        for machine in bed.machines.values():
            for ipcs in machine.ipcs_instances():
                total["tcp.segments"] += getattr(ipcs, "segments_sent", 0)
                total["tcp.retransmits"] += \
                    getattr(ipcs, "segments_retransmitted", 0)
                total["mbx.records"] += getattr(ipcs, "records_sent", 0)
        return total


class EchoChain3(SimWorkload):
    """One client, one echo server, three gateways between them."""

    name = "echo_chain3"
    segment_units = 400
    smoke_segment_units = 40

    def build(self) -> None:
        self.bed = deployments.chain_nets(3)
        self._commods["far.echo"] = \
            deployments.echo_server(self.bed, "far.echo", "mEnd")
        self._client = self._module("client", "m0")
        self._dst = self._client.ali.locate("far.echo")
        self._pool = _texts(self.rng, 256, 32)

    def _op(self) -> None:
        n = self.rng.getrandbits(32)
        text = self._pool[n & 255]
        reply = self._client.ali.call(self._dst, "echo",
                                      {"n": n, "text": text})
        values = reply.values
        if values["n"] != n or values["text"] != text.upper():
            raise VerifyError(f"echo {n} {text!r} answered {values!r}")
        self.payload_bytes += 2 * deployments.ECHO.fixed_size


class StreamFanin2Net(SimWorkload):
    """Four producers burst 8 KiB one-way messages through one gateway
    to two handler-consuming sinks; the credit window closes the loop."""

    name = "stream_fanin_2net"
    unit_ops = 32
    segment_units = 96       # 24 rounds of 4 bursts: every one of the 8
    smoke_segment_units = 8  # circuits exceeds the 256-message window
    _BODY = 8192
    _BODIES = 16

    def build(self) -> None:
        self.bed = deployments.two_nets()
        self._bodies = [self.rng.randbytes(self._BODY)
                        for _ in range(self._BODIES)]
        self._crcs = [zlib.crc32(body) for body in self._bodies]
        self._sinks = [self._sink(0, "apollo1"), self._sink(1, "apollo2")]
        self._producers = [
            self._module(f"producer.{k}", "vax1" if k < 2 else "sun1")
            for k in range(4)]
        # Per (producer, sink): next sequence number to send / expected.
        self._sent = [[0, 0] for _ in range(4)]
        self._expected = [[0, 0] for _ in range(4)]
        self._bursts = 0
        self._delivered = 0
        self._total_sent = 0

    def _sink(self, index: int, machine: str):
        commod = self._module(f"sink.{index}", machine)

        def consume(message) -> None:
            values = message.values
            producer, seq = values["seq"] >> 24, values["seq"] & 0xFFFFFF
            data = values["data"]
            expected = self._expected[producer]
            if message.type_name == "bulk" and seq == expected[index] \
                    and zlib.crc32(data) == self._crcs[seq % self._BODIES]:
                self.payload_bytes += len(data) + 4
            else:
                self._fail("VerifyError", 1,
                           f"sink {index} got producer {producer} seq {seq}, "
                           f"expected {expected[index]}")
            expected[index] = seq + 1
            self._delivered += 1

        commod.ali.set_request_handler(consume)
        return commod

    def _op(self) -> None:
        producer = self._bursts % 4
        sink = (producer + self._bursts // 4) % 2
        self._bursts += 1
        send = self._producers[producer].ali.send
        dst = self._sinks[sink].ali.uadd
        sent = self._sent[producer]
        for _ in range(self.unit_ops):
            seq = sent[sink]
            send(dst, "bulk", {"seq": producer << 24 | seq & 0xFFFFFF,
                               "data": self._bodies[seq % self._BODIES]})
            sent[sink] = seq + 1
            self._total_sent += 1

    def end_segment(self) -> None:
        self.bed.settle()
        missing = self._total_sent - self._delivered
        if missing:
            self._fail("Undelivered", missing,
                       f"{missing} messages not delivered by settle()")
            self._delivered = self._total_sent


class ColdContactSharded(SimWorkload):
    """A brand-new module comes on-line, finds two peers by name, makes
    its first call across two gateways, and dies — against a sharded,
    replicated name service holding 10^5 background names.  Every 15th
    op a server relocates and a veteran client calls its stale UAdd."""

    name = "cold_contact_sharded"
    segment_units = 15
    smoke_segment_units = 15
    _SERVERS = 8
    _RELOCATE_EVERY = 15
    _ENDS = ("mEnd", "m0")

    def build(self) -> None:
        self.bed, groups = deployments.sharded_chain(
            hops=2, shards=2, replicas=2)
        ring = HashRing(groups)
        self._background: Dict[str, object] = {}
        for i in range(2_000 if self.smoke else 100_000):
            name = f"bg.{i:06d}"
            group = groups[ring.owner(name)]
            record = group[0].db.register(
                name, {}, [("net0", f"tcp:net0:bg:{i}")], "VAX")
            for replica in group[1:]:
                replica.db.adopt(record)
            self._background[name] = record.uadd
        self._names = list(self._background)
        self._at: List[str] = []
        for k in range(self._SERVERS):
            self._at.append(self._ENDS[k % 2])
            self._start_server(k)
        self._order = self.rng.sample(range(self._SERVERS), self._SERVERS)
        self._pool = _texts(self.rng, 64, 24)
        self._contacts = 0
        self._relocations = 0
        self.phases_us = {phase: [] for phase in PHASES}
        # The veteran obtains every server's UAdd once and keeps calling
        # it across relocations (paper Sec. 2.4).
        self._veteran = self._module("veteran", "m0")
        self._stale = [self._veteran.ali.locate(f"srv.{k}")
                       for k in range(self._SERVERS)]
        for k in range(self._SERVERS):
            self._call(self._veteran, self._stale[k], k, k)

    def _start_server(self, k: int) -> None:
        commod = self._module(f"srv.{k}", self._at[k])

        def handle(request) -> None:
            if request.type_name == "echo" and request.reply_expected:
                commod.ali.reply(request, "echo", {
                    "n": request.values["n"],
                    "text": f"{k}/{request.values['text'].upper()}"})

        commod.ali.set_request_handler(handle)

    def _call(self, caller, dst, k: int, n: int) -> None:
        text = self._pool[n % len(self._pool)]
        values = caller.ali.call(dst, "echo", {"n": n, "text": text}).values
        if values["n"] != n or values["text"] != f"{k}/{text.upper()}":
            raise VerifyError(f"srv.{k} answered {values!r} to {n} {text!r}")
        self.payload_bytes += 2 * deployments.ECHO.fixed_size

    def _op(self) -> None:
        clock = time.perf_counter
        phases = self.phases_us
        i = self._contacts
        self._contacts += 1
        k = self._order[i % self._SERVERS]
        # Always the far end from the chosen server, so every first
        # call opens an IVC across both gateways.
        machine = self._ENDS[self._at[k] == "mEnd"]
        name = f"new.{i}"
        t0 = clock()
        new = self._module(name, machine)
        t1 = clock()
        dst = new.ali.locate(f"srv.{k}")
        wanted = self._names[self.rng.randrange(len(self._names))]
        found = new.ali.locate(wanted)
        t2 = clock()
        if found != self._background[wanted]:
            raise VerifyError(f"{wanted} resolved to {found}")
        self._call(new, dst, k, i)
        t3 = clock()
        new.process.kill()
        self.bed.settle()
        t4 = clock()
        self._retire(name)
        phases["nsp.register_us"].append((t1 - t0) * 1e6)
        phases["nsp.locate_us"].append((t2 - t1) * 5e5)  # two locates
        phases["ip.first_call_us"].append((t3 - t2) * 1e6)
        phases["nsp.deregister_us"].append((t4 - t3) * 1e6)
        if self._contacts % self._RELOCATE_EVERY == 0:
            self._relocate()

    def _relocate(self) -> None:
        """Move one server to the other end of the chain by kill +
        re-register (``ProcessController.relocate`` does not work on a
        sharded deployment; see README), then have the veteran call the
        UAdd it obtained before the move."""
        k = self._relocations % self._SERVERS
        self._relocations += 1
        name = f"srv.{k}"
        self._commods[name].process.kill()
        self.bed.settle()
        self._retire(name)
        self._at[k] = self._ENDS[self._at[k] == "mEnd"]
        self._start_server(k)
        started = time.perf_counter()
        self._call(self._veteran, self._stale[k], k, self._relocations)
        self.phases_us["lcm.relocated_call_us"].append(
            (time.perf_counter() - started) * 1e6)


class RtcpEchoPacked(Workload):
    """A VAX-type client calls a Sun-3-type server over real loopback
    TCP sockets: packed mode both ways, no netsim/ipcs/gateway."""

    name = "rtcp_echo_packed"
    segment_units = 1500
    smoke_segment_units = 150
    substrate = ("REAL loopback TCP sockets on 127.0.0.1 "
                 "(the host's loopback interface, not a real link)")

    def build(self) -> None:
        self._dep = dep = RealDeployment()
        dep.registry.register(deployments.NUMBERS)
        dep.machine("vaxish", VAX)
        dep.machine("sunish", SUN3)
        dep.name_server("vaxish")
        server = dep.module("adder", "sunish")

        def handle(request) -> None:
            values = request.values
            server.ali.reply(request, "numbers", {
                "a": values["a"] + 1, "b": values["b"],
                "big": values["big"]})

        server.ali.set_request_handler(handle)
        self._client = dep.module("client", "vaxish")
        self._dst = self._client.ali.locate("adder")

    def _op(self) -> None:
        rng = self.rng
        a = rng.getrandbits(31)
        b = rng.getrandbits(32) - (1 << 31)
        big = rng.getrandbits(64)
        values = self._client.ali.call(
            self._dst, "numbers", {"a": a, "b": b, "big": big},
            timeout=5.0).values
        if values != {"a": a + 1, "b": b, "big": big}:
            raise VerifyError(f"numbers {a} {b} {big} answered {values!r}")
        self.payload_bytes += 2 * deployments.NUMBERS.fixed_size

    def counters(self) -> Counter:
        dep = self._dep
        total: Counter = Counter()
        for commod in dep.modules.values():
            _merge(total, commod.nucleus.counters.snapshot())
        _merge(total, dep.name_server_instance.nucleus.counters.snapshot())
        _merge(total, dep.registry.counters.snapshot())
        total["wire_frames"] = total["nd_messages_sent"]
        total["rt.kernel_events"] = dep.kernel.events_processed
        total["sched.max_pump_depth"] = dep.kernel.max_pump_depth_seen
        # The socket channels are reachable only through the read
        # callbacks they registered with the kernel's selector.
        for key in dep.kernel.selector.get_map().values():
            channel = getattr(key.data.get(selectors.EVENT_READ),
                              "__self__", None)
            total["rt.socket_bytes"] += getattr(channel, "bytes_sent", 0)
        return total

    def close(self) -> None:
        self._dep.shutdown()


WORKLOADS = {cls.name: cls for cls in (
    EchoChain3, StreamFanin2Net, ColdContactSharded, RtcpEchoPacked)}
