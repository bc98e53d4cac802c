#!/usr/bin/env python
"""Fast-path microbenchmarks: the machine-readable bench trajectory.

Measures the PR's fast-path claims against embedded copies of the
*pre-change* implementation (the per-byte shift loops and the
decode/re-encode-per-hop forwarding discipline) and writes the results
to ``BENCH_pipeline.json`` at the repo root.  The control-plane benches
(NSP resolution cache, batched Name-Server operations, the pinned
E5-internet invariants — PROTOCOL.md §9) write ``BENCH_naming.json``.

Row schema (one JSON object per measurement)::

    {"bench": str, "metric": str, "value": number, "unit": str,
     "virtual_ms": number | null, "wall_ms": number | null}

``virtual_ms`` is simulation time (only the end-to-end chain bench has
it); ``wall_ms`` is the wall-clock cost of taking the measurement.

The event-core scale sweep (timer wheel + run queues vs the pre-change
single binary heap, PROTOCOL.md §11) writes ``BENCH_scale.json``; the
flow-control overload bench (credit windows and backpressure,
PROTOCOL.md §12) writes ``BENCH_flow.json``; the frame-train dispatch
sweep (netsim delivery-event coalescing, PROTOCOL.md §13) writes
``BENCH_dispatch.json``.

Usage::

    python benchmarks/microbench.py             # run + write + enforce
    python benchmarks/microbench.py --scale     # scale sweep only
    python benchmarks/microbench.py --flow      # flow overload bench only
    python benchmarks/microbench.py --dispatch  # frame-train sweep only
    python benchmarks/microbench.py --naming    # naming benches only
    python benchmarks/microbench.py --check     # validate the JSON only

The run fails (exit 1) when the measured speedups fall below the
acceptance floors: >= 3x on header encode+decode, >= 2x on the
3-gateway forwarding loop, >= 5x on repeated hot resolution (cache on
vs off), >= 2x fewer Name-Server requests during an URSA cold start,
>= 10x scheduler event throughput on the 10,000-module topology (>= 3x
at 1,000), a flow-controlled receive queue capped at the credit window
(with the uncontrolled run >= 4x deeper at >= 0.4x the goodput cost),
>= 3x fewer scheduler events per delivered message and >= 2x faster
end-to-end drain with frame trains on at 10,000 modules, a sharded
name database that holds >= 10^5 registered modules at every swept
shard count with the per-resolve cost within 1.5x of the single-shard
cost, and million-name ring placements balanced inside the §14 bound
— or when the pinned E5-internet establishment-frame counts move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "tests"))

OUT_PATH = os.path.join(REPO, "BENCH_pipeline.json")
NAMING_OUT_PATH = os.path.join(REPO, "BENCH_naming.json")
RECOVERY_OUT_PATH = os.path.join(REPO, "BENCH_recovery.json")
SCALE_OUT_PATH = os.path.join(REPO, "BENCH_scale.json")
FLOW_OUT_PATH = os.path.join(REPO, "BENCH_flow.json")
DISPATCH_OUT_PATH = os.path.join(REPO, "BENCH_dispatch.json")
SCHEMA_KEYS = ("bench", "metric", "value", "unit", "virtual_ms", "wall_ms")

HEADER_ENCODE_FLOOR = 3.0   # x, header encode+decode vs per-byte loops
FORWARDING_FLOOR = 2.0      # x, 3-gateway forwarding loop vs legacy
HOT_RESOLUTION_FLOOR = 5.0  # x, repeated hot resolution, cache on vs off
URSA_NS_FLOOR = 2.0         # x, NS requests during URSA cold start
# E5-internet semantics pinned by the PR that introduced the zero-copy
# splice: establishment frames per k-gateway chain, and an empty
# inter-gateway control plane.  The control-plane cache must not move
# these numbers.
E5_ESTABLISH_FRAMES = {0: 14, 1: 64, 2: 124, 3: 202, 4: 298}

# Sharded-naming sweep (PROTOCOL.md §14): the name database bulk-loaded
# across 1/2/4 shards through the same consistent-hash ring every
# client computes.  The floors gate the scale claim — >= 10^5
# registered modules per configuration with the per-resolve cost flat
# as shards are added (a lookup is one ring placement plus one
# shard-local resolve, never a fan-out) — and the ring's placement
# balance on the million-name sweep.
NAMING_SHARD_SWEEP = (1, 2, 4)
NAMING_SHARD_RECORDS = 100_000      # the 10^5 acceptance scale
NAMING_SHARD_LOOKUPS = 20_000
NAMING_FLAT_CEILING = 1.5           # x, resolve cost at N shards vs 1
NAMING_RING_PLACEMENTS = (100_000, 1_000_000)
NAMING_BALANCE_LO = 0.2             # x mean, lightest shard's share
NAMING_BALANCE_HI = 3.0             # x mean, heaviest shard's share

# The §9 work-saved counters surfaced in the report table.
CONTROL_PLANE_COUNTERS = (
    "nsp_cache_hits", "nsp_cache_misses", "nsp_cache_invalidations",
    "nsp_calls_coalesced", "nsp_batch_resolves",
)

# The §10 circuit-repair counters surfaced in the recovery table.
RECOVERY_COUNTERS = (
    "lcm_circuit_repairs", "ivc_reopen_attempts", "ns_failovers",
    "lcm_duplicate_requests_suppressed", "ip_suspect_fallbacks",
    "lcm_circuit_faults",
)
RECOVERY_BACKOFF_BUCKETS = 8

# Event-core scale sweep (PROTOCOL.md §11): module counts, fixed
# message workload, and the acceptance floors on timer-wheel speedup
# over the pre-change single binary heap.  The floors gate the
# steady-state drain metric: with a 50 ms think time and a 1 s RTO
# horizon, every connection keeps RTO/think = 20 cancelled timers
# parked in the queue at any instant, so the pre-change heap carries
# ~20 corpses per live event at steady state and pays a full
# O(log n) pop to discard each one.
SCALE_SWEEP = (10, 100, 1000, 10000)
SCALE_MESSAGES = 20000
SCALE_CORPSES_PER_MODULE = 20   # RTO horizon (1 s) / think time (50 ms)
SCALE_10K_FLOOR = 10.0   # x, drain events/sec at 10,000 modules
SCALE_1K_FLOOR = 3.0     # x, drain events/sec at 1,000 modules

# Flow-control bench (PROTOCOL.md §12): a fast producer floods a slow
# (batch-draining) consumer across a gateway.  With flow control on,
# the consumer's receive queue must hold at the credit window; with it
# off, the queue peak is the whole backlog.  The floors gate both the
# bounded-memory claim and the goodput cost of enforcing it.
FLOW_BENCH_WINDOW = 16
FLOW_BENCH_MESSAGES = 96
FLOW_DEPTH_FLOOR = 4.0     # x, uncontrolled queue peak vs controlled ceiling
FLOW_GOODPUT_FLOOR = 0.4   # x, controlled goodput vs uncontrolled
FLOW_COUNTERS = (
    "ip_credit_stalls", "ip_credit_probes", "ip_credit_grants",
    "ip_credit_resyncs", "ali_send_blocked",
)

# Frame-train dispatch sweep (PROTOCOL.md §13): a steady-state fan-in
# workload on the netsim substrate — ``modules`` senders firing bursts
# at one sink — with train coalescing off (``train_max = 1``) vs on.
# The floors gate the headline claims at 10,000 modules: scheduler
# events per delivered message must drop >= 3x, and the wall-clock cost
# of draining the whole workload must drop >= 2x.  A real-stack burst
# across the two_nets gateway and the pinned E5 establishment counts
# ride along as context and as the wire-invariance re-check.
DISPATCH_SWEEP = (10, 1000, 10000)
DISPATCH_MESSAGES = 40000
DISPATCH_BURST_TICKS = 32      # senders spread over this many instants
DISPATCH_EVENTS_FLOOR = 3.0    # x, events/message reduction at 10k
DISPATCH_DRAIN_FLOOR = 2.0     # x, wall-clock drain speedup at 10k
DISPATCH_E2E_MESSAGES = 60


# ---------------------------------------------------------------------------
# The pre-change implementation, embedded verbatim as the baseline.
# These are the per-byte shift loops src/repro/conversion/shiftmode.py
# shipped before this PR, and the decode + full-re-encode per hop the
# gateway performed before the zero-copy splice.  They double as a
# living reference for the wire contract: the golden-fixture tests
# assert the live codecs still agree with them byte for byte.
# ---------------------------------------------------------------------------

def legacy_shift_encode_u32s(values):
    out = bytearray()
    for value in values:
        if not 0 <= value <= 0xFFFFFFFF:
            raise ValueError(f"shift mode value {value} out of u32 range")
        out.append((value >> 24) & 0xFF)
        out.append((value >> 16) & 0xFF)
        out.append((value >> 8) & 0xFF)
        out.append(value & 0xFF)
    return bytes(out)


def legacy_shift_decode_u32s(data, count, offset=0):
    values = []
    pos = offset
    for _ in range(count):
        value = (
            (data[pos] << 24)
            | (data[pos + 1] << 16)
            | (data[pos + 2] << 8)
            | data[pos + 3]
        )
        values.append(value)
        pos += 4
    return values


def legacy_msg_decode(frame, m, Address):
    """Pre-change ``Msg.decode``: per-byte word decode, checksum
    verified on every hop, full Msg/Address construction."""
    words = legacy_shift_decode_u32s(frame, 12)
    if words[0] != m.MAGIC:
        raise ValueError("bad magic")
    if words[11] != sum(words[:11]) & 0xFFFFFFFF:
        raise ValueError("header checksum mismatch")
    return m.Msg(
        kind=words[1], flags=words[2],
        src=Address.from_u32_pair(words[3], words[4]),
        dst=Address.from_u32_pair(words[5], words[6]),
        type_id=words[7], corr_id=words[8], aux=words[10],
        body=frame[48:],
    )


def legacy_msg_encode(msg, m):
    """Pre-change ``Msg.encode``: full per-byte header re-serialization
    on every send — no frame cache."""
    src_hi, src_lo = msg.src.to_u32_pair()
    dst_hi, dst_lo = msg.dst.to_u32_pair()
    words = [
        m.MAGIC, msg.kind, msg.flags,
        src_hi, src_lo, dst_hi, dst_lo,
        msg.type_id, msg.corr_id, len(msg.body), msg.aux,
    ]
    words.append(sum(words) & 0xFFFFFFFF)
    return legacy_shift_encode_u32s(words) + msg.body


# ---------------------------------------------------------------------------
# The pre-change event core, embedded verbatim as the scale baseline:
# one binary heap of Event objects ordered by Python-level __lt__, no
# run queues, no pooling, lazy cancellation.  This is the scheduler
# src/repro/netsim/scheduler.py shipped before the timer wheel.
# ---------------------------------------------------------------------------

import heapq  # ntcslint: allow=DET006 — embedded pre-change baseline for the scale bench


class _LegacyEvent:
    __slots__ = ("time", "seq", "callback", "note", "cancelled")

    def __init__(self, time, seq, callback, note):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.note = note
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class _LegacyScheduler:
    """Verbatim hot path of the pre-wheel Scheduler (schedule/step)."""

    def __init__(self):
        self._queue = []
        self._seq = 0
        self._now = 0.0
        self._processed = 0

    @property
    def now(self):
        return self._now

    def schedule(self, delay, callback, note=""):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        event = _LegacyEvent(self._now + delay, self._seq, callback, note)
        heapq.heappush(self._queue, event)
        return event

    def _pop_runnable(self):
        while self._queue:
            event = heapq.heappop(self._queue)
            if not event.cancelled:
                return event
        return None

    def step(self):
        event = self._pop_runnable()
        if event is None:
            return False
        self._now = event.time
        self._processed += 1
        event.callback()
        return True

    def pending(self):
        return sum(1 for e in self._queue if not e.cancelled)


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------

def best_of(fn, repeats=5):
    """Minimum wall-clock seconds over ``repeats`` runs of ``fn``.
    The collector is paused per run: large topologies allocate tens of
    thousands of events and closures, and generational GC pauses
    otherwise swamp the measurement (±40% observed at 10k modules)."""
    best = None
    for _ in range(repeats):
        gc_was = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()  # ntcslint: allow=DET001 — benchmarks measure wall time by design
            fn()
            elapsed = time.perf_counter() - t0  # ntcslint: allow=DET001 — benchmarks measure wall time by design
        finally:
            if gc_was:
                gc.enable()
        best = elapsed if best is None else min(best, elapsed)
    return best


def row(bench: str, metric: str, value: float, unit: str,
        virtual_ms: Optional[float] = None,
        wall_ms: Optional[float] = None) -> dict:
    return {"bench": bench, "metric": metric,
            "value": round(float(value), 4), "unit": unit,
            "virtual_ms": (None if virtual_ms is None
                           else round(float(virtual_ms), 4)),
            "wall_ms": (None if wall_ms is None
                        else round(float(wall_ms), 4))}


# ---------------------------------------------------------------------------
# Benches
# ---------------------------------------------------------------------------

def bench_header_codec(rows: List[dict]) -> float:
    """Header encode+decode: per-byte shift loops vs batched struct."""
    from repro.conversion.shiftmode import (
        shift_decode_u32s, shift_encode_u32s,
    )

    words = [0x4E544353, 1, 0x03, 0, 3, 0, 9, 100, 7, 64, 2]
    words.append(sum(words) & 0xFFFFFFFF)
    n = 20000

    def legacy():
        for _ in range(n):
            legacy_shift_decode_u32s(legacy_shift_encode_u32s(words), 12)

    def batched():
        for _ in range(n):
            shift_decode_u32s(shift_encode_u32s(words), 12)

    assert shift_encode_u32s(words) == legacy_shift_encode_u32s(words)
    legacy_s = best_of(legacy)
    batched_s = best_of(batched)
    speedup = legacy_s / batched_s
    rows.append(row("header_codec", "legacy_encode_decode",
                    legacy_s / n * 1e6, "us/header",
                    wall_ms=legacy_s * 1000))
    rows.append(row("header_codec", "batched_encode_decode",
                    batched_s / n * 1e6, "us/header",
                    wall_ms=batched_s * 1000))
    rows.append(row("header_codec", "speedup", speedup, "x"))
    return speedup


def bench_forwarding(rows: List[dict]) -> float:
    """Synthetic 3-gateway forwarding loop: decode + re-encode + verify
    per hop (legacy) vs the zero-copy splice (decode once deferred,
    forward the cached frame, verify once at the endpoint)."""
    from repro.ntcs import message as m
    from repro.ntcs.address import Address

    msg = m.Msg(kind=m.DATA, src=Address(3), dst=Address(9),
                flags=m.FLAG_PACKED, type_id=100, corr_id=7,
                body=b"x" * 64)
    frame = msg.encode()
    hops = 3
    n = 5000

    def legacy():
        for _ in range(n):
            f = frame
            for _hop in range(hops):
                hop_msg = legacy_msg_decode(f, m, Address)
                f = legacy_msg_encode(hop_msg, m)
            legacy_msg_decode(f, m, Address)

    def fastpath():
        for _ in range(n):
            f = frame
            for _hop in range(hops):
                # The splice tap: route on the header view alone, no
                # Msg materialized, frame forwarded verbatim.
                header = m.HeaderView(f)
                if header.kind == m.IVC_CLOSE:
                    raise AssertionError("unexpected close")
            end_msg = m.Msg.decode(f, verify=False)
            if not end_msg.checksum_ok():
                raise ValueError("header checksum mismatch")

    legacy_s = best_of(legacy)
    fast_s = best_of(fastpath)
    speedup = legacy_s / fast_s
    rows.append(row("forwarding_3gw", "legacy_per_message",
                    legacy_s / n * 1e6, "us/message",
                    wall_ms=legacy_s * 1000))
    rows.append(row("forwarding_3gw", "fastpath_per_message",
                    fast_s / n * 1e6, "us/message",
                    wall_ms=fast_s * 1000))
    rows.append(row("forwarding_3gw", "speedup", speedup, "x"))
    return speedup


def bench_pack_unpack(rows: List[dict]) -> None:
    """Generated codec throughput (the packed-mode body path)."""
    from repro.conversion.registry import ConversionRegistry
    from repro.conversion.structdef import Field, StructDef

    registry = ConversionRegistry()
    entry = registry.register(StructDef("bench_msg", 100, [
        Field("n", "i32"), Field("ratio", "f64"),
        Field("tag", "char[12]"), Field("tail", "bytes"),
    ]))
    values = {"n": -1234, "ratio": 2.5, "tag": "bench", "tail": b"\x00\x01"}
    n = 10000

    def run():
        for _ in range(n):
            entry.unpack(entry.pack(values))

    elapsed = best_of(run)
    rows.append(row("pack_unpack", "round_trips",
                    n / elapsed, "msgs/s", wall_ms=elapsed * 1000))


def bench_e2e_chain(rows: List[dict]) -> None:
    """End-to-end sanity on the simulated 3-gateway chain: steady-state
    call latency in virtual time plus the wall cost of the whole run."""
    from deployments import chain_nets, echo_server

    t0 = time.perf_counter()  # ntcslint: allow=DET001 — benchmarks measure wall time by design
    bed = chain_nets(3)
    echo_server(bed, "far.echo", "mEnd")
    client = bed.module("client", "m0")
    uadd = client.ali.locate("far.echo")
    client.ali.call(uadd, "echo", {"n": 0, "text": "warm"})
    calls = 10
    v0 = bed.now
    for i in range(calls):
        client.ali.call(uadd, "echo", {"n": i, "text": "steady"})
    virtual_ms = (bed.now - v0) * 1000 / calls
    wall_ms = (time.perf_counter() - t0) * 1000  # ntcslint: allow=DET001 — benchmarks measure wall time by design
    zero_copy = sum(gw.frames_forwarded_zero_copy
                    for gw in bed.gateways.values())
    deferred = sum(gw.checksum_verifies_deferred
                   for gw in bed.gateways.values())
    rows.append(row("e2e_chain3", "steady_call", virtual_ms,
                    "virtual_ms/call", virtual_ms=virtual_ms,
                    wall_ms=wall_ms))
    rows.append(row("e2e_chain3", "frames_forwarded_zero_copy",
                    zero_copy, "frames", wall_ms=wall_ms))
    rows.append(row("e2e_chain3", "checksum_verifies_deferred",
                    deferred, "verifies", wall_ms=wall_ms))


# ---------------------------------------------------------------------------
# Control-plane benches (PROTOCOL.md §9) -> BENCH_naming.json
# ---------------------------------------------------------------------------

def bench_hot_resolution(rows: List[dict]) -> float:
    """Repeated resolution of an already-known name: full Name-Server
    round trip every time (cache off) vs the NSP-layer resolution cache
    (cache on)."""
    from deployments import echo_server, single_net
    from repro.ntcs.nucleus import NucleusConfig

    n = 200

    def measure(enabled):
        bed = single_net(NucleusConfig(nsp_cache_enabled=enabled))
        echo_server(bed, "dest", "sun1")
        client = bed.module("client", "vax1")
        client.ali.locate("dest")   # first resolution always pays
        ns = bed.name_server_instance
        ns_before = sum(count for _, count in ns.counters)
        v0 = bed.now

        def loop():
            for _ in range(n):
                client.ali.locate("dest")

        wall = best_of(loop, repeats=3)
        ns_requests = sum(count for _, count in ns.counters) - ns_before
        return wall, ns_requests, (bed.now - v0) * 1000

    off_wall, off_ns, off_virtual = measure(False)
    on_wall, on_ns, on_virtual = measure(True)
    speedup = off_wall / on_wall
    rows.append(row("naming_control_plane", "hot_resolution_cache_off",
                    off_wall / n * 1e6, "us/resolve",
                    virtual_ms=off_virtual, wall_ms=off_wall * 1000))
    rows.append(row("naming_control_plane", "hot_resolution_cache_on",
                    on_wall / n * 1e6, "us/resolve",
                    virtual_ms=on_virtual, wall_ms=on_wall * 1000))
    rows.append(row("naming_control_plane", "hot_resolution_speedup",
                    speedup, "x"))
    rows.append(row("naming_control_plane", "ns_requests_cache_off",
                    off_ns, "requests"))
    rows.append(row("naming_control_plane", "ns_requests_cache_on",
                    on_ns, "requests"))
    return speedup


def bench_ursa_cold_start(rows: List[dict]) -> float:
    """Name-Server resolution requests during an URSA cold start
    (deploy, one search, one fetch per host, three hosts) with batched
    prefetch + cache vs the one-round-trip-per-resolution control
    plane.  Registration writes are excluded — they are identical in
    both modes and no cache can remove them."""
    from repro import SUN3, Testbed, VAX
    from repro.ntcs.nucleus import NucleusConfig
    from repro.ursa import Corpus, deploy_ursa

    corpus = Corpus(n_docs=30, seed=7)
    term = corpus.common_terms(1)[0]

    def cold_start(enabled):
        bed = Testbed(NucleusConfig(nsp_cache_enabled=enabled))
        bed.network("ether0", protocol="tcp")
        bed.machine("vax1", VAX, networks=["ether0"])
        bed.machine("sun1", SUN3, networks=["ether0"])
        bed.machine("sun2", SUN3, networks=["ether0"])
        bed.name_server("vax1")
        ns = bed.name_server_instance

        def resolutions():
            return sum(count for name, count in ns.counters
                       if name != "ns_register")

        before = resolutions()
        ursa = deploy_ursa(bed, corpus, index_machines=["sun1", "sun2"],
                           search_machine="sun1", docs_machine="sun2",
                           host_machines=["vax1", "sun1", "sun2"])
        for host in ursa.hosts:
            host.search_and_fetch(term, limit=2)
        saved = {name: sum(commod.nucleus.counters[name]
                           for commod in bed.modules.values())
                 for name in CONTROL_PLANE_COUNTERS}
        return resolutions() - before, saved

    off_requests, _ = cold_start(False)
    on_requests, saved = cold_start(True)
    reduction = off_requests / max(1, on_requests)
    rows.append(row("naming_control_plane", "ursa_cold_ns_requests_off",
                    off_requests, "requests"))
    rows.append(row("naming_control_plane", "ursa_cold_ns_requests_on",
                    on_requests, "requests"))
    rows.append(row("naming_control_plane", "ursa_cold_ns_reduction",
                    reduction, "x"))
    # The §9 work-saved counters, summed over every module in the
    # cache-on cold start — the raw data for the report's
    # "control-plane work saved" table.
    for name in CONTROL_PLANE_COUNTERS:
        rows.append(row("control_plane_saved", name, saved[name], "events"))
    return reduction


def bench_e5_invariants(rows: List[dict]) -> List[str]:
    """E5-internet invariants with the cache ON: establishment frames
    per k-gateway chain and the empty inter-gateway control plane must
    match the numbers pinned before this cache existed."""
    from deployments import chain_nets, echo_server

    failures = []
    for hops, expected in sorted(E5_ESTABLISH_FRAMES.items()):
        bed = chain_nets(hops)
        echo_server(bed, "far.echo", "mEnd")
        client = bed.module("client", "m0")
        uadd = client.ali.locate("far.echo")
        frames_before = sum(net.frames_sent for net in bed.networks.values())
        client.ali.call(uadd, "echo", {"n": 0, "text": "establish"})
        frames = sum(net.frames_sent
                     for net in bed.networks.values()) - frames_before
        control = sum(gw.inter_gateway_control_messages
                      for gw in bed.gateways.values())
        rows.append(row("e5_invariants", f"establish_frames_{hops}gw",
                        frames, "frames"))
        rows.append(row("e5_invariants", f"inter_gw_control_{hops}gw",
                        control, "messages"))
        if frames != expected:
            failures.append(
                f"E5 establish frames for {hops} gateways: {frames} "
                f"!= pinned {expected}"
            )
        if control != 0:
            failures.append(
                f"E5 inter-gateway control messages for {hops} gateways: "
                f"{control} != 0"
            )
    return failures


def bench_naming_shards(rows: List[dict]) -> List[str]:
    """The §14 scale contract, measured: bulk-load
    ``NAMING_SHARD_RECORDS`` modules into a 1/2/4-shard name database
    through the client-side ring, then resolve a deterministic sample.
    The per-lookup cost must stay flat as shards are added — each
    resolve is one ring placement plus one shard-local lookup, never a
    fan-out — and every configuration must hold the full 10^5 records.
    The raw ring placement throughput is swept toward 10^6 names with
    its balance checked against the §14 bound.  Returns floor
    violations."""
    from repro.naming.database import NameDatabase
    from repro.naming.shards import HashRing

    failures = []
    names = [f"mod.{i}" for i in range(NAMING_SHARD_RECORDS)]
    # A deterministic prime-strided sample: touches every shard, never
    # the same name twice in a row, no RNG.
    sample = [names[(i * 7919) % NAMING_SHARD_RECORDS]
              for i in range(NAMING_SHARD_LOOKUPS)]
    costs = {}
    for shards in NAMING_SHARD_SWEEP:
        ring = HashRing(range(shards))
        owner = ring.owner
        dbs = {sid: NameDatabase(server_id=sid + 1) for sid in ring.shards}

        def bulk_load():
            for name in names:
                dbs[owner(name)].register(
                    name, {},
                    [("ether0", f"tcp:ether0:ns{shards}:411")], "VAX")

        # One pass only: register mints a fresh UAdd per call, so a
        # repeat would double the database.
        load_s = best_of(bulk_load, repeats=1)
        loaded = sum(len(db) for db in dbs.values())

        def resolve_sample():
            for name in sample:
                dbs[owner(name)].resolve_name(name)

        lookup_s = best_of(resolve_sample, repeats=3)
        cost_us = lookup_s / NAMING_SHARD_LOOKUPS * 1e6
        costs[shards] = cost_us
        counts = sorted(len(db) for db in dbs.values())
        rows.append(row("naming_shards", f"records_loaded_{shards}shard",
                        loaded, "records", wall_ms=load_s * 1000))
        rows.append(row("naming_shards", f"resolve_us_{shards}shard",
                        cost_us, "us/lookup", wall_ms=lookup_s * 1000))
        rows.append(row("naming_shards", f"resolve_rate_{shards}shard",
                        NAMING_SHARD_LOOKUPS / lookup_s, "lookups/s"))
        rows.append(row("naming_shards", f"lightest_shard_{shards}shard",
                        counts[0], "records"))
        rows.append(row("naming_shards", f"heaviest_shard_{shards}shard",
                        counts[-1], "records"))
        if loaded != NAMING_SHARD_RECORDS:
            failures.append(
                f"{shards}-shard database holds {loaded} records, "
                f"expected {NAMING_SHARD_RECORDS}"
            )
    baseline = costs[min(NAMING_SHARD_SWEEP)]
    for shards in NAMING_SHARD_SWEEP:
        flatness = costs[shards] / baseline
        rows.append(row("naming_shards", f"resolve_flatness_{shards}shard",
                        flatness, "x"))
        if flatness > NAMING_FLAT_CEILING:
            failures.append(
                f"resolve cost at {shards} shards is {flatness:.2f}x the "
                f"single-shard cost > {NAMING_FLAT_CEILING}x ceiling"
            )
    for placements in NAMING_RING_PLACEMENTS:
        ring = HashRing(range(max(NAMING_SHARD_SWEEP)))
        owner = ring.owner
        counts = dict.fromkeys(ring.shards, 0)

        def place_all():
            for i in range(placements):
                counts[owner(f"mod.{i}")] += 1

        # One pass only: the balance check reads the placement counts.
        elapsed = best_of(place_all, repeats=1)
        mean = placements / len(counts)
        lo = min(counts.values()) / mean
        hi = max(counts.values()) / mean
        rows.append(row("naming_ring", f"placements_per_s_{placements}",
                        placements / elapsed, "placements/s",
                        wall_ms=elapsed * 1000))
        rows.append(row("naming_ring", f"balance_lo_{placements}", lo, "x"))
        rows.append(row("naming_ring", f"balance_hi_{placements}", hi, "x"))
        if lo < NAMING_BALANCE_LO or hi > NAMING_BALANCE_HI:
            failures.append(
                f"ring balance over {placements} placements "
                f"[{lo:.3f}x, {hi:.3f}x] outside "
                f"[{NAMING_BALANCE_LO}x, {NAMING_BALANCE_HI}x]"
            )
    return failures


def check_naming_floors(path: str) -> List[str]:
    """Re-enforce the sharded-naming floors and the pinned E5 counts
    from an existing BENCH_naming.json (the ``--check`` side of the
    contract)."""
    try:
        with open(path) as f:
            rows = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    by_bench = {}
    for entry in rows:
        if isinstance(entry, dict):
            by_bench.setdefault(entry.get("bench"), {})[
                entry.get("metric")] = entry.get("value")
    shard = by_bench.get("naming_shards", {})
    ring = by_bench.get("naming_ring", {})
    e5 = by_bench.get("e5_invariants", {})
    problems = []
    for shards in NAMING_SHARD_SWEEP:
        metric = f"records_loaded_{shards}shard"
        if metric not in shard:
            problems.append(f"{path}: missing {metric} row")
        elif shard[metric] < NAMING_SHARD_RECORDS:
            problems.append(
                f"{path}: {metric} = {shard[metric]} "
                f"< {NAMING_SHARD_RECORDS} records"
            )
        metric = f"resolve_flatness_{shards}shard"
        if metric not in shard:
            problems.append(f"{path}: missing {metric} row")
        elif shard[metric] > NAMING_FLAT_CEILING:
            problems.append(
                f"{path}: {metric} = {shard[metric]:.2f}x "
                f"> {NAMING_FLAT_CEILING}x ceiling"
            )
    for placements in NAMING_RING_PLACEMENTS:
        lo = ring.get(f"balance_lo_{placements}")
        hi = ring.get(f"balance_hi_{placements}")
        if lo is None or hi is None:
            problems.append(
                f"{path}: missing balance rows for {placements} placements")
        elif lo < NAMING_BALANCE_LO or hi > NAMING_BALANCE_HI:
            problems.append(
                f"{path}: ring balance over {placements} placements "
                f"[{lo:.3f}x, {hi:.3f}x] outside "
                f"[{NAMING_BALANCE_LO}x, {NAMING_BALANCE_HI}x]"
            )
    for hops, expected in sorted(E5_ESTABLISH_FRAMES.items()):
        metric = f"establish_frames_{hops}gw"
        if metric not in e5:
            problems.append(f"{path}: missing {metric} row")
        elif e5[metric] != expected:
            problems.append(
                f"{path}: {metric} = {e5[metric]} != pinned {expected}"
            )
        control = e5.get(f"inter_gw_control_{hops}gw")
        if control:
            problems.append(
                f"{path}: inter_gw_control_{hops}gw = {control} != 0"
            )
    return problems


# ---------------------------------------------------------------------------
# Event-core scale sweep (PROTOCOL.md §11) -> BENCH_scale.json
# ---------------------------------------------------------------------------

def _nothing():
    pass


def _build_steady_state(sched, modules):
    """Arm the queue census an ``modules``-module topology carries at
    steady state, via identical scheduler calls on either core.

    Per module: one far-future keepalive (the idle majority), one
    near-due send timer (the work about to happen), and
    ``SCALE_CORPSES_PER_MODULE`` cancelled retransmit/delayed-ack
    timers — the timers tcp.py arms per segment and cancels when the
    ack arrives.  Cancelled timers linger for their full delay, so at
    a 50 ms think time and a 1 s RTO horizon there are ~20 of them per
    connection in the queue at any instant.  The pre-change heap keeps
    every corpse until a pop surfaces it; the wheel's eager accounting
    compacts them as they accrue.  Returns the live-event count."""
    schedule = sched.schedule
    for i in range(modules):
        schedule(60.0 + (i % 64) * 0.9, _nothing, note="keepalive")
        schedule(0.001 + (i % 50) * 0.001, _nothing, note="send")
        for j in range(SCALE_CORPSES_PER_MODULE):
            schedule(0.2 + j * 0.05 + (i % 16) * 0.003, _nothing,
                     note="rto").cancel()
    return 2 * modules


def _drain(sched):
    """Retire every remaining live event; returns how many ran."""
    retired = 0
    while sched.step():
        retired += 1
    return retired


def _timed_drain(make_sched, modules, repeats=3):
    """Best-of wall seconds to drain the steady-state census, plus the
    build time and the retired-event count (identical on both cores —
    corpse discards are the baseline's own overhead, not work)."""
    best = build_best = None
    retired = 0
    for _ in range(repeats):
        sched = make_sched()
        gc_was = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()  # ntcslint: allow=DET001 — benchmarks measure wall time by design
            live = _build_steady_state(sched, modules)
            t1 = time.perf_counter()  # ntcslint: allow=DET001 — benchmarks measure wall time by design
            retired = _drain(sched)
            elapsed = time.perf_counter() - t1  # ntcslint: allow=DET001 — benchmarks measure wall time by design
        finally:
            if gc_was:
                gc.enable()
        if retired != live:
            raise AssertionError(
                f"drain retired {retired} events, expected {live} live"
            )
        best = elapsed if best is None else min(best, elapsed)
        build = t1 - t0
        build_best = build if build_best is None else min(build_best, build)
    return best, build_best, retired


def _drive_scale_soak(sched, modules, messages):
    """The same topology, live: every module is one connection
    exchanging its share of ``messages`` messages in the TCP idiom —
    a delivery event per segment plus an RTO timer the ack cancels —
    exactly the event mix network.py/tcp.py generate.  Returns total
    events processed."""
    for i in range(modules):
        sched.schedule(60.0 + (i % 64) * 0.9, _nothing, note="keepalive")
    # The integrated fast path posts deliveries without a handle; the
    # legacy baseline predates post() and pays schedule() for both.
    post = getattr(sched, "post", sched.schedule)
    per_conn = max(1, messages // modules)
    finished = [0]

    def connection(k):
        remaining = [per_conn]
        pend = [None]

        def on_ack():
            timer = pend[0]
            if timer is not None:
                timer.cancel()
                pend[0] = None
            remaining[0] -= 1
            if remaining[0] > 0:
                send()
            else:
                finished[0] += 1

        def on_rto():
            pend[0] = None

        def send():
            post(0.0005 + (k % 7) * 0.0001, on_ack, "segment")
            pend[0] = sched.schedule(1.0, on_rto, note="rto")

        return send

    for k in range(modules):
        connection(k)()
    steps = 0
    while finished[0] < modules:
        if not sched.step():
            break
        steps += 1
    return steps


def bench_scale(rows: List[dict]) -> List[str]:
    """Event-core throughput at topology scale, timer wheel vs the
    pre-change heap.  Two components per module count:

    * **drain** (the floor-gated headline): events/sec retiring the
      live events out of the steady-state queue census.  This is the
      metric the cancelled-event leak governs — the heap pops past
      ~20 corpses per live event at full O(log n) cost each, while
      the wheel compacted them away as they were cancelled.
    * **soak** (context): end-to-end events/sec running the live
      message workload.  Dominated by shared per-event Python
      dispatch, so it bounds well below the drain ratio.

    Returns floor violations."""
    from repro.netsim.scheduler import Scheduler

    failures = []
    for modules in SCALE_SWEEP:
        legacy_s, legacy_build, retired = _timed_drain(
            _LegacyScheduler, modules)
        wheel_s, wheel_build, _ = _timed_drain(Scheduler, modules)
        legacy_eps = retired / legacy_s
        wheel_eps = retired / wheel_s
        speedup = legacy_s / wheel_s
        rows.append(row("scheduler_scale", f"legacy_heap_eps_{modules}",
                        legacy_eps, "events/s", wall_ms=legacy_s * 1000))
        rows.append(row("scheduler_scale", f"timer_wheel_eps_{modules}",
                        wheel_eps, "events/s", wall_ms=wheel_s * 1000))
        rows.append(row("scheduler_scale", f"legacy_build_ms_{modules}",
                        legacy_build * 1000, "ms"))
        rows.append(row("scheduler_scale", f"wheel_build_ms_{modules}",
                        wheel_build * 1000, "ms"))
        rows.append(row("scheduler_scale", f"speedup_{modules}", speedup, "x"))

        def legacy_soak():
            _drive_scale_soak(_LegacyScheduler(), modules, SCALE_MESSAGES)

        def wheel_soak():
            _drive_scale_soak(Scheduler(), modules, SCALE_MESSAGES)

        soak_legacy_s = best_of(legacy_soak, repeats=3)
        soak_wheel_s = best_of(wheel_soak, repeats=3)
        rows.append(row("scheduler_scale", f"soak_legacy_eps_{modules}",
                        SCALE_MESSAGES / soak_legacy_s, "events/s",
                        wall_ms=soak_legacy_s * 1000))
        rows.append(row("scheduler_scale", f"soak_wheel_eps_{modules}",
                        SCALE_MESSAGES / soak_wheel_s, "events/s",
                        wall_ms=soak_wheel_s * 1000))
        rows.append(row("scheduler_scale", f"soak_speedup_{modules}",
                        soak_legacy_s / soak_wheel_s, "x"))
        floor = {10000: SCALE_10K_FLOOR, 1000: SCALE_1K_FLOOR}.get(modules)
        if floor is not None and speedup < floor:
            failures.append(
                f"scheduler drain speedup at {modules} modules "
                f"{speedup:.2f}x < {floor}x floor"
            )
    return failures


def check_scale_floors(path: str) -> List[str]:
    """Re-enforce the scale floors from an existing BENCH_scale.json
    (the ``--check`` side of the contract)."""
    try:
        with open(path) as f:
            rows = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    speedups = {entry["metric"]: entry["value"] for entry in rows
                if isinstance(entry, dict)
                and entry.get("bench") == "scheduler_scale"
                and str(entry.get("metric", "")).startswith("speedup_")}
    problems = []
    for modules, floor in ((10000, SCALE_10K_FLOOR), (1000, SCALE_1K_FLOOR)):
        metric = f"speedup_{modules}"
        if metric not in speedups:
            problems.append(f"{path}: missing {metric} row")
        elif speedups[metric] < floor:
            problems.append(
                f"{path}: {metric} = {speedups[metric]:.2f}x < {floor}x floor"
            )
    return problems


# ---------------------------------------------------------------------------
# Crash recovery bench (PROTOCOL.md §10) -> BENCH_recovery.json
# ---------------------------------------------------------------------------

def bench_recovery(rows: List[dict]) -> List[str]:
    """The chaos repair run: crash the middle gateway of the E5
    3-gateway internet mid-conversation under a seeded schedule, finish
    the conversation through circuit repair, and read the §10 counters
    (repairs, reopen attempts, NS failovers, backoff histogram) off the
    client.  The run executes twice; any counter or virtual-time drift
    between the two same-seed runs is a failure."""
    from deployments import chain_nets, echo_server
    from repro.netsim import ChaosSchedule
    from repro.ntcs.nucleus import NucleusConfig

    def run():
        bed = chain_nets(3, config=NucleusConfig(
            chaos_seed=5, repair_max_attempts=8))
        echo_server(bed, "far.echo", "mEnd")
        client = bed.module("client", "m0")
        uadd = client.ali.locate("far.echo")
        client.ali.call(uadd, "echo", {"n": 0, "text": "warm"})
        t0 = bed.now
        bed.chaos(ChaosSchedule(seed=5)
                  .crash(bed.now + 0.005, "gwm1")
                  .restart(bed.now + 0.35, "gwm1"))
        bed.run_for(0.01)
        for i in (1, 2, 3):
            client.ali.call(uadd, "echo", {"n": i, "text": "mid"},
                            timeout=120.0)
        bed.settle()
        control = sum(gw.inter_gateway_control_messages
                      for gw in bed.gateways.values())
        return client.nucleus.counters.snapshot(), bed.now - t0, control

    snap, elapsed, control = run()
    snap2, elapsed2, _ = run()

    failures = []
    if snap != snap2 or elapsed != elapsed2:
        failures.append(
            "recovery run is not deterministic under a fixed chaos seed")
    if snap.get("lcm_circuit_repairs", 0) < 1:
        failures.append("recovery run completed without a circuit repair")
    if control != 0:
        failures.append(
            f"recovery run produced {control} inter-gateway control messages")

    for name in RECOVERY_COUNTERS:
        rows.append(row("recovery", name, snap.get(name, 0), "events"))
    for bucket in range(RECOVERY_BACKOFF_BUCKETS):
        key = f"repair_backoff_bucket_{bucket}"
        rows.append(row("recovery", key, snap.get(key, 0), "rounds"))
    rows.append(row("recovery", "inter_gw_control", control, "messages"))
    rows.append(row("recovery", "repair_window", elapsed * 1000.0, "ms",
                    virtual_ms=elapsed * 1000.0))
    return failures


# ---------------------------------------------------------------------------
# Flow-control bench (PROTOCOL.md §12) -> BENCH_flow.json
# ---------------------------------------------------------------------------

def _drive_flow_overload(enabled: bool):
    """A producer on one network floods a batch-draining consumer on
    the other (through the gateway splice) with ``FLOW_BENCH_MESSAGES``
    messages.  The consumer only drains when the producer is refused —
    the worst polling-receiver shape — so with flow control off the
    whole backlog piles up in its receive queue."""
    from deployments import two_nets
    from repro.errors import SendWouldBlock
    from repro.ntcs.nucleus import NucleusConfig

    bed = two_nets(config=NucleusConfig(
        flow_control_enabled=enabled, flow_window=FLOW_BENCH_WINDOW))
    prod = bed.module("flow.producer", "vax1")
    cons = bed.module("flow.consumer", "apollo1")
    addr = cons.ali.uadd
    t0 = bed.now
    delivered = 0
    peak_queued = 0
    for i in range(FLOW_BENCH_MESSAGES):
        try:
            prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0},
                          block=False)
        except SendWouldBlock:
            bed.settle()
            peak_queued = max(peak_queued, cons.ali.queued())
            while cons.ali.queued():
                cons.ali.receive(timeout=5.0)
                delivered += 1
            prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    peak_queued = max(peak_queued, cons.ali.queued())
    while cons.ali.queued():
        cons.ali.receive(timeout=5.0)
        delivered += 1
    elapsed = bed.now - t0
    return {
        "delivered": delivered,
        "elapsed": elapsed,
        "peak_queued": peak_queued,
        "rx_high_water": cons.nucleus.counters["lvc_rx_queue_high_water"],
        "producer": prod.nucleus.counters.snapshot(),
        "gateway_drops": sum(gw.credit_overruns_dropped
                             for gw in bed.gateways.values()),
    }


def bench_flow(rows: List[dict]) -> List[str]:
    """The §12 backpressure contract, measured: queue ceiling and
    goodput with flow control on vs the same overload with it off.
    Returns floor violations."""
    on = _drive_flow_overload(True)
    off = _drive_flow_overload(False)

    ceiling = on["rx_high_water"]
    peak_off = off["peak_queued"]
    depth_ratio = peak_off / max(1, ceiling)
    goodput_on = on["delivered"] / on["elapsed"]
    goodput_off = off["delivered"] / off["elapsed"]
    goodput_ratio = goodput_on / goodput_off

    rows.append(row("flow", "window", FLOW_BENCH_WINDOW, "messages"))
    rows.append(row("flow", "messages", FLOW_BENCH_MESSAGES, "messages"))
    rows.append(row("flow", "queue_ceiling_on", ceiling, "messages"))
    rows.append(row("flow", "queue_peak_off", peak_off, "messages"))
    rows.append(row("flow", "depth_ratio", depth_ratio, "x"))
    rows.append(row("flow", "delivered_on", on["delivered"], "messages",
                    virtual_ms=on["elapsed"] * 1000.0))
    rows.append(row("flow", "delivered_off", off["delivered"], "messages",
                    virtual_ms=off["elapsed"] * 1000.0))
    rows.append(row("flow", "goodput_on", goodput_on, "messages/s",
                    virtual_ms=on["elapsed"] * 1000.0))
    rows.append(row("flow", "goodput_off", goodput_off, "messages/s",
                    virtual_ms=off["elapsed"] * 1000.0))
    rows.append(row("flow", "goodput_ratio", goodput_ratio, "x"))
    rows.append(row("flow", "gateway_overruns_dropped",
                    on["gateway_drops"], "messages"))
    for name in FLOW_COUNTERS:
        rows.append(row("flow", name, on["producer"].get(name, 0), "events"))
    for name in FLOW_COUNTERS:
        rows.append(row("flow", f"{name}_off",
                        off["producer"].get(name, 0), "events"))

    failures = []
    if ceiling > FLOW_BENCH_WINDOW:
        failures.append(
            f"flow-on queue ceiling {ceiling} exceeds the "
            f"{FLOW_BENCH_WINDOW}-message window"
        )
    if on["delivered"] != FLOW_BENCH_MESSAGES:
        failures.append(
            f"flow-on run delivered {on['delivered']} of "
            f"{FLOW_BENCH_MESSAGES} messages"
        )
    if depth_ratio < FLOW_DEPTH_FLOOR:
        failures.append(
            f"uncontrolled/controlled queue-depth ratio "
            f"{depth_ratio:.2f}x < {FLOW_DEPTH_FLOOR}x floor"
        )
    if goodput_ratio < FLOW_GOODPUT_FLOOR:
        failures.append(
            f"flow-on goodput {goodput_ratio:.2f}x of uncontrolled "
            f"< {FLOW_GOODPUT_FLOOR}x floor"
        )
    if sum(off["producer"].get(name, 0) for name in FLOW_COUNTERS):
        failures.append("flow-off run produced credit traffic")
    return failures


def check_flow_floors(path: str) -> List[str]:
    """Re-enforce the flow floors from an existing BENCH_flow.json
    (the ``--check`` side of the contract)."""
    try:
        with open(path) as f:
            rows = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    values = {entry["metric"]: entry["value"] for entry in rows
              if isinstance(entry, dict) and entry.get("bench") == "flow"}
    problems = []
    for metric in ("window", "messages", "queue_ceiling_on",
                   "delivered_on", "depth_ratio", "goodput_ratio"):
        if metric not in values:
            problems.append(f"{path}: missing {metric} row")
    if problems:
        return problems
    if values["queue_ceiling_on"] > values["window"]:
        problems.append(
            f"{path}: queue_ceiling_on = {values['queue_ceiling_on']} "
            f"exceeds the {values['window']}-message window"
        )
    if values["delivered_on"] != values["messages"]:
        problems.append(
            f"{path}: delivered_on = {values['delivered_on']} != "
            f"{values['messages']} messages sent"
        )
    if values["depth_ratio"] < FLOW_DEPTH_FLOOR:
        problems.append(
            f"{path}: depth_ratio = {values['depth_ratio']:.2f}x "
            f"< {FLOW_DEPTH_FLOOR}x floor"
        )
    if values["goodput_ratio"] < FLOW_GOODPUT_FLOOR:
        problems.append(
            f"{path}: goodput_ratio = {values['goodput_ratio']:.2f}x "
            f"< {FLOW_GOODPUT_FLOOR}x floor"
        )
    return problems


# ---------------------------------------------------------------------------
# Frame-train dispatch bench (PROTOCOL.md §13) -> BENCH_dispatch.json
# ---------------------------------------------------------------------------

def _drive_dispatch_fanin(modules: int, enabled: bool, repeats: int = 3):
    """The steady-state fan-in workload on the netsim substrate:
    ``modules`` senders, spread over ``DISPATCH_BURST_TICKS`` instants,
    each burst-transmit their share of ``DISPATCH_MESSAGES`` frames at
    one sink.  Same-instant same-destination frames are exactly what
    the train coalescer batches; with ``enabled=False`` (``train_max =
    1``) every frame pays its own delivery event.  Returns total
    scheduler events, messages delivered, best-of drain wall seconds,
    and the coalesced train count."""
    from repro.netsim.network import Network
    from repro.netsim.scheduler import Scheduler

    per = max(1, DISPATCH_MESSAGES // modules)

    def build():
        sched = Scheduler()
        net = Network(sched, "bench0", latency=0.0005)
        if not enabled:
            net.train_max = 1
        sink = net.attach("sink")
        delivered = [0]

        def on_frame(_datagram):
            delivered[0] += 1

        sink.bind_protocol("bench", on_frame)

        def sender(iface):
            def fire():
                send = iface.send
                for _ in range(per):
                    send("sink", "bench", b"x" * 48, size=64)
            return fire

        for i in range(modules):
            iface = net.attach(f"m{i}")
            sched.schedule(0.001 * (i % DISPATCH_BURST_TICKS),
                           sender(iface), note="burst")
        return sched, net, delivered

    best = None
    events = coalesced = 0
    for _ in range(repeats):
        sched, net, delivered = build()
        gc_was = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()  # ntcslint: allow=DET001 — benchmarks measure wall time by design
            steps = 0
            while sched.step():
                steps += 1
            elapsed = time.perf_counter() - t0  # ntcslint: allow=DET001 — benchmarks measure wall time by design
        finally:
            if gc_was:
                gc.enable()
        if delivered[0] != modules * per:
            raise AssertionError(
                f"fan-in delivered {delivered[0]} of {modules * per} frames"
            )
        best = elapsed if best is None else min(best, elapsed)
        events = steps
        coalesced = net.trains_coalesced
    return {"events": events, "delivered": modules * per,
            "wall": best, "coalesced": coalesced}


def _drive_dispatch_e2e(enabled: bool):
    """The same claim on the real stack: a producer bursts
    ``DISPATCH_E2E_MESSAGES`` messages across the two_nets gateway to a
    polling consumer.  Returns scheduler events, messages received,
    total wire frames (which must not move between modes), and the
    coalesced delivery events."""
    from deployments import two_nets
    from repro.ntcs.nucleus import NucleusConfig

    bed = two_nets(config=NucleusConfig() if enabled
                   else NucleusConfig(train_max=1))
    prod = bed.module("train.producer", "vax1")
    cons = bed.module("train.consumer", "apollo1")
    addr = cons.ali.uadd
    events_before = bed.scheduler.events_processed
    t0 = bed.now
    for i in range(DISPATCH_E2E_MESSAGES):
        prod.ali.send(addr, "numbers", {"a": i, "b": 0, "big": 0})
    bed.settle()
    received = 0
    while cons.ali.queued():
        cons.ali.receive(timeout=5.0)
        received += 1
    events = bed.scheduler.events_processed - events_before
    counters = cons.nucleus.counters
    # The §13 gauge: integer counters only, so the ratio is stored
    # x1000 (milli-events per delivered message).
    counters.record_max("scheduler_events_per_message",
                        events * 1000 // max(1, received))
    return {
        "events": events,
        "received": received,
        "elapsed": bed.now - t0,
        "frames": sum(net.frames_sent for net in bed.networks.values()),
        "coalesced": sum(net.trains_coalesced
                         for net in bed.networks.values()),
        "events_per_msg_milli": counters["scheduler_events_per_message"],
    }


def bench_dispatch(rows: List[dict]) -> List[str]:
    """The §13 dispatch-efficiency contract, measured: scheduler events
    per delivered message and end-to-end drain wall time with frame
    trains off vs on, swept over the fan-in topology sizes; the real
    two_nets gateway burst; and the pinned E5 establishment counts
    re-checked with trains on.  Returns floor violations."""
    from deployments import chain_nets, echo_server

    failures = []
    for modules in DISPATCH_SWEEP:
        off = _drive_dispatch_fanin(modules, False)
        on = _drive_dispatch_fanin(modules, True)
        epm_off = off["events"] / off["delivered"]
        epm_on = on["events"] / on["delivered"]
        reduction = epm_off / epm_on
        drain_speedup = off["wall"] / on["wall"]
        rows.append(row("dispatch_fanin", f"events_per_msg_off_{modules}",
                        epm_off, "events/message",
                        wall_ms=off["wall"] * 1000))
        rows.append(row("dispatch_fanin", f"events_per_msg_on_{modules}",
                        epm_on, "events/message",
                        wall_ms=on["wall"] * 1000))
        rows.append(row("dispatch_fanin", f"events_reduction_{modules}",
                        reduction, "x"))
        rows.append(row("dispatch_fanin", f"drain_speedup_{modules}",
                        drain_speedup, "x"))
        rows.append(row("dispatch_fanin", f"trains_coalesced_{modules}",
                        on["coalesced"], "trains"))
        if modules == 10000:
            if reduction < DISPATCH_EVENTS_FLOOR:
                failures.append(
                    f"events-per-message reduction at {modules} modules "
                    f"{reduction:.2f}x < {DISPATCH_EVENTS_FLOOR}x floor"
                )
            if drain_speedup < DISPATCH_DRAIN_FLOOR:
                failures.append(
                    f"drain speedup at {modules} modules "
                    f"{drain_speedup:.2f}x < {DISPATCH_DRAIN_FLOOR}x floor"
                )

    e2e_off = _drive_dispatch_e2e(False)
    e2e_on = _drive_dispatch_e2e(True)
    rows.append(row("dispatch_e2e", "events_off", e2e_off["events"],
                    "events", virtual_ms=e2e_off["elapsed"] * 1000))
    rows.append(row("dispatch_e2e", "events_on", e2e_on["events"],
                    "events", virtual_ms=e2e_on["elapsed"] * 1000))
    rows.append(row("dispatch_e2e", "events_reduction",
                    e2e_off["events"] / max(1, e2e_on["events"]), "x"))
    rows.append(row("dispatch_e2e", "events_per_msg_milli",
                    e2e_on["events_per_msg_milli"], "milli-events/message"))
    rows.append(row("dispatch_e2e", "wire_frames_off", e2e_off["frames"],
                    "frames"))
    rows.append(row("dispatch_e2e", "wire_frames_on", e2e_on["frames"],
                    "frames"))
    rows.append(row("dispatch_e2e", "trains_coalesced", e2e_on["coalesced"],
                    "trains"))
    for mode, result in (("off", e2e_off), ("on", e2e_on)):
        if result["received"] != DISPATCH_E2E_MESSAGES:
            failures.append(
                f"e2e burst (trains {mode}) delivered {result['received']} "
                f"of {DISPATCH_E2E_MESSAGES} messages"
            )
    if e2e_off["frames"] != e2e_on["frames"]:
        failures.append(
            f"e2e wire frames moved with trains on: {e2e_on['frames']} "
            f"!= {e2e_off['frames']} (wire invariance broken)"
        )

    # Wire invariance at establishment: the pinned E5 frame counts,
    # re-checked with trains on (the default config).
    for hops, expected in sorted(E5_ESTABLISH_FRAMES.items()):
        bed = chain_nets(hops)
        echo_server(bed, "far.echo", "mEnd")
        client = bed.module("client", "m0")
        uadd = client.ali.locate("far.echo")
        frames_before = sum(net.frames_sent for net in bed.networks.values())
        client.ali.call(uadd, "echo", {"n": 0, "text": "establish"})
        frames = sum(net.frames_sent
                     for net in bed.networks.values()) - frames_before
        rows.append(row("dispatch_e5", f"establish_frames_{hops}gw",
                        frames, "frames"))
        if frames != expected:
            failures.append(
                f"E5 establish frames for {hops} gateways with trains on: "
                f"{frames} != pinned {expected}"
            )
    return failures


def check_dispatch_floors(path: str) -> List[str]:
    """Re-enforce the dispatch floors and the E5 pins from an existing
    BENCH_dispatch.json (the ``--check`` side of the contract)."""
    try:
        with open(path) as f:
            rows = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    fanin = {entry["metric"]: entry["value"] for entry in rows
             if isinstance(entry, dict)
             and entry.get("bench") == "dispatch_fanin"}
    e5 = {entry["metric"]: entry["value"] for entry in rows
          if isinstance(entry, dict)
          and entry.get("bench") == "dispatch_e5"}
    problems = []
    for metric, floor in (("events_reduction_10000", DISPATCH_EVENTS_FLOOR),
                          ("drain_speedup_10000", DISPATCH_DRAIN_FLOOR)):
        if metric not in fanin:
            problems.append(f"{path}: missing {metric} row")
        elif fanin[metric] < floor:
            problems.append(
                f"{path}: {metric} = {fanin[metric]:.2f}x < {floor}x floor"
            )
    for hops, expected in sorted(E5_ESTABLISH_FRAMES.items()):
        metric = f"establish_frames_{hops}gw"
        if metric not in e5:
            problems.append(f"{path}: missing {metric} row")
        elif e5[metric] != expected:
            problems.append(
                f"{path}: {metric} = {e5[metric]} != pinned {expected}"
            )
    return problems


# ---------------------------------------------------------------------------
# Schema validation (--check)
# ---------------------------------------------------------------------------

def validate(path: str) -> List[str]:
    """Schema violations in ``path`` (empty list == valid)."""
    problems = []
    try:
        with open(path) as f:
            rows = json.load(f)
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    except ValueError as exc:
        return [f"{path} is not valid JSON: {exc}"]
    if not isinstance(rows, list) or not rows:
        return [f"{path}: expected a non-empty JSON array of rows"]
    for i, entry in enumerate(rows):
        where = f"row {i}"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        if tuple(sorted(entry)) != tuple(sorted(SCHEMA_KEYS)):
            problems.append(
                f"{where}: keys {sorted(entry)} != {sorted(SCHEMA_KEYS)}"
            )
            continue
        for key in ("bench", "metric", "unit"):
            if not isinstance(entry[key], str) or not entry[key]:
                problems.append(f"{where}: {key!r} must be a non-empty string")
        if not isinstance(entry["value"], (int, float)) \
                or isinstance(entry["value"], bool):
            problems.append(f"{where}: 'value' must be a number")
        for key in ("virtual_ms", "wall_ms"):
            if entry[key] is not None and (
                    not isinstance(entry[key], (int, float))
                    or isinstance(entry[key], bool)):
                problems.append(f"{where}: {key!r} must be a number or null")
    return problems


def _write_rows(path: str, rows: List[dict]) -> None:
    with open(path, "w") as f:
        json.dump(rows, f, indent=2)
        f.write("\n")
    for entry in rows:
        print("{bench:>20}  {metric:<28} {value:>12} {unit}".format(**entry))
    print(f"wrote {path} ({len(rows)} rows)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="validate BENCH_pipeline.json, "
                             "BENCH_naming.json, BENCH_recovery.json, "
                             "BENCH_scale.json, BENCH_flow.json and "
                             "BENCH_dispatch.json (schema + "
                             "scale/flow/dispatch floors), then exit")
    parser.add_argument("--scale", action="store_true",
                        help="run only the event-core scale sweep "
                             "(BENCH_scale.json); with --check, validate "
                             "only that file")
    parser.add_argument("--flow", action="store_true",
                        help="run only the flow-control overload bench "
                             "(BENCH_flow.json); with --check, validate "
                             "only that file")
    parser.add_argument("--dispatch", action="store_true",
                        help="run only the frame-train dispatch sweep "
                             "(BENCH_dispatch.json); with --check, "
                             "validate only that file")
    parser.add_argument("--naming", action="store_true",
                        help="run only the control-plane benches plus "
                             "the §14 sharded-naming sweep "
                             "(BENCH_naming.json); with --check, "
                             "validate only that file")
    parser.add_argument("--out", default=OUT_PATH,
                        help="pipeline output path (default: repo root)")
    parser.add_argument("--naming-out", default=NAMING_OUT_PATH,
                        help="naming output path (default: repo root)")
    parser.add_argument("--recovery-out", default=RECOVERY_OUT_PATH,
                        help="recovery output path (default: repo root)")
    parser.add_argument("--scale-out", default=SCALE_OUT_PATH,
                        help="scale output path (default: repo root)")
    parser.add_argument("--flow-out", default=FLOW_OUT_PATH,
                        help="flow output path (default: repo root)")
    parser.add_argument("--dispatch-out", default=DISPATCH_OUT_PATH,
                        help="dispatch output path (default: repo root)")
    args = parser.parse_args(argv)

    if args.check:
        if args.scale:
            paths = (args.scale_out,)
        elif args.flow:
            paths = (args.flow_out,)
        elif args.dispatch:
            paths = (args.dispatch_out,)
        elif args.naming:
            paths = (args.naming_out,)
        else:
            paths = (args.out, args.naming_out, args.recovery_out,
                     args.scale_out, args.flow_out, args.dispatch_out)
        problems = []
        for path in paths:
            found = validate(path)
            if path == args.scale_out and not found:
                found = check_scale_floors(path)
            if path == args.flow_out and not found:
                found = check_flow_floors(path)
            if path == args.dispatch_out and not found:
                found = check_dispatch_floors(path)
            if path == args.naming_out and not found:
                found = check_naming_floors(path)
            for problem in found:
                print(f"schema violation: {problem}", file=sys.stderr)
            print(f"{path}: " + ("INVALID" if found else "ok"))
            problems.extend(found)
        return 1 if problems else 0

    if args.scale:
        scale_rows: List[dict] = []
        scale_failures = bench_scale(scale_rows)
        _write_rows(args.scale_out, scale_rows)
        scale_failures.extend(
            f"schema violation: {p}" for p in validate(args.scale_out))
        for failure in scale_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if scale_failures else 0

    if args.flow:
        flow_rows: List[dict] = []
        flow_failures = bench_flow(flow_rows)
        _write_rows(args.flow_out, flow_rows)
        flow_failures.extend(
            f"schema violation: {p}" for p in validate(args.flow_out))
        for failure in flow_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if flow_failures else 0

    if args.dispatch:
        dispatch_rows: List[dict] = []
        dispatch_failures = bench_dispatch(dispatch_rows)
        _write_rows(args.dispatch_out, dispatch_rows)
        dispatch_failures.extend(
            f"schema violation: {p}" for p in validate(args.dispatch_out))
        for failure in dispatch_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if dispatch_failures else 0

    if args.naming:
        naming_rows: List[dict] = []
        hot_speedup = bench_hot_resolution(naming_rows)
        ursa_reduction = bench_ursa_cold_start(naming_rows)
        naming_failures = bench_e5_invariants(naming_rows)
        naming_failures.extend(bench_naming_shards(naming_rows))
        _write_rows(args.naming_out, naming_rows)
        if hot_speedup < HOT_RESOLUTION_FLOOR:
            naming_failures.append(
                f"hot resolution speedup {hot_speedup:.2f}x "
                f"< {HOT_RESOLUTION_FLOOR}x floor"
            )
        if ursa_reduction < URSA_NS_FLOOR:
            naming_failures.append(
                f"URSA cold-start NS-request reduction "
                f"{ursa_reduction:.2f}x < {URSA_NS_FLOOR}x floor"
            )
        naming_failures.extend(
            f"schema violation: {p}" for p in validate(args.naming_out))
        for failure in naming_failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if naming_failures else 0

    rows: List[dict] = []
    header_speedup = bench_header_codec(rows)
    forwarding_speedup = bench_forwarding(rows)
    bench_pack_unpack(rows)
    bench_e2e_chain(rows)
    _write_rows(args.out, rows)

    naming_rows = []
    hot_speedup = bench_hot_resolution(naming_rows)
    ursa_reduction = bench_ursa_cold_start(naming_rows)
    e5_failures = bench_e5_invariants(naming_rows)
    shard_failures = bench_naming_shards(naming_rows)
    _write_rows(args.naming_out, naming_rows)

    recovery_rows: List[dict] = []
    recovery_failures = bench_recovery(recovery_rows)
    _write_rows(args.recovery_out, recovery_rows)

    scale_rows: List[dict] = []
    scale_failures = bench_scale(scale_rows)
    _write_rows(args.scale_out, scale_rows)

    flow_rows: List[dict] = []
    flow_failures = bench_flow(flow_rows)
    _write_rows(args.flow_out, flow_rows)

    dispatch_rows: List[dict] = []
    dispatch_failures = bench_dispatch(dispatch_rows)
    _write_rows(args.dispatch_out, dispatch_rows)

    failures = []
    if header_speedup < HEADER_ENCODE_FLOOR:
        failures.append(
            f"header encode+decode speedup {header_speedup:.2f}x "
            f"< {HEADER_ENCODE_FLOOR}x floor"
        )
    if forwarding_speedup < FORWARDING_FLOOR:
        failures.append(
            f"3-gateway forwarding speedup {forwarding_speedup:.2f}x "
            f"< {FORWARDING_FLOOR}x floor"
        )
    if hot_speedup < HOT_RESOLUTION_FLOOR:
        failures.append(
            f"hot resolution speedup {hot_speedup:.2f}x "
            f"< {HOT_RESOLUTION_FLOOR}x floor"
        )
    if ursa_reduction < URSA_NS_FLOOR:
        failures.append(
            f"URSA cold-start NS-request reduction {ursa_reduction:.2f}x "
            f"< {URSA_NS_FLOOR}x floor"
        )
    failures.extend(e5_failures)
    failures.extend(shard_failures)
    failures.extend(recovery_failures)
    failures.extend(scale_failures)
    failures.extend(flow_failures)
    failures.extend(dispatch_failures)
    for path in (args.out, args.naming_out, args.recovery_out,
                 args.scale_out, args.flow_out, args.dispatch_out):
        failures.extend(f"schema violation: {p}" for p in validate(path))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
