"""Per-layer attribution from outside the program.

Two tracers, both used only in the traced run (the end-to-end numbers
are measured with tracing off):

* :func:`profile_layers` buckets a ``cProfile`` run by Fig. 2-1 layer
  (``repro.analysis.layermap``) into a table whose rows sum to the
  traced wall time, and reads the inclusive cost of the public entry
  points into each layer off the same profile.
* :class:`SpanTracer` is a ``sys.setprofile`` boundary tracer: it opens
  a span whenever a call crosses from one layer into another, so the
  Sec. 6.1 recursion (a server handler running inside the client's
  ``pump_until``) shows up as nesting in the Chrome-trace output.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro.analysis.layermap import layer_name

from bench_e2e import HERE, ROOT

#: Row order of the layer table: the Fig. 2-1 stack top to bottom, then
#: ``realnet`` (split out of ``harness``) and ``driver`` (benchmark,
#: deployment-script and stdlib frames).
LAYERS = (
    "ali", "nsp", "lcm", "ip", "nd", "gateway", "nucleus", "ntcs_vocab",
    "protocols", "conversion", "ipcs", "netsim", "machine", "foundation",
    "apps", "realnet", "harness", "driver",
)

#: Public calls into each layer whose call count and inclusive time the
#: traced run reports.  A name may cover several functions that never
#: nest in one another (the ND-Layer's three send variants); a function
#: a later change removes simply reads 0.
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "ali.call": ("repro.commod.ali:AliLayer.call",),
    "ali.send": ("repro.commod.ali:AliLayer.send",),
    "ali.register": ("repro.commod.ali:AliLayer.register",),
    "ali.locate": ("repro.commod.ali:AliLayer.locate",),
    "nsp.resolve_name": ("repro.naming.nsp:NspLayer.resolve_name",),
    "nsp.resolve_uadd": ("repro.naming.nsp:NspLayer.resolve_uadd",),
    "nsp.list_gateways": ("repro.naming.nsp:NspLayer.list_gateways",
                          "repro.naming.shards:ShardedNspLayer.list_gateways"),
    "lcm.call": ("repro.ntcs.lcm:LcmLayer.call",),
    "lcm.send": ("repro.ntcs.lcm:LcmLayer.send",),
    "ip.open_ivc": ("repro.ntcs.iplayer:IpLayer.open_ivc",),
    "ip.send_raw": ("repro.ntcs.iplayer:IpLayer.send_raw",),
    "nd.send_frames": ("repro.ntcs.ndlayer:NdLayer.send",
                       "repro.ntcs.ndlayer:NdLayer.send_frame",
                       "repro.ntcs.ndlayer:NdLayer.send_frames"),
    "gateway.handle": ("repro.ntcs.gateway:Gateway.handle",),
    "ipcs.channel_send": ("repro.ipcs.base:Channel.send",),
    "netsim.transmit": ("repro.netsim.network:Network.transmit",),
    "netsim.pump_until": ("repro.netsim.scheduler:Scheduler.pump_until",),
}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_DRIVER_DIRS = (HERE + os.sep, os.path.join(ROOT, "tests") + os.sep)


@functools.lru_cache(maxsize=None)
def layer_of_file(filename: str) -> Optional[str]:
    """The layer a source file belongs to: its layermap layer for
    ``repro`` modules (``realnet`` split out of ``harness``),
    ``driver`` for the benchmark and the deployment scripts, None for
    everything else (stdlib)."""
    if filename.startswith(_REPRO_DIR):
        rel = filename[len(_REPRO_DIR):-len(".py")].replace(os.sep, ".")
        module = "repro." + rel if rel != "__init__" else "repro"
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        if module.startswith("repro.realnet"):
            return "realnet"
        return layer_name(module) or "harness"
    return "driver" if filename.startswith(_DRIVER_DIRS) else None


def _resolve(spec: str):
    """The code object behind ``module:Class.method``, or None when the
    program no longer has it."""
    module_name, _, path = spec.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return getattr(obj, "__code__", None)


def profile_layers(run: Callable[[], None], ops_of: Callable[[], int]) -> Dict[str, float]:
    """Run ``run()`` under cProfile and return the per-layer metrics,
    every figure divided by the ops ``ops_of()`` reports it performed.

    A Python function's self time goes to the layer of its file;
    built-in/C time goes to the layer of the *calling* function, read
    off the profiler's caller→callee edges.
    """
    profiler = cProfile.Profile()
    ops_before = ops_of()
    started = time.perf_counter()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    wall = time.perf_counter() - started
    ops = ops_of() - ops_before

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_code = {}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            # A built-in: its own time is booked on its callers' edges
            # below; only built-ins it calls in turn are left over.
            layer = "driver"
        else:
            by_code[code] = entry
            layer = layer_of_file(code.co_filename) or "driver"
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                self_s[layer] += sub.inlinetime

    per_op_us = 1e6 / ops
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] = self_s[layer] * per_op_us
        metrics[f"{layer}.py_calls_per_op"] = calls[layer] / ops
    metrics["trace.wall_us_per_op"] = wall * per_op_us
    metrics["trace.table_coverage"] = sum(self_s.values()) / wall
    for name, specs in ENTRY_POINTS.items():
        entries = [by_code[code] for code in map(_resolve, specs)
                   if code in by_code]
        metrics[f"{name}.calls_per_op"] = \
            sum(e.callcount for e in entries) / ops
        metrics[f"{name}.incl_us_per_op"] = \
            sum(e.totaltime for e in entries) * per_op_us
    return metrics


class SpanTracer:
    """Boundary spans for a handful of ops, kept in memory.

    ``root_code`` is the code object of the workload's per-op function:
    each call of it starts a new op id.  A span opens when a call
    enters a frame whose layer differs from the innermost known layer;
    frames of unknown layer (stdlib) are transparent.  No span opens
    past ``MAX_SPANS`` and tracing stops at the next op boundary (one
    cold contact crosses layers 10^5 times while the name servers scan
    their records), so the sample stays a few megabytes.
    """

    MAX_SPANS = 20_000

    def __init__(self, root_code):
        self._root_code = root_code
        self.op = -1
        # [name, layer, start, end, parent index, op id]
        self.spans: List[list] = []
        # One slot per live Python frame entered while tracing: None, or
        # the (layer, span) context to restore when a span frame returns.
        self._frames: List[Optional[Tuple[str, int]]] = []
        self._layer = "driver"
        self._span = -1

    def _hook(self, frame, event, _arg) -> None:
        if event == "call":
            code = frame.f_code
            if code is self._root_code:
                if len(self.spans) >= self.MAX_SPANS:
                    sys.setprofile(None)
                    return
                self.op += 1
            layer = layer_of_file(code.co_filename)
            if layer is None or layer == self._layer \
                    or len(self.spans) >= self.MAX_SPANS:
                self._frames.append(None)
                return
            self._frames.append((self._layer, self._span))
            self.spans.append([f"{layer}:{code.co_qualname}", layer,
                               time.perf_counter(), None, self._span, self.op])
            self._layer = layer
            self._span = len(self.spans) - 1
        elif event == "return" and self._frames:
            restore = self._frames.pop()
            if restore is not None:
                self.spans[self._span][3] = time.perf_counter()
                self._layer, self._span = restore

    def run(self, body: Callable[[], None]) -> None:
        """Trace ``body()``."""
        sys.setprofile(self._hook)
        try:
            body()
        finally:
            sys.setprofile(None)

    def write_chrome_trace(self, path: str) -> None:
        """Dump the spans as Chrome-trace JSON (``chrome://tracing``,
        Perfetto): complete events, one track, nesting by time."""
        origin = self.spans[0][2] if self.spans else 0.0
        events = [{
            "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
            "args": {"id": index, "parent": parent, "op": op},
        } for index, (name, layer, start, end, parent, op)
            in enumerate(self.spans) if end is not None]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "us"}, fh)
