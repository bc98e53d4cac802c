"""Wire trace logging: JSONL event traces for conformance checking.

A :class:`NetTraceLog` taps one or more networks' ``trace_hooks`` and
records every transmitted frame — including dropped ones — as one JSON
object per line, in the chaos schedule's event shape
(``{"at", "op", "target", "args"}``, see :mod:`repro.netsim.chaos`).
Every ``bytes`` blob found inside the payload is recorded as hex; the
netsim neither knows nor cares that some of those blobs are NTCS
frames.  The analysis layer's trace-conformance checker
(``python -m repro.analysis verify --trace``) does that join.

Observation only: the log rides the hook *after* the network's drop
decision and cannot change delivery, so tracing a simulation never
changes what the simulation does.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, List, Union

from repro.netsim.network import Datagram, Network


def _payload_blobs(payload: Any) -> List[bytes]:
    """Every bytes blob inside a payload, in order.  Payloads are
    tuples/lists with bytes elements (TCP segments, mailbox records);
    nesting is walked recursively."""
    out: List[bytes] = []
    if isinstance(payload, (bytes, bytearray)):
        out.append(bytes(payload))
    elif isinstance(payload, (tuple, list)):
        for element in payload:
            out.extend(_payload_blobs(element))
    return out


class NetTraceLog:
    """Records every frame transmitted on the attached networks."""

    def __init__(self) -> None:
        self.events: List[dict] = []
        self._taps: List[tuple] = []

    def attach(self, network: Network) -> "NetTraceLog":
        """Start recording a network's frames (chainable; other taps
        on the network keep running)."""
        def hook(datagram: Datagram, size: int, dropped: bool,
                 network: Network = network) -> None:
            self._record(network, datagram, size, dropped)

        network.trace_hooks.append(hook)
        self._taps.append((network, hook))
        return self

    def detach(self) -> None:
        """Stop recording on every attached network."""
        for network, hook in self._taps:
            network.trace_hooks.remove(hook)
        self._taps.clear()

    def _record(self, network: Network, datagram: Datagram,
                size: int, dropped: bool) -> None:
        self.events.append({
            "at": network.scheduler.now,
            "op": "frame",
            "target": network.name,
            "args": {
                "src": datagram.src_host,
                "dst": datagram.dst_host,
                "protocol": datagram.protocol,
                "size": size,
                "dropped": dropped,
                "frames": [blob.hex()
                           for blob in _payload_blobs(datagram.payload)],
            },
        })

    # -- persistence --------------------------------------------------------

    def dump_jsonl(self, path: Union[str, Path]) -> Path:
        """Write the trace, one JSON event per line."""
        path = Path(path)
        with path.open("w") as handle:
            for event in self.events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return path

    def clear(self) -> None:
        """Discard recorded events."""
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)
