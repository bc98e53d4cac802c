"""A wire sniffer: records every frame delivered on a network.

The Sec. 6.2 debugging discussion asks for visibility into what the
system is actually doing; a :class:`Sniffer` gives the wire-level view
the layer tracer cannot.  Tests also use it to check *wire-level*
claims — e.g. that bodies between unlike machines really travel in the
character transport format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.netsim.network import Datagram, Network


@dataclass(frozen=True)
class SniffedFrame:
    time: float
    network: str
    src_host: str
    dst_host: str
    protocol: str
    payload: object


class Sniffer:
    """Wiretap on one network.  Attach with :meth:`attach`; every frame
    *delivered* (not dropped) is recorded."""

    def __init__(self, keep: Optional[Callable[[Datagram], bool]] = None):
        self.frames: List[SniffedFrame] = []
        self._keep = keep
        self._network: Optional[Network] = None

    def attach(self, network: Network) -> "Sniffer":
        """Start recording frames delivered on a network."""
        if self._network is not None:
            raise RuntimeError("sniffer already attached")
        self._network = network
        network.trace_hooks.append(self._tap)
        return self

    def _tap(self, datagram: Datagram, size: int, dropped: bool) -> None:
        if dropped or (self._keep is not None and not self._keep(datagram)):
            return
        self.frames.append(SniffedFrame(
            time=self._network.scheduler.now,
            network=datagram.network,
            src_host=datagram.src_host,
            dst_host=datagram.dst_host,
            protocol=datagram.protocol,
            payload=datagram.payload,
        ))

    def detach(self) -> None:
        """Stop recording."""
        if self._network is not None:
            self._network.trace_hooks.remove(self._tap)
            self._network = None

    # -- queries ----------------------------------------------------------

    def between(self, host_a: str, host_b: str) -> List[SniffedFrame]:
        """All recorded frames between two hosts (either direction)."""
        return [f for f in self.frames
                if {f.src_host, f.dst_host} == {host_a, host_b}]

    def payload_bytes(self) -> List[bytes]:
        """Every bytes-typed element found inside recorded payloads
        (segments' data, mailbox records)."""
        out = []
        for frame in self.frames:
            payload = frame.payload
            if isinstance(payload, tuple):
                out.extend(p for p in payload
                           if isinstance(p, (bytes, bytearray)))
        return out

    def clear(self) -> None:
        """Discard recorded frames."""
        self.frames.clear()

    def __len__(self) -> int:
        return len(self.frames)
