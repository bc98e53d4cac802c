"""Simulated networks and host interfaces.

A :class:`Network` is one physical communication medium — the stand-in
for an Ethernet segment or the Apollo ring.  Machines attach through
:class:`Interface` objects with network-unique host addresses.  The
network delivers :class:`Datagram` frames between interfaces with a
fixed per-network latency, subject to the attached
:class:`~repro.netsim.faults.FaultPlan`.

Networks are deliberately *disjoint*: an interface can only reach other
interfaces on the same network.  Crossing networks is exactly what the
paper's IP-Layer + Gateways exist for (Sec. 4), so the substrate must
not accidentally provide it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import NetworkUnreachable, SimulationError
from repro.netsim.faults import FaultPlan
from repro.netsim.scheduler import Scheduler


class Datagram:
    """One frame on the wire.

    ``protocol`` names the IPCS that should receive it ("tcp", "mbx");
    ``payload`` is whatever that IPCS puts on the wire (its own framing;
    NTCS bytes ride inside).

    A plain ``__slots__`` class rather than a frozen dataclass: one is
    constructed for every frame the simulation moves, and the frozen
    dataclass's per-field ``object.__setattr__`` made construction the
    single largest fixed cost on the transmit path.  Treat instances as
    immutable all the same — a frame on the wire does not change.
    """

    __slots__ = ("network", "src_host", "dst_host", "protocol", "payload")

    def __init__(self, network: str, src_host: str, dst_host: str,
                 protocol: str, payload: Any):
        self.network = network
        self.src_host = src_host
        self.dst_host = dst_host
        self.protocol = protocol
        self.payload = payload

    def __repr__(self) -> str:
        return (f"Datagram({self.network!r}, {self.src_host!r}->"
                f"{self.dst_host!r}, {self.protocol!r})")


class Interface:
    """One machine's attachment point to one network."""

    def __init__(self, network: "Network", host: str):
        self.network = network
        self.host = host
        # Per protocol: (receive handler, train-end handler or None,
        # frames arrived but not yet handed up — PROTOCOL.md §13).
        self._bound: Dict[str, Tuple[Callable[[Datagram], None],
                                     Optional[Callable[[], None]],
                                     Deque[Datagram]]] = {}
        self.up = True

    def bind_protocol(self, protocol: str,
                      handler: Callable[[Datagram], None],
                      train_end: Optional[Callable[[], None]] = None) -> None:
        """Register the per-protocol receive handler (one per IPCS).
        ``train_end``, if given, is how the interface says "no more
        frames in this train": it is called each time the protocol's
        arrival queue drains, whether or not every frame was handed up
        (frames popped while the interface is down are lost)."""
        if protocol in self._bound:
            raise SimulationError(
                f"protocol {protocol!r} already bound on {self.host}@{self.network.name}"
            )
        self._bound[protocol] = (handler, train_end, deque())

    def unbind_protocol(self, protocol: str) -> None:
        """Remove a protocol's receive handler."""
        self._bound.pop(protocol, None)

    def send(self, dst_host: str, protocol: str, payload: Any,
             size: Optional[int] = None) -> None:
        """Transmit one datagram to another host on this network.
        ``size`` (bytes) feeds the bandwidth model; None means
        header-only (a small control frame)."""
        if not self.up:
            return  # a downed interface silently loses frames
        network = self.network
        network.transmit(
            Datagram(network.name, self.host, dst_host, protocol, payload),
            size)

    def deliver_train(self, datagrams: List[Datagram]) -> None:
        """Called by the network when a frame train arrives — every
        datagram shares this host and one protocol.  The frames join
        the protocol's pending queue and go up one at a time, each
        popped *before* its upcall: a handler that blocks mid-train and
        lets a second train arrive re-entrantly has that train queue
        behind the first one's remainder and drain in the nested call,
        so upcall order is transmit order (PROTOCOL.md §13).  Once the
        queue is empty the protocol's train-end handler runs."""
        bound = self._bound.get(datagrams[0].protocol)
        if bound is None:
            # The frames are dropped, as a real stack would discard
            # segments for a protocol nobody registered.
            return
        handler, train_end, pending = bound
        pending.extend(datagrams)
        while pending:
            datagram = pending.popleft()
            if self.up:  # down (even since mid-train): frames are lost
                handler(datagram)
        if train_end is not None:
            train_end()


class _Train:
    """One open frame train: back-to-back frames sharing a destination,
    protocol and delivery delay, coalesced into a single scheduled
    delivery event (PROTOCOL.md §13)."""

    __slots__ = ("iface", "protocol", "born_at", "delay", "frames")

    def __init__(self, iface: "Interface", protocol: str, born_at: float,
                 delay: float, first: Datagram):
        self.iface = iface
        self.protocol = protocol
        self.born_at = born_at
        self.delay = delay
        self.frames: List[Datagram] = [first]


class Network:
    """A single, isolated communication medium.

    Args:
        scheduler: the global event scheduler.
        name: the logical network identifier (what the naming service
            stores as a module's network id).
        latency: one-way frame latency in virtual seconds.
        fault_seed: seed for the probabilistic fault generator.
    """

    #: Assumed size of a control frame when the sender gives no size.
    DEFAULT_FRAME_SIZE = 64

    def __init__(
        self,
        scheduler: Scheduler,
        name: str,
        latency: float = 0.001,
        bandwidth: Optional[float] = None,
        fault_seed: int = 0,
    ):
        self.scheduler = scheduler
        self.name = name
        self.latency = latency
        # Bytes per virtual second; None models an infinitely fast wire
        # (latency only).  With a bandwidth, a frame's delivery delay is
        # latency + size / bandwidth — so packed mode's character-format
        # expansion (Sec. 5.2) costs measurable wire time.
        self.bandwidth = bandwidth
        self.faults = FaultPlan(seed=fault_seed)
        self._interfaces: Dict[str, Interface] = {}
        self.frames_sent = 0
        self.frames_delivered = 0
        self.bytes_sent = 0
        # Frame trains (PROTOCOL.md §13): coalesce back-to-back frames
        # sharing (dst_host, protocol, delay) at one transmit instant
        # into a single delivery event.  Transmit-side accounting, the
        # drop decision and the trace hooks stay per-frame; what a
        # train changes on the wire is that the receiving IPCS
        # acknowledges each connection's share of it with one range
        # ACK, and sends nothing to a connection whose CLOSE it
        # carried.  ``train_max = 1`` is the ablation: one delivery event
        # per frame, so one ACK per frame, as without trains.
        self.train_max = 64
        self._open_train: Optional[_Train] = None
        # Delivery events that carried more than one frame.
        self.trains_coalesced = 0
        # Wire taps (see repro.netsim.tracelog):
        # each is called for every transmitted frame, after the drop
        # decision, with (datagram, size, dropped).  Observation only —
        # a tap cannot alter delivery, so attaching one never perturbs
        # a run.
        self.trace_hooks: List[Callable[[Datagram, int, bool], None]] = []

    def attach(self, host: str) -> Interface:
        """Attach a new host; returns its interface."""
        if host in self._interfaces:
            raise SimulationError(f"host {host!r} already attached to {self.name}")
        iface = Interface(self, host)
        self._interfaces[host] = iface
        return iface

    def detach(self, host: str) -> None:
        """Remove a host from the network (its interface goes down)."""
        iface = self._interfaces.pop(host, None)
        if iface is not None:
            iface.up = False

    def interface(self, host: str) -> Optional[Interface]:
        """The interface of one host, or None."""
        return self._interfaces.get(host)

    def hosts(self):
        """All attached host addresses."""
        return list(self._interfaces)

    def transmit(self, datagram: Datagram, size: Optional[int] = None) -> None:
        """Schedule delivery of one frame after latency (plus the
        serialization delay when a bandwidth is configured)."""
        dst = self._interfaces.get(datagram.dst_host)
        if dst is None:
            raise NetworkUnreachable(
                f"no host {datagram.dst_host!r} on network {self.name!r}"
            )
        if size is None:
            size = self.DEFAULT_FRAME_SIZE
        self.frames_sent += 1
        self.bytes_sent += size
        faults = self.faults
        # A plan with nothing configured drops nothing and draws nothing
        # from its RNG, so skipping it there is exact.
        dropped = bool(
            (faults._severed or faults._partition is not None
             or faults._drop_next or faults.drop_probability)
            and faults.should_drop(datagram.src_host, datagram.dst_host))
        for hook in self.trace_hooks:
            hook(datagram, size, dropped)
        if dropped:
            return
        delay = self.latency
        if self.bandwidth:
            delay += size / self.bandwidth

        now = self.scheduler.now
        train = self._open_train
        if (train is not None
                and train.iface is dst
                and train.protocol == datagram.protocol
                and train.delay == delay
                and train.born_at == now
                and len(train.frames) < self.train_max):
            # Back-to-back same-key frame: ride the open train's
            # already-scheduled delivery event.  The event was posted
            # at the head frame's (time, seq), so trains fire in
            # head-seq order and delivery order equals the per-frame
            # order exactly.
            train.frames.append(datagram)
            return
        # Different key, a time advance, or a full train: this frame
        # opens a fresh train (closing the previous one — it can no
        # longer be joined).
        train = _Train(dst, datagram.protocol, now, delay, datagram)
        self._open_train = train

        def deliver_train():
            # Close the train before delivering: a frame transmitted
            # from inside a delivery upcall must start a new train,
            # never join one already firing.
            if self._open_train is train:
                self._open_train = None
            frames = train.frames
            self.frames_delivered += len(frames)
            if len(frames) > 1:
                self.trains_coalesced += 1
            dst.deliver_train(frames)

        # One event per train, never cancelled.  The note is static:
        # nothing per datagram is formatted (ntcslint PERF002).
        self.scheduler.schedule(delay, deliver_train, "netsim train delivery")
