"""An ND-Layer driver over real OS TCP sockets (localhost).

Everything above this file is the unmodified portable NTCS.  The driver
reuses the simulation TCP driver's :class:`FramedChannel` for message
framing — real TCP is a byte stream too — and supplies a socket-backed
channel underneath it.
"""

from __future__ import annotations

import errno
import socket
from typing import Callable, Optional

from repro.errors import ChannelClosed, ConnectionRefused, NetworkUnreachable
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.netsim.network import Network
from repro.ntcs.drivers import register_driver
from repro.ntcs.drivers.sim_tcp import FramedChannel
from repro.ntcs.stdif import MessageChannel, StdIfDriver
from repro.realnet.kernel import RealtimeKernel


class RealSocketChannel:
    """Duck-types :class:`repro.ipcs.base.Channel` over a non-blocking
    socket, driven by the realtime kernel's selector.  Owned by its
    process until it shuts down, like the simulated channels."""

    def __init__(self, kernel: RealtimeKernel, sock: socket.socket,
                 owner: SimProcess):
        self.kernel = kernel
        self.sock = sock
        self.owner = owner
        owner.own(self)
        self.open = True
        self._receive_handler: Optional[Callable[[bytes], None]] = None
        self._close_handler: Optional[Callable[[str], None]] = None
        self._closed_reason: Optional[str] = None
        self._outbound = bytearray()
        self._write_registered = False
        self.bytes_sent = 0
        self.bytes_received = 0
        sock.setblocking(False)
        kernel.register_reader(sock, self._on_readable)

    # -- Channel interface ------------------------------------------------------

    def set_receive_handler(self, handler: Callable[[bytes], None]) -> None:
        """Install the per-chunk receive callback."""
        self._receive_handler = handler

    def set_close_handler(self, handler: Callable[[str], None]) -> None:
        """Install the socket-death callback (fires late if already dead)."""
        self._close_handler = handler
        if self._closed_reason is not None:
            handler(self._closed_reason)

    def send(self, data: bytes) -> None:
        """Queue bytes on the socket (partial writes buffered).  Nothing
        leaves a crashed machine: a crash is abrupt (PROTOCOL.md §10)."""
        if not self.open:
            raise ChannelClosed(self._closed_reason or "not open")
        if not self.owner.machine.alive:
            return
        self.bytes_sent += len(data)
        self._outbound.extend(data)
        self._flush()

    def close(self) -> None:
        """Close the socket and notify locally."""
        self._shutdown("closed by local end")

    # -- socket plumbing ----------------------------------------------------

    def _flush(self) -> None:
        while self._outbound:
            try:
                sent = self.sock.send(bytes(self._outbound))
            except BlockingIOError:
                break
            except OSError as exc:
                self._shutdown(f"send failed: {exc}")
                return
            if sent == 0:
                break
            del self._outbound[:sent]
        if self._outbound and not self._write_registered:
            self.kernel.register_writer(self.sock, self._on_writable)
            self._write_registered = True
        elif not self._outbound and self._write_registered:
            self.kernel.unregister_writer(self.sock)
            self._write_registered = False

    def _on_writable(self) -> None:
        self._flush()

    def _on_readable(self) -> None:
        try:
            data = self.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError as exc:
            self._shutdown(f"recv failed: {exc}")
            return
        if not data:
            self._shutdown("closed by peer")
            return
        self.bytes_received += len(data)
        if self._receive_handler is not None:
            self._receive_handler(data)

    def _shutdown(self, reason: str) -> None:
        if self._closed_reason is not None:
            return
        self.open = False
        self._closed_reason = reason
        self.owner.disown(self)
        self.kernel.unregister(self.sock)
        try:
            self.sock.close()
        except OSError:
            pass
        if self._close_handler is not None:
            self._close_handler(reason)


class _RealListener:
    """A listening socket, closed when the process owning it dies."""

    def __init__(self, kernel: RealtimeKernel, sock: socket.socket):
        self.kernel = kernel
        self.sock = sock

    def close(self) -> None:
        """Stop accepting and release the port."""
        self.kernel.unregister(self.sock)
        try:
            self.sock.close()
        except OSError:
            pass


class LoopbackRealIpcs:
    """The native IPCS slot of one loopback port namespace: an ``rtcp``
    :class:`~repro.netsim.Network` record whose clock is the realtime
    kernel.  No netsim frame crosses it; the driver opens real sockets."""

    protocol = "rtcp"

    def __init__(self, machine: Machine, network: Network):
        self.kernel: RealtimeKernel = network.scheduler
        self.machine = machine
        self.network_name = network.name
        machine.register_ipcs(network.name, self.protocol, self)


class LoopbackTcpDriver(StdIfDriver):
    """STD-IF over real localhost TCP."""

    protocol = "rtcp"

    def __init__(self, ipcs: LoopbackRealIpcs):
        self.ipcs = ipcs
        self.kernel = ipcs.kernel

    @property
    def network_name(self) -> str:
        return self.ipcs.network_name

    def listen(self, process: SimProcess,
               on_accept: Callable[[MessageChannel], None],
               binding: Optional[str] = None) -> str:
        """Bind/listen a real TCP socket; returns the rtcp blob."""
        port = int(binding) if binding else 0
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", port))
        sock.listen(64)
        sock.setblocking(False)
        actual_port = sock.getsockname()[1]

        def accept():
            while True:
                try:
                    conn, _ = sock.accept()
                except BlockingIOError:
                    return
                except OSError:
                    return
                channel = RealSocketChannel(self.kernel, conn, process)
                on_accept(FramedChannel(channel))

        self.kernel.register_reader(sock, accept)
        process.own(_RealListener(self.kernel, sock))
        return f"rtcp:{self.network_name}:127.0.0.1:{actual_port}"

    def connect(self, process: SimProcess, blob: str,
                timeout: float = 5.0) -> MessageChannel:
        """Non-blocking connect driven to completion by the kernel pump."""
        kind, network, host, port = blob.split(":")
        if kind != "rtcp":
            raise NetworkUnreachable(f"not a real-tcp blob: {blob!r}")
        if network != self.network_name:
            raise NetworkUnreachable(
                f"driver on {self.network_name!r} cannot reach {network!r}"
            )
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        state = {"done": False, "error": None}
        result = sock.connect_ex((host, int(port)))
        if result not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK):
            sock.close()
            raise ConnectionRefused(f"connect to {blob}: {errno.errorcode.get(result, result)}")

        def on_writable():
            error = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            state["done"] = True
            state["error"] = error or None
            self.kernel.unregister(sock)

        self.kernel.register_writer(sock, on_writable)
        ok = self.kernel.pump_until(lambda: state["done"], timeout=timeout,
                                    what=f"rtcp connect {blob}")
        if not ok or state["error"]:
            self.kernel.unregister(sock)
            sock.close()
            detail = ("timed out" if not ok
                      else errno.errorcode.get(state["error"], state["error"]))
            raise ConnectionRefused(f"connect to {blob}: {detail}")
        return FramedChannel(RealSocketChannel(self.kernel, sock, process))


# The ND-Layer discovers this substrate through the driver registry: an
# "rtcp" IPCS (LoopbackRealIpcs) can only be built by importing this
# module, so the factory is guaranteed registered before any Nucleus
# asks for it.
register_driver("rtcp", LoopbackTcpDriver)
