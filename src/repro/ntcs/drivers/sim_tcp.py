"""ND-Layer driver for the TCP-like IPCS.

TCP gives a byte stream, so this driver supplies the message framing:
each NTCS message is prefixed with its length as one shift-mode 32-bit
integer (endian-independent, per Sec. 5.2), and the receive side
reassembles messages from arbitrarily coalesced or fragmented chunks.
A length prefix above 16 MiB cannot be a message: it is handed up as
one malformed message, and the rest of the stream is discarded.
"""

from __future__ import annotations

from typing import Callable

from repro.conversion.shiftmode import u32_codec
from repro.ipcs.tcp import SimTcpIpcs
from repro.ntcs.stdif import MessageChannel, StdIfDriver

_LEN_BYTES = 4
_MAX_MESSAGE = 16 * 1024 * 1024
# The one-word length prefix, bound once.  A message can never hold 2^32
# bytes, and the receive side reads a prefix only once four bytes are
# buffered, so neither direction can fail.
_PREFIX = u32_codec(1)


class FramedChannel(MessageChannel):
    """Length-prefix framing over a byte-stream channel."""

    def __init__(self, channel):
        self._buffer = bytearray()
        self._unframed = False
        super().__init__(channel)

    def send_message(self, data: bytes) -> None:
        """Frame one NTCS message with a shift-mode length prefix."""
        self.channel.send(_PREFIX.pack(len(data)) + data)

    def _on_bytes(self, data: bytes) -> None:
        # One chunk may carry many messages.  Each is popped off the
        # reassembly buffer *before* its upcall, so a handler that
        # blocks and lets another chunk arrive re-entrantly has the
        # nested call drain the same buffer: upcall order is stream
        # order (PROTOCOL.md §13).  A handler that closes the circuit
        # mid-chunk stops the walk, as a per-record IPCS would.
        if self._unframed:
            return
        buffer = self._buffer
        buffer.extend(data)
        while self.channel.open and len(buffer) >= _LEN_BYTES:
            (length,) = _PREFIX.unpack_from(buffer)
            if length > _MAX_MESSAGE:
                # The stream has lost its framing for good (PROTOCOL.md
                # §7).  The prefix goes up alone — shorter than any
                # header, so the ND-Layer's malformed path takes it —
                # and every byte after it is discarded.
                self._unframed = True
                prefix = bytes(buffer[:_LEN_BYTES])
                buffer.clear()
                self._emit(prefix)
                return
            end = _LEN_BYTES + length
            if len(buffer) < end:
                return
            message = bytes(buffer[_LEN_BYTES:end])
            del buffer[:end]
            self._emit(message)


class SimTcpDriver(StdIfDriver):
    """STD-IF over :class:`~repro.ipcs.tcp.SimTcpIpcs`."""

    protocol = "tcp"

    def __init__(self, ipcs: SimTcpIpcs):
        self.ipcs = ipcs

    @property
    def network_name(self) -> str:
        return self.ipcs.network.name

    def listen(self, process, on_accept: Callable[[MessageChannel], None],
               binding: str = None) -> str:
        """Listen on a TCP port; returns the blob."""
        listener = self.ipcs.listen(process, binding)
        listener.on_accept = lambda channel: on_accept(FramedChannel(channel))
        return listener.address_blob()

    def connect(self, process, blob: str, timeout: float = 5.0) -> MessageChannel:
        """Open a framed channel to a tcp blob."""
        return FramedChannel(self.ipcs.connect(process, blob, timeout=timeout))
