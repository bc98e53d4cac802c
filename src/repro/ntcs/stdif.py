"""STD-IF: the ND-Layer's uniform virtual-circuit interface (Sec. 2.2).

"A simple STD-IF was desired, and since direct compatibility with
external standards was not required, a custom interface was specified."

The interface has exactly three capabilities, each message-oriented:

* :meth:`StdIfDriver.listen` — create the local communication resource
  and return its physical-address blob,
* :meth:`StdIfDriver.connect` — open a circuit to a blob (blocking,
  with retry on open),
* :class:`MessageChannel` — send/receive *whole NTCS messages* over the
  circuit, however the underlying IPCS chooses to move bytes.

Concrete drivers live in :mod:`repro.ntcs.drivers`; everything above
them is portable, which is the paper's central architectural claim.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.ipcs.base import Channel


class MessageChannel:
    """A message-boundary-preserving wrapper over one IPCS channel.

    Subclasses adapt the IPCS's delivery semantics: the TCP driver
    frames messages over the byte stream, the MBX driver maps records
    one-to-one.
    """

    def __init__(self, channel: Channel):
        self.channel = channel
        self._message_handler: Optional[Callable[[bytes], None]] = None
        channel.set_receive_handler(self._on_bytes)

    # -- upward-facing API ---------------------------------------------------

    def send_message(self, data: bytes) -> None:
        """Transmit one whole NTCS message (driver-specific framing)."""
        raise NotImplementedError

    def set_message_handler(self, handler: Callable[[bytes], None]) -> None:
        """Install the per-message delivery callback."""
        self._message_handler = handler

    def set_close_handler(self, handler: Callable[[str], None]) -> None:
        """Install the channel-death callback."""
        self.channel.set_close_handler(handler)

    def close(self) -> None:
        """Close the underlying IPCS channel."""
        self.channel.close()

    @property
    def open(self) -> bool:
        return self.channel.open

    # -- downward-facing -------------------------------------------------

    def _on_bytes(self, data: bytes) -> None:
        raise NotImplementedError

    def _emit(self, message: bytes) -> None:
        if self._message_handler is not None:
            self._message_handler(message)


class StdIfDriver:
    """Base class for ND-Layer drivers.  One instance per
    (machine, network, IPCS) triple, shared by every ComMod on that
    machine using that network."""

    protocol = "abstract"

    def listen(self, process, on_accept: Callable[[MessageChannel], None],
               binding: Optional[str] = None) -> str:
        """Create the module's communication resource (a TCP port, an
        MBX server mailbox, ...).  ``binding`` pins a specific port or
        pathname (needed for well-known addresses); None auto-assigns.
        Returns the physical-address blob."""
        raise NotImplementedError

    def connect(self, process, blob: str, timeout: float = 5.0) -> MessageChannel:
        """Open a circuit to ``blob``.  Blocking; raises
        ConnectionRefused / NetworkUnreachable on failure."""
        raise NotImplementedError

    @property
    def network_name(self) -> str:
        raise NotImplementedError
