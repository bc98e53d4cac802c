"""Exception hierarchy for the NTCS reproduction.

The paper's C implementation signalled conditions with tailored status
codes returned by the ALI-Layer ("tailors the error returns", Sec. 2.4).
In Python the idiomatic equivalent is an exception hierarchy rooted at
:class:`NtcsError`, with one subclass per condition class the paper
names.  Layers raise the most specific subclass; the ALI-Layer re-raises
NTCS-internal conditions as application-facing ones.
"""

from __future__ import annotations


class NtcsError(Exception):
    """Base class for every error raised by the NTCS and its substrates."""


# ---------------------------------------------------------------------------
# Simulation-kernel level
# ---------------------------------------------------------------------------

class SimulationError(NtcsError):
    """Misuse of, or an invariant violation inside, the simulation kernel."""


class DeadlockError(SimulationError):
    """A blocking call pumped the event queue dry without its predicate
    becoming true — no future event can ever satisfy it."""


# ---------------------------------------------------------------------------
# IPCS / network level
# ---------------------------------------------------------------------------

class IpcsError(NtcsError):
    """Base class for native-IPCS failures (the layer below the ND-Layer)."""


class ConnectionRefused(IpcsError):
    """No endpoint is listening at the requested physical address."""


class ChannelClosed(IpcsError):
    """The physical channel was closed by the peer or by a failure."""


class AddressInUse(IpcsError):
    """The requested port / mailbox pathname is already taken."""


class NetworkUnreachable(IpcsError):
    """The destination physical address names a network this machine is
    not attached to (the ND-Layer cannot internet; Sec. 2.2)."""


# ---------------------------------------------------------------------------
# NTCS internal layers
# ---------------------------------------------------------------------------

class AddressFault(NtcsError):
    """A previously resolved address is invalid: the module moved, died,
    or the communication link failed (Sec. 3.5).  Raised by the ND-Layer,
    handled by the LCM-Layer's address-fault handler."""

    def __init__(self, uadd, reason=""):
        super().__init__(f"address fault on {uadd}: {reason or 'unreachable'}")
        self.uadd = uadd
        self.reason = reason


class NoSuchName(NtcsError):
    """The naming service has no entry for the requested logical name."""


class NoSuchAddress(NtcsError):
    """The naming service has no entry for the requested UAdd."""


class NoForwardingAddress(NtcsError):
    """The address-fault handler asked the naming service for a forwarding
    UAdd and none was available: no replacement module was located
    (Sec. 3.5, first case)."""


class ModuleStillAlive(NtcsError):
    """The naming service reports the faulted module is still registered
    and alive; the fault was a broken link, not a relocation (Sec. 3.5,
    second case)."""


class NameServerUnreachable(NtcsError):
    """The Name Server itself cannot be reached, even through its
    well-known physical address."""


class RecursionLimitExceeded(NtcsError):
    """The Nucleus re-entered itself more deeply than the configured
    bound — the reproduction's stand-in for the C stack overflow the
    paper observed in the Sec. 6.3 runaway-recursion scenario."""


class RouteNotFound(NtcsError):
    """The IP-Layer could not assemble a gateway chain from the local
    network to the destination network."""


class ProtocolError(NtcsError):
    """A malformed or unexpected NTCS internal message was received."""


# ---------------------------------------------------------------------------
# Conversion layer
# ---------------------------------------------------------------------------

class ConversionError(NtcsError):
    """Packing or unpacking a message failed."""


class UnknownMessageType(ConversionError):
    """A message arrived whose type id is not in the local registry.

    Every lookup path normalizes to this typed error — a raw
    ``KeyError`` must never escape the conversion layer — and carries
    the offending ``type_id`` (or ``name``) so handlers can log or
    NAK precisely.
    """

    def __init__(self, message: str, type_id=None, name=None):
        super().__init__(message)
        self.type_id = type_id
        self.name = name


class DuplicateTypeId(ConversionError):
    """A structure was registered under a type id or type name that the
    registry already holds.  Reserved-range discipline (Sec. 5.2) is
    also enforced at rest by ``ntcslint``'s protocol rules."""

    def __init__(self, message: str, type_id=None, name=None):
        super().__init__(message)
        self.type_id = type_id
        self.name = name


# ---------------------------------------------------------------------------
# Application-facing (ALI-Layer) errors
# ---------------------------------------------------------------------------

class AliError(NtcsError):
    """Base class for errors the ALI-Layer reports to the application."""


class BadParameter(AliError):
    """The application passed an invalid argument to an ALI primitive
    (the ALI-Layer "performs parameter checking", Sec. 2.4)."""


class DestinationUnavailable(AliError):
    """Communication could not reach the destination and no relocation
    was possible; the application-facing form of
    :class:`NoForwardingAddress` / :class:`AddressFault`."""


class ReplyTimeout(AliError):
    """A synchronous call did not receive its reply within the deadline."""


class SendWouldBlock(AliError):
    """A non-blocking send found the destination IVC out of flow-control
    credit (PROTOCOL.md §12): the receiver has not consumed enough of
    what was already sent.  The message was *not* transmitted.  Retry
    after backing off, or call with ``block=True`` to park on the run
    queue until credit returns."""


class NotRegistered(AliError):
    """A primitive requiring registration was invoked before the module
    registered itself with the naming service."""
