"""The Application Level Interface Layer (paper Sec. 2.4).

"The application interface primitives are provided by the Application
Level Interface Layer (ALI-Layer), forming the topmost layer in the
ComMod.  It simply provides the application interface primitives from
the Nucleus and NSP-Layer services, tailors the error returns, and
performs parameter checking.  It may be better described as a thin
veneer."

Three primitive classes (Sec. 1.3):

* **basic communication** — :meth:`send` (asynchronous),
  :meth:`call`/:meth:`receive`/:meth:`reply` (synchronous
  send/receive/reply),
* **resource location** — :meth:`register`, :meth:`locate`,
  :meth:`locate_by_attrs`, :meth:`deregister`,
* **utilities** — :meth:`ping`, :meth:`status`, :meth:`my_address`.

"An application module need only obtain an address once; module
relocation will then occur as required, during all communication,
transparent at this interface."
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    BadParameter,
    NoSuchName,
    NotRegistered,
    UnknownMessageType,
)
from repro.naming.protocol import NameRecord
from repro.ntcs.address import Address
from repro.ntcs.lcm import IncomingMessage


class AliLayer:
    """The application-facing veneer of one ComMod."""

    LAYER = "ALI"

    def __init__(self, commod):
        self.commod = commod
        self.nucleus = commod.nucleus
        self.registered_name: Optional[str] = None
        self.uadd: Optional[Address] = None

    # -- parameter checking helpers ------------------------------------------

    def _check_dst(self, dst) -> Address:
        if not isinstance(dst, Address):
            raise BadParameter(f"destination must be an Address, not {type(dst).__name__}")
        return dst

    def _check_type(self, type_name: str) -> None:
        if not isinstance(type_name, str) or not type_name:
            raise BadParameter("message type name must be a non-empty string")
        try:
            self.nucleus.registry.get_by_name(type_name)
        except UnknownMessageType:
            raise BadParameter(f"message type {type_name!r} is not registered")

    def _check_values(self, values) -> dict:
        if values is None:
            return {}
        if not isinstance(values, dict):
            raise BadParameter(f"message values must be a dict, not {type(values).__name__}")
        return values

    # -- resource location primitives ---------------------------------------------

    def register(self, name: str, attrs: Optional[Dict[str, str]] = None) -> Address:
        """Come on-line: create communication resources (already done at
        bind), register with the naming service, adopt the assigned
        UAdd (Sec. 3.2)."""
        if not isinstance(name, str) or not name or len(name) > 63:
            raise BadParameter("module name must be a string of 1-63 characters")
        if self.registered_name is not None:
            raise BadParameter(f"module already registered as {self.registered_name!r}")
        with self.nucleus.enter(self.LAYER, "register", caller="application",
                                reason=name):
            blob = self.nucleus.nd.listen_blob
            uadd = self.commod.nsp.register(
                name=name,
                attrs=attrs or {},
                addresses=[(self.commod.network, blob)],
                mtype_name=self.nucleus.mtype.name,
            )
        self.nucleus.set_identity(uadd)
        self.registered_name = name
        self.uadd = uadd
        # Graceful death deregisters so forwarding lookups see the
        # tombstone; abrupt death (machine crash) cannot.
        self.commod.process.at_kill(self._deregister_on_kill)
        return uadd

    def _deregister_on_kill(self) -> None:
        if self.uadd is None:
            return
        # Best effort.  Kill hooks run before the process's channels
        # are closed (PROTOCOL.md §10), so the datagram rides a circuit
        # that still exists instead of opening one from a dying module.
        self.commod.nsp.deregister_on_death(self.uadd)

    def locate(self, name: str) -> Address:
        """Map a logical name to a UAdd.  The UAdd stays valid across
        relocations — obtain it once."""
        if not isinstance(name, str) or not name:
            raise BadParameter("name must be a non-empty string")
        with self.nucleus.enter(self.LAYER, "locate", caller="application",
                                reason=name):
            return self.commod.nsp.resolve_name(name)

    def locate_by_attrs(self, required: Dict[str, str]) -> List[NameRecord]:
        """Attribute-based resource location (the Sec. 7 scheme)."""
        if not isinstance(required, dict) or not required:
            raise BadParameter("attribute query must be a non-empty dict")
        with self.nucleus.enter(self.LAYER, "locate_by_attrs",
                                caller="application"):
            return self.commod.nsp.query_attrs(required)

    def deregister(self) -> None:
        """Go off-line explicitly."""
        if self.uadd is None:
            raise NotRegistered("module never registered")
        self.commod.nsp.deregister(self.uadd)

    # -- basic communication primitives -----------------------------------------

    def send(self, dst, type_name: str, values: Optional[dict] = None,
             block: bool = True) -> None:
        """Send one message; returns once it is handed to the wire.

        "Asynchronous" here means no reply is awaited — *not* that the
        primitive cannot block.  Under flow control (PROTOCOL.md §12)
        a sender that has exhausted the destination circuit's credit
        window is parked on the run queue until the receiver consumes;
        with ``block=False`` it raises :class:`SendWouldBlock` at once
        instead, leaving the message unsent.  Each refusal and each
        stall is counted as ``ali_send_blocked``.  With ``flow_control_enabled=False``
        the send never waits — the receiver buffers without limit."""
        dst = self._check_dst(dst)
        self._check_type(type_name)
        values = self._check_values(values)
        with self.nucleus.enter(self.LAYER, "send", caller="application",
                                reason=type_name):
            self.nucleus.lcm.send(dst, type_name, values, block=block)

    def call(self, dst, type_name: str, values: Optional[dict] = None,
             timeout: Optional[float] = None) -> IncomingMessage:
        """Synchronous send/receive/reply: blocks for the reply."""
        dst = self._check_dst(dst)
        self._check_type(type_name)
        values = self._check_values(values)
        if timeout is not None and timeout <= 0:
            raise BadParameter("timeout must be positive")
        with self.nucleus.enter(self.LAYER, "call", caller="application",
                                reason=type_name):
            return self.nucleus.lcm.call(dst, type_name, values, timeout=timeout)

    def call_async(self, dst, type_name: str, values: Optional[dict] = None):
        """Asynchronous send/receive/reply: returns a handle whose
        ``result(timeout)`` blocks for the reply."""
        dst = self._check_dst(dst)
        self._check_type(type_name)
        values = self._check_values(values)
        with self.nucleus.enter(self.LAYER, "call_async", caller="application",
                                reason=type_name):
            return self.nucleus.lcm.call_async(dst, type_name, values)

    def receive(self, timeout: Optional[float] = None) -> IncomingMessage:
        """Block until the next queued message arrives."""
        if timeout is not None and timeout <= 0:
            raise BadParameter("timeout must be positive")
        return self.nucleus.lcm.receive(timeout=timeout)

    def reply(self, request: IncomingMessage, type_name: str,
              values: Optional[dict] = None) -> None:
        """Answer a request received via :meth:`receive` or the handler."""
        if not isinstance(request, IncomingMessage):
            raise BadParameter("reply target must be an IncomingMessage")
        if not request.reply_expected:
            raise BadParameter("the request did not expect a reply")
        self._check_type(type_name)
        values = self._check_values(values)
        with self.nucleus.enter(self.LAYER, "reply", caller="application",
                                reason=type_name):
            self.nucleus.lcm.reply(request, type_name, values)

    def datagram(self, dst, type_name: str, values: Optional[dict] = None) -> bool:
        """Best-effort connectionless send (the LCM's connectionless
        protocol).  Never blocks for credit: an out-of-credit or
        overloaded circuit drops the datagram (counted as
        ``drop_connectionless``) and this returns False."""
        dst = self._check_dst(dst)
        self._check_type(type_name)
        values = self._check_values(values)
        return self.nucleus.lcm.datagram(dst, type_name, values)

    def set_request_handler(
        self, handler: Optional[Callable[[IncomingMessage], None]]
    ) -> None:
        """Install a synchronous handler (server style); None restores
        queueing."""
        if handler is not None and not callable(handler):
            raise BadParameter("handler must be callable or None")
        self.nucleus.lcm.set_handler(handler)

    # -- utilities ---------------------------------------------------------

    def my_address(self) -> Address:
        """The module's current NTCS address (TAdd until registered)."""
        return self.nucleus.self_addr

    def queued(self) -> int:
        """Messages waiting in this module's receive queue.  The queue
        is bounded only by flow control (PROTOCOL.md §12): senders stall
        once their circuit's window is spent, so the depth a polling
        receiver can accumulate is capped at roughly one window per
        sending circuit — unless ``flow_control_enabled=False``, in
        which case it grows without limit."""
        return self.nucleus.lcm.queued()

    def ping_name_server(self) -> bool:
        """True when the naming service answers (utility primitive)."""
        return self.commod.nsp.ping()

    def status(self) -> Dict[str, object]:
        """A small health/introspection snapshot."""
        nucleus = self.nucleus
        return {
            "name": self.registered_name,
            "address": str(nucleus.self_addr),
            "machine": nucleus.machine.name,
            "machine_type": nucleus.mtype.name,
            "network": self.commod.network,
            "open_circuits": nucleus.ip.open_ivc_count(),
            "queued": nucleus.lcm.queued(),
            "recursion_depth": nucleus.depth,
            "max_recursion_depth": nucleus.max_depth_seen,
        }
