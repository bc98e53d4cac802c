"""The Logical Connection Maintenance Layer (paper Secs. 2.2 and 3.5).

"Its primary function is to relocate modules which may have moved, and
to recover from broken connections, though it also provides a
connectionless protocol.  No explicit open or close primitives are
provided at the Nucleus interface; messages are simply sent/received
directly to/from the desired destinations, with the underlying IVCs
being established as needed."

The address-fault handler implements the Sec. 3.5 recovery sequence:
local forwarding-address table, then a naming-service query for a
forwarding UAdd, then reconnection — plus the Sec. 6.3 *patch*: when
the faulted address is the Name Server itself, asking the naming
service would recurse forever ("until either the stack overflows, or
the connection can be reestablished"), so a patched LCM retries through
the well-known physical address instead.  The patch is configurable
specifically so experiment E9 can reproduce the unpatched failure.

Circuit repair (PROTOCOL.md §10) wraps the Sec. 3.5 machinery in a
bounded outer loop: when one relocation round exhausts (a mid-chain
gateway died, or the Name Server is briefly unreachable), the send
backs off — exponentially, with jitter drawn from the module's seeded
repair RNG — and replans from the naming service's current topology.
Delivery semantics survive repair: one logical call keeps one
correlation id across retries, and the receive side suppresses
redelivered requests (replaying the cached reply), so repair never
duplicates an application message and never silently reorders a
sender's stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.conversion.modes import decode_body
from repro.errors import (
    AddressFault,
    ChannelClosed,
    ConnectionRefused,
    DestinationUnavailable,
    ModuleStillAlive,
    NameServerUnreachable,
    NetworkUnreachable,
    NoForwardingAddress,
    NoSuchAddress,
    ReplyTimeout,
    RouteNotFound,
    SendWouldBlock,
)
from repro.ntcs import message as m
from repro.ntcs.address import Address
from repro.ntcs.iplayer import Ivc
from repro.util.counters import (
    DATAGRAMS_DROPPED, DROP_CONNECTIONLESS, IVC_REOPEN_ATTEMPTS, LCM_ADDRESS_FAULTS,
    LCM_CALL_RETRIES, LCM_CIRCUIT_FAULTS, LCM_CIRCUIT_REPAIRS,
    LCM_DUPLICATES_SUPPRESSED, LCM_FORWARDING_COMPRESSIONS, LCM_ORPHAN_REPLIES,
    LCM_RECONNECT_ATTEMPTS, LCM_RELOCATIONS_FOLLOWED, LCM_UNDECODABLE_MESSAGES,
    LCM_UNEXPECTED_KINDS, NS_FAULT_PATCH_HITS, REPAIR_BACKOFF_BUCKETS,
)
from repro.util.idgen import SequenceGenerator

# Conditions the send loop treats as "the address may be stale" — the
# address-fault handler decides between relocation and reconnection.
# RouteNotFound is included: a module may have relocated to a network
# we can currently reach even when its old network is unroutable.
_TRANSIENT = (AddressFault, ChannelClosed, ConnectionRefused,
              NetworkUnreachable, RouteNotFound)

# The budgets bounding the LCM's retry loops: re-sends of a call whose
# circuit died awaiting the reply (the NSP layer's shared-call loop
# imports the same bound), Sec. 6.3 retries of the Name Server's
# well-known address, and the wait before repair round k —
# ``min(BASE * 2**(k-1), CAP)`` virtual seconds plus seeded jitter in
# ``[0, BASE)`` (PROTOCOL.md §10).
CALL_RETRIES = 2
NS_FAULT_RETRY_LIMIT = 2
REPAIR_BACKOFF_BASE = 0.05
REPAIR_BACKOFF_CAP = 2.0

# The LCM control loops, model-checked by ntcsverify (pure literals).
# Not run by step: these abstract the send/call/receive control flow,
# not a circuit's state.  Every retry cycle names the budget that bounds
# it (the name must exist in this module — MDL004 checks), the reply
# wait carries the call timeout (MDL002), and the receive queue pairs
# its fill edge with a draining edge (MDL005).
PROTOCOL_MACHINES = (
    {
        "name": "lcm-send-repair",
        "initial": "IDLE",
        "terminal": ("DELIVERED", "FAILED"),
        "states": {
            "IDLE": {
                "edges": (
                    {"event": "local send", "next": "ROUTING"},
                ),
            },
            "ROUTING": {
                "edges": (
                    {"event": "send DATA", "next": "DELIVERED"},
                    {"event": "local address_fault", "next": "BACKOFF"},
                ),
            },
            "BACKOFF": {
                "edges": (
                    {"event": "local repair_retry", "next": "ROUTING",
                     "bounded": "MAX_SEND_ATTEMPTS"},
                    {"event": "local give_up", "next": "FAILED"},
                ),
            },
            "DELIVERED": {},
            "FAILED": {},
        },
    },
    {
        "name": "lcm-call",
        "initial": "IDLE",
        "terminal": ("REPLIED", "FAILED"),
        "states": {
            "IDLE": {
                "edges": (
                    {"event": "send DATA", "next": "WAIT_REPLY"},
                ),
            },
            "WAIT_REPLY": {
                "waits": True,
                "edges": (
                    {"event": "recv DATA", "next": "REPLIED"},
                    {"event": "timeout call_timeout", "next": "RETRY"},
                ),
            },
            "RETRY": {
                "edges": (
                    {"event": "local resend", "next": "WAIT_REPLY",
                     "bounded": "CALL_RETRIES"},
                    {"event": "local give_up", "next": "FAILED"},
                ),
            },
            "REPLIED": {},
            "FAILED": {},
        },
    },
    {
        "name": "lcm-rx-queue",
        "initial": "PUMPING",
        "terminal": (),
        "states": {
            "PUMPING": {
                "edges": (
                    {"event": "recv DATA", "next": "PUMPING",
                     "queue": "+rxq", "progress": True},
                    {"event": "local deliver", "next": "PUMPING",
                     "queue": "-rxq", "progress": True},
                ),
            },
        },
    },
)


@dataclass
class IncomingMessage:
    """One delivered application (or internal) message."""

    src: Address
    type_id: int
    type_name: str
    values: dict
    corr_id: int
    reply_expected: bool
    internal: bool
    connectionless: bool
    arrived_at: float
    mode: int
    # The circuit whose credit ledger the IP-Layer debited for this
    # queued message, so ``receive()`` can report its consumption
    # (PROTOCOL.md §12); None when it spent no credit.
    ivc: Optional[Ivc] = None


@dataclass
class _PendingCall:
    dst: Address
    reply: Optional[IncomingMessage] = None
    error: Optional[str] = None
    # Set by whatever finishes the call, its reply or the fault that
    # dooms it; a waiter pumps until it reads True (see _finished).
    done: bool = False


def _finished(pending: _PendingCall) -> Callable[[], bool]:
    """The predicate a waiter pumps on: a C-level read of
    ``pending.done``, so waiting adds no Python call per event."""
    return partial(getattr, pending, "done")


class CallHandle:
    """An outstanding asynchronous call: poll :attr:`ready` or block in
    :meth:`result`."""

    def __init__(self, lcm: "LcmLayer", corr_id: int, pending: _PendingCall):
        self._lcm = lcm
        self.corr_id = corr_id
        self._pending = pending

    @property
    def ready(self) -> bool:
        return self._pending.done

    def result(self, timeout: Optional[float] = None) -> IncomingMessage:
        """Block until the reply arrives (or fail like a sync call)."""
        nucleus = self._lcm.nucleus
        timeout = timeout if timeout is not None else nucleus.config.call_timeout
        try:
            nucleus.scheduler.pump_until(
                _finished(self._pending), timeout=timeout,
                what=f"async reply from {self._pending.dst}",
            )
            if self._pending.reply is not None:
                return self._pending.reply
            if self._pending.error is not None:
                raise DestinationUnavailable(
                    f"call to {self._pending.dst}: {self._pending.error}"
                )
            raise ReplyTimeout(
                f"no reply from {self._pending.dst} within {timeout}s"
            )
        finally:
            self._lcm._pending.pop(self.corr_id, None)


class LcmLayer:
    """The top Nucleus layer of one module."""

    LAYER = "LCM"
    MAX_SEND_ATTEMPTS = 3
    # Bound on the served-request memory backing duplicate suppression.
    SERVED_LIMIT = 128
    # Bound on the faulted-target memory: a server outlives most of the
    # clients whose circuits it saw die and never sends to them again.
    FAULTED_LIMIT = 128

    def __init__(self, nucleus):
        self.nucleus = nucleus
        self.ip = nucleus.ip
        self.ip.set_upcalls(deliver=self._on_deliver, fault=self._on_fault)
        self._routes: Dict[Address, Ivc] = {}
        # Targets whose *established* circuit has faulted since the
        # last successful send: the next send that goes through to one
        # of them completed a circuit repair (PROTOCOL.md §10).  A
        # first-establishment hiccup never enters this set, so cold
        # starts and ordinary relocation-follows are not counted.
        # Insertion-ordered and capped at FAULTED_LIMIT, oldest fault
        # forgotten first (a forgotten repair goes uncounted, no more).
        self._faulted_targets: Dict[Address, None] = {}
        # The local forwarding-address table (Sec. 3.5).
        self.forwarding: Dict[Address, Address] = {}
        self._pending: Dict[int, _PendingCall] = {}
        self._queue: Deque[IncomingMessage] = deque()
        self._handler: Optional[Callable[[IncomingMessage], None]] = None
        self._corr = SequenceGenerator()
        self._ns_fault_streak = 0
        # Duplicate suppression (PROTOCOL.md §10): requests already
        # accepted, keyed (src, corr_id) -> cached reply args, or None
        # while the handler is still running.  Insertion-ordered and
        # capped at SERVED_LIMIT, so a long-lived server forgets the
        # oldest conversations first.
        self._served: Dict[Tuple[Address, int], Optional[tuple]] = {}

    # -- primitives -----------------------------------------------------------

    def send(
        self,
        dst: Address,
        type_name: str,
        values: dict,
        flags: int = 0,
        corr_id: int = 0,
        force_mode: Optional[int] = None,
        block: bool = True,
    ) -> None:
        """Send one message; circuits are established (and relocation
        performed) as needed.  Blocking until handed to the wire —
        which, under flow control (PROTOCOL.md §12), includes stalling
        while the destination IVC is out of credit.  With
        ``block=False`` a zero-credit circuit raises
        :class:`SendWouldBlock` instead of stalling.

        When one relocation round exhausts — a mid-chain gateway died,
        or the naming service is briefly unreachable — circuit repair
        (PROTOCOL.md §10) backs off and replans, up to
        ``repair_max_attempts`` rounds.  With the knob at 0 the
        pre-repair fault behavior is reproduced message for message."""
        nucleus = self.nucleus
        entry = nucleus.registry.get_by_name(type_name)
        with nucleus.enter(self.LAYER, "send", reason=type_name):
            # The timestamp is for monitor data (Sec. 6.1); taking it may
            # recurse into the time service, so skip it when no monitor
            # record will be emitted.
            timestamp = nucleus.timestamp() if nucleus.monitoring_active else 0.0
            budget = max(0, nucleus.config.repair_max_attempts)
            round_no = 0
            while True:
                try:
                    target = self._send_round(
                        dst, entry, values, flags, corr_id, force_mode,
                        repairing=round_no > 0, block=block,
                    )
                    break
                except (DestinationUnavailable, NameServerUnreachable) as exc:
                    if round_no >= budget:
                        raise
                    round_no += 1
                    self._repair_backoff(round_no, dst, exc)
            if nucleus.monitoring_active:
                nucleus.emit_monitor({
                    "event": "send", "peer": str(target),
                    "type": type_name, "t": timestamp,
                })

    def _send_round(
        self,
        dst: Address,
        entry,
        values: dict,
        flags: int,
        corr_id: int,
        force_mode: Optional[int],
        repairing: bool,
        block: bool = True,
    ) -> Address:
        """One Sec. 3.5 relocation round: bounded attempts, each failure
        running the address-fault handler.  Returns the final target on
        success; raises when the round exhausts."""
        nucleus = self.nucleus
        target = self._follow_forwarding(dst)
        last_error: Optional[Exception] = None
        # A call's request may ride a new circuit's open (PROTOCOL.md
        # §3): requests are deduplicated on (src, corr_id), so one that
        # is delivered and then re-sent after a failed open runs once.
        rides = (flags & (m.FLAG_REPLY_EXPECTED | m.FLAG_CONNECTIONLESS)
                 == m.FLAG_REPLY_EXPECTED and force_mode is None)
        for _ in range(self.MAX_SEND_ATTEMPTS):
            try:
                msg = m.Msg(
                    kind=m.DATA, src=nucleus.self_addr, dst=target,
                    flags=flags, corr_id=corr_id,
                )
                request = (msg, entry.sdef.type_id, values)
                ivc = self._route_to(
                    target, repairing=repairing or last_error is not None,
                    request=request if rides else None)
                if not msg.flags & m.FLAG_RIDES_OPEN:
                    self.ip.send_values(ivc, *request,
                                        force_mode=force_mode, block=block)
            except _TRANSIENT as exc:
                last_error = exc
                self._drop_route(target)
                new_target = self._address_fault(target, exc)
                if new_target != target:
                    # The module relocated: that recovery is accounted
                    # as a relocation-follow, not a circuit repair.
                    self._faulted_targets.pop(target, None)
                target = new_target
                continue
            self._ns_fault_streak = 0
            if target in self._faulted_targets:
                # An established circuit to this target had faulted and
                # this send went through on a re-planned route: one
                # completed repair (PROTOCOL.md §10).
                del self._faulted_targets[target]
                nucleus.counters[LCM_CIRCUIT_REPAIRS] += 1
                # Resynchronize credits (PROTOCOL.md §12): a circuit
                # that survived the fault window may have frames in
                # doubt between the ledgers.
                self.ip.resync_credit(self._routes.get(target))
            return target
        raise DestinationUnavailable(
            f"send to {dst} failed after {self.MAX_SEND_ATTEMPTS} attempts: "
            f"{last_error}"
        )

    def _repair_backoff(self, round_no: int, dst: Address,
                        exc: Exception) -> None:
        """Between repair rounds: count the round, wait the bounded
        exponential backoff (round k waits ``min(base * 2**k, cap)``
        plus jitter from the module's seeded repair RNG), and reset the
        Sec. 6.3 well-known retry budget so the next round gets a fresh
        look at the naming service."""
        nucleus = self.nucleus
        nucleus.counters[LCM_CIRCUIT_REPAIRS] += 1
        nucleus.counters[REPAIR_BACKOFF_BUCKETS[min(round_no - 1, 7)]] += 1
        nucleus.trace(self.LAYER, "circuit_repair",
                      reason=f"round {round_no} for {dst}: {exc}")
        self._ns_fault_streak = 0
        base = min(REPAIR_BACKOFF_BASE * (2 ** (round_no - 1)),
                   REPAIR_BACKOFF_CAP)
        jitter = nucleus.repair_rng.random() * REPAIR_BACKOFF_BASE
        nucleus.scheduler.wait(base + jitter)

    def call(
        self,
        dst: Address,
        type_name: str,
        values: dict,
        timeout: Optional[float] = None,
        flags: int = 0,
    ) -> IncomingMessage:
        """Synchronous send/receive/reply: send, then block until the
        correlated reply arrives.

        A call whose circuit dies while awaiting the reply is retried
        (bounded by ``CALL_RETRIES``): the message may have been lost in
        a reconfiguration window (Sec. 3.5), and the retried send runs
        the full relocation machinery.  Reply timeouts are *not*
        retried — the destination saw the request."""
        nucleus = self.nucleus
        timeout = timeout if timeout is not None else nucleus.config.call_timeout
        attempts = 1 + CALL_RETRIES
        last_error = ""
        # One logical call keeps one correlation id across retries: the
        # receive side dedups requests on (src, corr_id), so a request
        # redelivered by a retry is suppressed — and its cached reply
        # replayed — instead of running the server handler twice.
        corr = self._corr.next()
        for _ in range(attempts):
            pending = _PendingCall(dst=dst)
            self._pending[corr] = pending
            try:
                self.send(dst, type_name, values,
                          flags=flags | m.FLAG_REPLY_EXPECTED, corr_id=corr)
                done = nucleus.scheduler.pump_until(
                    _finished(pending),
                    timeout=timeout,
                    what=f"reply from {dst}",
                )
                if pending.reply is not None:
                    return pending.reply
                if pending.error is not None:
                    last_error = pending.error
                    nucleus.counters[LCM_CALL_RETRIES] += 1
                    continue
                assert not done
                raise ReplyTimeout(f"no reply from {dst} within {timeout}s")
            finally:
                self._pending.pop(corr, None)
        raise DestinationUnavailable(f"call to {dst}: {last_error}")

    def call_async(self, dst: Address, type_name: str, values: dict,
                   flags: int = 0) -> CallHandle:
        """The asynchronous form of :meth:`call`: send the request,
        return immediately with a handle on the future reply."""
        corr = self._corr.next()
        pending = _PendingCall(dst=dst)
        self._pending[corr] = pending
        try:
            self.send(dst, type_name, values,
                      flags=flags | m.FLAG_REPLY_EXPECTED, corr_id=corr)
        except Exception:
            self._pending.pop(corr, None)
            raise
        return CallHandle(self, corr, pending)

    def reply(self, request: IncomingMessage, type_name: str, values: dict,
              flags: int = 0) -> None:
        """Answer a request received with reply_expected set.  The reply
        is remembered against the request's (src, corr_id), so a
        redelivered request — a repair-round retry whose original *did*
        arrive — replays the same answer instead of re-running the
        server handler."""
        key = (request.src, request.corr_id)
        if key in self._served:
            self._served[key] = (type_name, dict(values), flags)
        self.send(request.src, type_name, values,
                  flags=flags | m.FLAG_IS_REPLY, corr_id=request.corr_id)

    def datagram(self, dst: Address, type_name: str, values: dict,
                 flags: int = 0) -> bool:
        """The connectionless protocol: best-effort, never raises for
        delivery problems.  Returns False when the send failed.

        Under flow control (PROTOCOL.md §12) a datagram never stalls:
        at zero credit it is dropped at the sender — counted as
        ``drop_connectionless`` — exactly as an overloaded receiver
        drops one that finds a full window queued."""
        try:
            self.send(dst, type_name, values,
                      flags=flags | m.FLAG_CONNECTIONLESS)
            return True
        except SendWouldBlock:
            self.nucleus.counters[DATAGRAMS_DROPPED] += 1
            self.nucleus.counters[DROP_CONNECTIONLESS] += 1
            return False
        except (DestinationUnavailable, NoSuchAddress, RouteNotFound,
                NoForwardingAddress, NameServerUnreachable):
            self.nucleus.counters[DATAGRAMS_DROPPED] += 1
            return False

    def receive(self, timeout: Optional[float] = None) -> IncomingMessage:
        """Block until a message is queued (polling receiver style)."""
        nucleus = self.nucleus
        timeout = timeout if timeout is not None else nucleus.config.call_timeout
        ok = nucleus.scheduler.pump_until(
            lambda: bool(self._queue), timeout=timeout, what="receive",
        )
        if not ok:
            raise ReplyTimeout(f"nothing received within {timeout}s")
        incoming = self._queue.popleft()
        if incoming.ivc is not None:
            # Consumption is what lets the sender send again.
            self.ip.note_dequeued(incoming.ivc)
        return incoming

    def set_handler(self, handler: Optional[Callable[[IncomingMessage], None]]) -> None:
        """Install a synchronous message handler (server style).  While
        installed, messages bypass the receive queue."""
        self._handler = handler

    # -- routing and recovery ----------------------------------------------------

    def _follow_forwarding(self, dst: Address) -> Address:
        """Chase the forwarding-address table, guarding against cycles.
        A multi-hop chase path-compresses: every address on the walked
        chain is repointed directly at the final target, so a long
        relocation chain is re-walked at most once."""
        seen = {dst}
        path = [dst]
        target = dst
        while target in self.forwarding:
            target = self.forwarding[target]
            if target in seen:
                raise DestinationUnavailable(f"forwarding cycle at {target}")
            seen.add(target)
            path.append(target)
        if len(path) > 2:
            for addr in path[:-1]:
                self.forwarding[addr] = target
            self.nucleus.counters[LCM_FORWARDING_COMPRESSIONS] += 1
        return target

    def _route_to(self, target: Address, repairing: bool = False,
                  request: Optional[tuple] = None) -> Ivc:
        """The open circuit to ``target``, opened when there is none —
        with ``request`` riding the open where it can."""
        ivc = self._routes.get(target)
        if ivc is not None and ivc.open:
            return ivc
        self._routes.pop(target, None)
        if repairing:
            self.nucleus.counters[IVC_REOPEN_ATTEMPTS] += 1
        ivc = self.ip.open_ivc(
            target, reason="lcm repair" if repairing else "lcm send",
            request=request)
        self._routes[target] = ivc
        return ivc

    def _drop_route(self, target: Address) -> None:
        ivc = self._routes.pop(target, None)
        if ivc is not None:
            # An established circuit (not a first-open failure) is being
            # dropped after a fault: the next send through marks a repair.
            self._mark_faulted((target,))
            self.ip.close(ivc, "dropped after fault", notify=False)

    def _mark_faulted(self, targets) -> None:
        faulted = self._faulted_targets
        for target in targets:
            faulted[target] = None
        while len(faulted) > self.FAULTED_LIMIT:
            del faulted[next(iter(faulted))]

    def _address_fault(self, target: Address, exc: Exception) -> Address:
        """The Sec. 3.5 address-fault handler: look for a forwarding
        UAdd in the naming service; distinguish "no replacement" from
        "module still alive"."""
        nucleus = self.nucleus
        with nucleus.enter(self.LAYER, "address_fault", reason=str(exc)):
            nucleus.counters[LCM_ADDRESS_FAULTS] += 1
            if target in nucleus.ns_addresses:
                if nucleus.config.ns_fault_patch:
                    # The patch (Sec. 6.3): layers below the NSP-Layer
                    # know nothing of the Name Server; only this handler
                    # can stop the recursion.  Retry through the
                    # well-known physical address instead of asking the
                    # naming service about itself.
                    nucleus.counters[NS_FAULT_PATCH_HITS] += 1
                    self._ns_fault_streak += 1
                    if self._ns_fault_streak > NS_FAULT_RETRY_LIMIT:
                        self._ns_fault_streak = 0
                        raise NameServerUnreachable(
                            "Name Server unreachable through its well-known address"
                        )
                    return target
                # Unpatched: fall through and ask the naming service —
                # which needs the very circuit that just broke.
            nsp = nucleus.require_nsp()
            # Cache-miss recovery (PROTOCOL.md §9): the faulted address
            # proves any cached resolution for it is stale; evict before
            # re-resolving so the answer comes from the naming service.
            nsp.evict_address(target)
            try:
                forward = nsp.lookup_forwarding(target)
            except NoForwardingAddress:
                raise DestinationUnavailable(
                    f"{target} is gone and no replacement module was located"
                )
            except ModuleStillAlive:
                # "It will attempt to reestablish what appears to be a
                # broken communication link."
                nucleus.counters[LCM_RECONNECT_ATTEMPTS] += 1
                return target
            self.forwarding[target] = forward
            nucleus.counters[LCM_RELOCATIONS_FOLLOWED] += 1
            return self._follow_forwarding(target)

    # -- upcalls from the IP-Layer ---------------------------------------------

    def _on_deliver(self, ivc: Ivc, msg: m.Msg) -> None:
        nucleus = self.nucleus
        if msg.kind != m.DATA:
            nucleus.counters[LCM_UNEXPECTED_KINDS] += 1
            return
        # A TAdd source is only unique to its assigner: key local tables
        # by the alias the ND/IP layer assigned to this circuit.
        effective_src = msg.src
        if msg.src.temporary and ivc.peer_addr is not None:
            effective_src = ivc.peer_addr
        if effective_src is not None:
            self._routes[effective_src] = ivc
        # Flow accounting (PROTOCOL.md §12): each disposal point below
        # reports to the IP-Layer, which owns the credit ledger.
        try:
            entry = nucleus.registry.get(msg.type_id)
            values = decode_body(
                nucleus.registry, msg.type_id, msg.mode, msg.body,
                nucleus.mtype, entry=entry,
            )
        except Exception as exc:  # malformed bodies must not kill the pump
            nucleus.counters[LCM_UNDECODABLE_MESSAGES] += 1
            nucleus.log_error(f"undecodable message from {msg.src}: {exc}")
            self.ip.note_discarded(ivc, msg)
            return
        incoming = IncomingMessage(
            src=effective_src,
            type_id=msg.type_id,
            type_name=entry.sdef.name,
            values=values,
            corr_id=msg.corr_id,
            reply_expected=msg.reply_expected,
            internal=msg.internal,
            connectionless=msg.connectionless,
            arrived_at=nucleus.scheduler.now,
            mode=msg.mode,
        )
        if nucleus.monitoring_active:
            nucleus.emit_monitor({
                "event": "recv", "peer": str(effective_src),
                "type": entry.sdef.name, "t": nucleus.timestamp(),
            })
        if msg.is_reply:
            pending = self._pending.get(msg.corr_id)
            if pending is not None:
                pending.reply = incoming
                pending.done = True
            else:
                nucleus.counters[LCM_ORPHAN_REPLIES] += 1
            return
        if (msg.reply_expected and msg.corr_id > 0
                and not msg.connectionless and not msg.internal
                and effective_src is not None):
            # Duplicate suppression (PROTOCOL.md §10): a repair-round
            # retry may redeliver a request whose original arrived just
            # before the circuit died.  Accept each (src, corr_id) once;
            # replay the cached reply when one was already produced.
            # Internal (naming/forwarding) traffic is exempt: those
            # requests are idempotent at the server, and a multi-homed
            # gateway runs one nucleus per attached network — several
            # independent corr_id streams behind one registered address
            # — so (src, corr_id) is only a sound key for application
            # requests, where one module is one nucleus.
            key = (effective_src, msg.corr_id)
            if key in self._served:
                nucleus.counters[LCM_DUPLICATES_SUPPRESSED] += 1
                # Reported before the cached replay, so the reply
                # piggybacks the up-to-date advertisement.
                self.ip.note_discarded(ivc, msg)
                cached = self._served[key]
                if cached is not None:
                    r_type, r_values, r_flags = cached
                    self.send(effective_src, r_type, r_values,
                              flags=r_flags | m.FLAG_IS_REPLY,
                              corr_id=msg.corr_id)
                return
            served = self._served
            served[key] = None
            while len(served) > self.SERVED_LIMIT:
                del served[next(iter(served))]
        with nucleus.enter(self.LAYER, "deliver", caller="IP",
                           reason=entry.sdef.name):
            if self._handler is not None:
                self.ip.note_handling(ivc, msg)
                try:
                    self._handler(incoming)
                finally:
                    self.ip.note_handled(ivc, msg)
            else:
                # The IP-Layer may drop a connectionless arrival under
                # overload rather than queue it.
                keep, incoming.ivc = self.ip.note_queued(ivc, msg)
                if keep:
                    self._queue.append(incoming)

    def _on_fault(self, ivc: Ivc, reason: str) -> None:
        self.nucleus.counters[LCM_CIRCUIT_FAULTS] += 1
        dead = [addr for addr, route in self._routes.items() if route is ivc]
        for addr in dead:
            del self._routes[addr]
        self._mark_faulted(dead)
        for pending in self._pending.values():
            if pending.done:
                continue
            try:
                target = self._follow_forwarding(pending.dst)
            except DestinationUnavailable:
                target = pending.dst
            if pending.dst in dead or target in dead:
                pending.error = f"connection lost: {reason}"
                pending.done = True

    # -- TAdd purge plumbing ---------------------------------------------------

    def rekey_route(self, old: Address, new: Address) -> None:
        """Replace a TAdd table key with the real UAdd (Sec. 3.4)."""
        ivc = self._routes.pop(old, None)
        if ivc is not None:
            self._routes[new] = ivc
        if old in self._faulted_targets:
            del self._faulted_targets[old]
            self._faulted_targets[new] = None
        if old in self.forwarding:
            self.forwarding[new] = self.forwarding.pop(old)
        for key in [k for k in self._served if k[0] == old]:
            self._served[new, key[1]] = self._served.pop(key)

    # -- introspection ----------------------------------------------------

    def queued(self) -> int:
        """Number of messages waiting in the receive queue.

        The queue itself is unbounded in memory; what bounds it is flow
        control (PROTOCOL.md §12): once the depth attributed to a
        circuit's LVC passes the window, the sender runs out of credit
        and stalls (or drops, for connectionless traffic) until this
        side consumes.  With ``flow_control_enabled=False`` a slow
        receiver buffers without limit."""
        return len(self._queue)

    def temporary_route_keys(self) -> int:
        """Number of routes still keyed by TAdds (E3's metric)."""
        return sum(1 for addr in self._routes if addr.temporary)
