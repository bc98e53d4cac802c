"""The distributed network monitor (paper Secs. 1.3, 6.1, ref [27]).

A collector module receives per-send/per-receive event records from
every instrumented module's LCM-Layer, shipped over the NTCS's own
connectionless protocol.  "Since the NTCS itself utilizes [monitoring],
recursive operation ... is observed": reporting an event is itself a
send, so the client wraps its traffic in
:meth:`Nucleus.suppress_services` — the paper's "time correction and
monitoring are disabled here, to avoid the obvious infinite recursion".
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.commod import Address, ComMod, IncomingMessage
from repro.errors import NtcsError

MONITOR_NAME = "drts.monitor"


class Monitor:
    """The collector: an ordinary application module."""

    def __init__(self, commod: ComMod, name: str = MONITOR_NAME):
        self.commod = commod
        self.name = name
        self.events: List[dict] = []
        commod.ali.register(name, attrs={"kind": "monitor"})
        commod.ali.set_request_handler(self._on_event)

    def _on_event(self, message: IncomingMessage) -> None:
        if message.type_name != "monitor_event":
            return
        self.events.append(dict(message.values))

    # -- analysis helpers used by the benches -------------------------------------

    def events_for(self, module_name: str) -> List[dict]:
        """All events reported by one module."""
        return [e for e in self.events if e["module"] == module_name]

    def count(self, event: Optional[str] = None) -> int:
        """Number of recorded events, optionally of one kind."""
        if event is None:
            return len(self.events)
        return sum(1 for e in self.events if e["event"] == event)

    def clear(self) -> None:
        """Discard all recorded events."""
        self.events.clear()

    # -- analysis (ref [27]: "Performance Monitoring and Projection") -----------

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-module event counts: {module: {event: count}}."""
        out: Dict[str, Dict[str, int]] = {}
        for event in self.events:
            per_module = out.setdefault(event["module"], {})
            per_module[event["event"]] = per_module.get(event["event"], 0) + 1
        return out



class MonitorClient:
    """The per-module reporting stub, installed as
    ``nucleus.monitor_client``."""

    def __init__(self, nucleus, monitor_name: str = MONITOR_NAME):
        self.nucleus = nucleus
        self.monitor_name = monitor_name
        self._monitor_uadd: Optional[Address] = None
        self.reported = 0
        self.dropped = 0

    def report(self, event: dict) -> None:
        """Ship one event record.  Locating the monitor and the send
        itself both recurse into the Nucleus — with further monitoring
        suppressed."""
        nucleus = self.nucleus
        with nucleus.suppress_services():
            with nucleus.enter("MON", "report", caller="LCM",
                               reason=event.get("event", "")):
                try:
                    if self._monitor_uadd is None:
                        self._monitor_uadd = nucleus.require_nsp().resolve_name(
                            self.monitor_name
                        )
                    ok = nucleus.lcm.datagram(self._monitor_uadd, "monitor_event", {
                        "module": nucleus.process.name,
                        "event": event.get("event", ""),
                        "peer": event.get("peer", ""),
                        "msg_type": event.get("type", ""),
                        "t": float(event.get("t", 0.0)),
                    })
                except NtcsError:
                    ok = False
                    self._monitor_uadd = None
                if ok:
                    self.reported += 1
                else:
                    self.dropped += 1


def enable_monitoring(commod: ComMod, monitor_name: str = MONITOR_NAME) -> MonitorClient:
    """Instrument one module: its LCM-Layer starts reporting."""
    client = MonitorClient(commod.nucleus, monitor_name)
    commod.nucleus.monitor_client = client
    commod.nucleus.config.monitor_enabled = True
    return client
