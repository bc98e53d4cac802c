"""Central error logging (paper Sec. 1.1 lists error logging among the
DRTS services the NTCS itself uses).

Sec. 6.3 motivates it: "one negative side effect of recovering from
these conditions is that the better the system is at it, the less one
may know about how it is actually running. ... a running table of
errors could be maintained and monitored."  The collector is that
table; clients ship each locally logged error, best-effort and with
services suppressed (an error in error reporting must not recurse).
"""

from __future__ import annotations

from typing import List, Optional

from repro.commod import Address, ComMod, IncomingMessage
from repro.errors import NtcsError

ERRLOG_NAME = "drts.errorlog"


class ErrorLogServer:
    """The running table of errors, one entry per reported condition."""

    def __init__(self, commod: ComMod, name: str = ERRLOG_NAME):
        self.commod = commod
        self.name = name
        self.entries: List[dict] = []
        commod.ali.register(name, attrs={"kind": "errorlog"})
        commod.ali.set_request_handler(self._on_report)

    def _on_report(self, message: IncomingMessage) -> None:
        if message.type_name != "errlog_report":
            return
        self.entries.append({
            "module": message.values["module"],
            "text": message.values["text"].decode("ascii", errors="replace"),
            "at": message.arrived_at,
        })


class ErrorLogClient:
    """Per-module shipper, installed as ``nucleus.error_client``."""

    def __init__(self, nucleus, errlog_name: str = ERRLOG_NAME):
        self.nucleus = nucleus
        self.errlog_name = errlog_name
        self._errlog_uadd: Optional[Address] = None
        self._reporting = False
        self.shipped = 0
        self.dropped = 0

    def ship(self, text: str) -> None:
        """Send one error text to the central table, best effort."""
        if self._reporting:
            return  # never recurse through our own failures
        nucleus = self.nucleus
        self._reporting = True
        try:
            with nucleus.suppress_services():
                try:
                    if self._errlog_uadd is None:
                        self._errlog_uadd = nucleus.require_nsp().resolve_name(
                            self.errlog_name
                        )
                    ok = nucleus.lcm.datagram(self._errlog_uadd, "errlog_report", {
                        "module": nucleus.process.name,
                        "text": text.encode("ascii", errors="replace"),
                    })
                except NtcsError:
                    ok = False
                    self._errlog_uadd = None
            if ok:
                self.shipped += 1
            else:
                self.dropped += 1
        finally:
            self._reporting = False


def enable_error_logging(commod: ComMod, errlog_name: str = ERRLOG_NAME) -> ErrorLogClient:
    """Hook a module's Nucleus error log up to the central table."""
    client = ErrorLogClient(commod.nucleus, errlog_name)
    commod.nucleus.error_client = client.ship
    return client
