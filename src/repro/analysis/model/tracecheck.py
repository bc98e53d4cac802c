"""Replay netsim JSONL wire traces against the extracted wire model.

A trace is the output of :class:`repro.netsim.tracelog.NetTraceLog` —
one JSON object per transmitted datagram, carrying every raw byte blob
of the payload as hex.  The netsim records bytes without knowing what
they are; *this* module (analysis is harness-layer, so it may import
NTCS) reads each blob under its IPCS's framing (PROTOCOL.md §7: a
sim-TCP segment is a shift-mode length prefix plus one message, an MBX
record is the message alone), picks out the ones that carry NTCS magic,
reads their header words through
:class:`repro.ntcs.message.HeaderView`, and checks each frame's kind
against the ``WIRE_PROTOCOL`` declaration the extractor pulled from
:mod:`repro.ntcs.message`:

* per network and unordered host pair, handshake flags are monotonic:
  a kind *establishes* its flags when transmitted (transmit-side
  conformance — a dropped frame still proves the sender believed the
  handshake allowed it, which keeps replay robust under chaos drops
  and crash-restart re-handshakes);
* TRC001 (error) a frame whose kind *requires* a flag not yet
  established on that hop — a transition outside the model;
* TRC002 (error) a frame whose kind is not in the model at all, a
  trace line that cannot be parsed, or a trace that holds no NTCS frame
  at all (nothing was checked, so nothing may pass);
* TRC003 (error) a chained circuit's open broke the riding rule
  (PROTOCOL.md §3): on a hop, between an IVC_OPEN and its
  IVC_OPEN_ACK/NAK, the originator sent that destination more than
  ``OPEN_RIDERS`` distinct DATA frames, or one that is not a request;
  or a host that NAKed the open sent on a DATA that rode it before the
  next IVC_OPEN for that destination reached it.

Exit-code semantics are the CLI's: any finding fails the run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, SEVERITY_ERROR
from repro.analysis.model.ir import ProtocolModel, WireProtocol
from repro.conversion.shiftmode import shift_decode_u32s
from repro.ntcs.address import Address
from repro.ntcs.iplayer import OPEN_RIDERS
from repro.ntcs.message import (
    FLAG_CONNECTIONLESS, FLAG_REPLY_EXPECTED, HEADER_BYTES, HeaderView)
from repro.errors import NtcsError, ProtocolError

_HopKey = Tuple[str, FrozenSet[str]]


def _finding(rule: str, path: str, line: int, message: str) -> Finding:
    return Finding(rule=rule, severity=SEVERITY_ERROR,
                   path=path, line=line, message=message)


# Framing bytes each IPCS puts before one NTCS message (PROTOCOL.md
# §7); a protocol not named here carries the message alone.
_PREFIX_BYTES = {"tcp": 4}


def _ntcs_frame(blob: bytes, protocol: str) -> Optional[bytes]:
    """The NTCS frame a payload blob carries under ``protocol``'s
    framing, or None for transport noise (a blob that is not exactly
    one framed message with NTCS magic)."""
    prefix = _PREFIX_BYTES.get(protocol, 0)
    if prefix:
        if (len(blob) < prefix
                or shift_decode_u32s(blob, 1)[0] != len(blob) - prefix):
            return None
        blob = blob[prefix:]
    if len(blob) < HEADER_BYTES:
        return None
    try:
        HeaderView(blob)
    except ProtocolError:
        return None
    return blob


def replay_trace(path: str,
                 model: ProtocolModel) -> Tuple[List[Finding], int]:
    """Replay one JSONL trace file against the model's wire protocol;
    returns its findings and the number of NTCS frames it checked."""
    wire = model.primary_wire()
    if wire is None:
        return [_finding(
            "TRC002", path, 1,
            "no WIRE_PROTOCOL declaration was extracted from the tree — "
            "traces cannot be conformance-checked")], 0
    findings: List[Finding] = []
    checked = 0
    flags_by_hop: Dict[_HopKey, Set[str]] = {}
    riding = _RidingRule(wire)
    for lineno, raw in enumerate(
            Path(path).read_text().splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            event = json.loads(raw)
        except ValueError:
            findings.append(_finding(
                "TRC002", path, lineno, "unparseable trace line"))
            continue
        if event.get("op") != "frame":
            continue
        args = event.get("args", {})
        hop: _HopKey = (
            str(event.get("target", "")),
            frozenset((str(args.get("src", "")), str(args.get("dst", "")))),
        )
        flags = flags_by_hop.setdefault(hop, set())
        protocol = str(args.get("protocol", ""))
        for blob_hex in args.get("frames", ()):
            try:
                blob = bytes.fromhex(blob_hex)
            except ValueError:
                findings.append(_finding(
                    "TRC002", path, lineno, "frame hex is malformed"))
                continue
            frame = _ntcs_frame(blob, protocol)
            if frame is None:
                continue
            checked += 1
            findings.extend(
                _check_frame(wire, frame, flags, path, lineno, args))
            findings.extend(riding.check(
                str(event.get("target", "")), str(args.get("src", "")),
                str(args.get("dst", "")), frame, path, lineno))
    if not checked:
        findings.append(_finding(
            "TRC002", path, 1, "no NTCS frames to check"))
    return findings, checked


def _check_frame(wire: WireProtocol, blob: bytes, flags: Set[str],
                 path: str, lineno: int, args: dict) -> Iterable[Finding]:
    header = HeaderView(blob)
    name = wire.kind_names.get(header.kind)
    if name is None:
        yield _finding(
            "TRC002", path, lineno,
            f"frame kind {header.kind} ({args.get('src')} -> "
            f"{args.get('dst')}) is not in the wire model")
        return
    missing = sorted(set(wire.requires.get(name, ())) - flags)
    if missing:
        yield _finding(
            "TRC001", path, lineno,
            f"{name} frame ({args.get('src')} -> {args.get('dst')}) "
            f"sent before flag(s) {missing} were established on this "
            f"hop — a transition outside the extracted model")
    # Establish regardless of validity or drops: keep later findings
    # about *new* violations, not echoes of this one.
    flags.update(wire.establishes.get(name, ()))


class _RidingRule:
    """TRC003 state over one trace.  Headers carry end-to-end addresses,
    so a circuit's open is followed per network and direction by its
    originator's address: ``opening[(network, sender, receiver,
    originator)]`` holds the destination and the distinct DATA frames
    sent to it since the IVC_OPEN (a retransmitted segment is the same
    bytes).  An originator opens one circuit at a time, and whichever
    answer comes back ends it.  ``refused[(host, originator,
    destination)]`` holds the riders a host received before it NAKed."""

    def __init__(self, wire: WireProtocol):
        kinds = {name: kind for kind, name in wire.kind_names.items()}
        self._data = kinds.get("DATA")
        self._open = kinds.get("IVC_OPEN")
        self._answers = {kinds.get("IVC_OPEN_ACK"), kinds.get("IVC_OPEN_NAK")}
        self._nak = kinds.get("IVC_OPEN_NAK")
        self.opening: Dict[tuple, Tuple[Address, Set[bytes]]] = {}
        self.refused: Dict[tuple, Set[bytes]] = {}

    def check(self, network: str, sender: str, receiver: str, frame: bytes,
              path: str, lineno: int) -> Iterable[Finding]:
        header = HeaderView(frame)
        kind = header.kind
        try:
            src, dst = header.src, header.dst
        except NtcsError:
            return  # no circuit has a zero address
        if kind == self._open:
            key = (network, sender, receiver, src)
            pending = self.opening.get(key)
            if pending is None or pending[0] != dst:
                # A retried open to the same destination keeps its
                # riders: the retry's is the same bytes.
                self.opening[key] = (dst, set())
            self.refused.pop((receiver, src, dst), None)
        elif kind in self._answers:
            pending = self.opening.pop((network, receiver, sender, dst), None)
            if pending is not None and kind == self._nak:
                self.refused[(sender, dst, pending[0])] = pending[1]
        elif kind == self._data:
            if frame in self.refused.get((sender, src, dst), ()):
                yield _finding(
                    "TRC003", path, lineno,
                    f"{sender} sent on a DATA that rode an IVC_OPEN it "
                    f"refused ({sender} -> {receiver} on {network})")
            pending = self.opening.get((network, sender, receiver, src))
            if pending is None or pending[0] != dst or frame in pending[1]:
                return
            pending[1].add(frame)
            flags = header.flags
            if (len(pending[1]) > OPEN_RIDERS
                    or not flags & FLAG_REPLY_EXPECTED
                    or flags & FLAG_CONNECTIONLESS):
                yield _finding(
                    "TRC003", path, lineno,
                    f"DATA ({sender} -> {receiver} on {network}) sent on a "
                    f"circuit still opening: only {OPEN_RIDERS} request "
                    f"may ride an IVC_OPEN")
