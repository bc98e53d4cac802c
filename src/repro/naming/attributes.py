"""Attribute-value naming (paper Sec. 7).

"Both the naming scheme and the naming service implementation are
currently being replaced ... The former will be attribute-value based".

The base database already stores free-form attribute dicts and answers
exact-match queries.  This module adds the richer matching an
attribute-value scheme needs:

* predicates: ``=`` (exact), ``!=``, ``<``/``<=``/``>``/``>=``
  (numeric), ``~`` (substring), ``*`` (present),
* scored *similarity* between attribute sets, used by
  :class:`AttributeNameDatabase` to find "a similar name in a newer
  module" (Sec. 3.5) when exact names differ — the paper notes that
  with attribute naming, forwarding "is more involved".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import (
    ModuleStillAlive,
    NoForwardingAddress,
    ProtocolError,
)
from repro.naming.database import NameDatabase
from repro.naming.protocol import NameRecord

_OPS = ("<=", ">=", "!=", "=", "<", ">", "~", "*")


@dataclass(frozen=True)
class Predicate:
    """One attribute predicate, e.g. ``shard<=3`` or ``kind=index``."""

    key: str
    op: str
    value: str = ""

    def matches(self, attrs: Dict[str, str]) -> bool:
        """True when this predicate holds over an attribute dict."""
        present = self.key in attrs
        if self.op == "*":
            return present
        if not present:
            return False
        actual = attrs[self.key]
        if self.op == "=":
            return actual == self.value
        if self.op == "!=":
            return actual != self.value
        if self.op == "~":
            return self.value in actual
        try:
            left, right = float(actual), float(self.value)
        except ValueError:
            return False
        if self.op == "<":
            return left < right
        if self.op == "<=":
            return left <= right
        if self.op == ">":
            return left > right
        return left >= right  # ">="

    def encode(self) -> str:
        """The predicate's wire form, e.g. 'shard<=3'."""
        return f"{self.key}{self.op}{self.value}"

    @classmethod
    def parse(cls, text: str) -> "Predicate":
        for op in _OPS:
            idx = text.find(op)
            if idx > 0:
                key = text[:idx]
                value = text[idx + len(op):]
                if op == "*" and value:
                    raise ProtocolError(f"presence predicate takes no value: {text!r}")
                return cls(key=key, op=op, value=value)
        raise ProtocolError(f"unparsable predicate {text!r}")


def parse_query(text: str) -> List[Predicate]:
    """Parse a ';'-separated predicate list ("kind=index;shard<=3")."""
    if not text:
        return []
    return [Predicate.parse(part) for part in text.split(";") if part]


def match_all(predicates: List[Predicate], attrs: Dict[str, str]) -> bool:
    """True when every predicate holds over the attribute dict."""
    return all(p.matches(attrs) for p in predicates)


def similarity(a: Dict[str, str], b: Dict[str, str]) -> float:
    """Jaccard-style similarity over attribute *pairs*: 1.0 for
    identical sets, 0.0 for disjoint."""
    pairs_a = set(a.items())
    pairs_b = set(b.items())
    if not pairs_a and not pairs_b:
        return 1.0
    union = pairs_a | pairs_b
    return len(pairs_a & pairs_b) / len(union)


class AttributeNameDatabase(NameDatabase):
    """A NameDatabase whose queries take predicates and whose
    forwarding falls back to attribute similarity.

    Drop-in for :class:`NameDatabase` (pass as ``db=`` to
    :class:`~repro.naming.server.NameServer`): the wire protocol is
    unchanged — predicate strings ride in the existing query field.
    """

    SIMILARITY_THRESHOLD = 0.5

    def query_attrs(self, required: Dict[str, str]) -> List[NameRecord]:
        """Exact-match dict queries still work; string values that look
        like predicates ("<=3") are honoured via the predicate engine
        when queried through :meth:`query_predicates`."""
        return super().query_attrs(required)

    def query_predicates(self, predicates: List[Predicate]) -> List[NameRecord]:
        """All alive records satisfying every predicate."""
        return [
            record for record in self.all_records()
            if record.alive and match_all(predicates, record.attrs)
        ]

    def lookup_forwarding(self, old_uadd) -> NameRecord:
        """Name-based forwarding first; attribute-similarity fallback
        when no same-name replacement exists."""
        record = self.resolve_uadd(old_uadd)
        if self.is_active(record):
            raise ModuleStillAlive(f"{old_uadd} ({record.name!r}) is still active")
        try:
            return super().lookup_forwarding(old_uadd)
        except NoForwardingAddress:
            return self._most_similar(record)

    def _most_similar(self, record: NameRecord) -> NameRecord:
        """The active record whose attributes best match ``record``'s
        (newest wins a tie); NoForwardingAddress below the threshold."""
        best: Optional[NameRecord] = None
        best_score = self.SIMILARITY_THRESHOLD
        for candidate in self.all_records():
            if not candidate.alive or candidate.uadd == record.uadd:
                continue
            if not self.is_active(candidate):
                continue
            score = similarity(record.attrs, candidate.attrs)
            if score > best_score or (best is not None and score == best_score):
                if best is None or score > best_score or \
                        candidate.registered_at > best.registered_at:
                    best = candidate
                    best_score = max(best_score, score)
        if best is None:
            raise NoForwardingAddress(
                f"no same-name or attribute-similar replacement for {record.uadd}"
            )
        return best
