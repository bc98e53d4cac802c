"""The search backend: boolean query evaluation over the index shards.

Queries are boolean expressions over terms::

    query  := or_expr
    or_expr  := and_expr ("OR" and_expr)*
    and_expr := not_expr ("AND" not_expr)*
    not_expr := "NOT" not_expr | term | "(" or_expr ")"

Term postings are fetched from the index servers over the NTCS — each
user query fans out into server-to-server calls *from inside the search
server's request handler*, which is precisely the nested blocking shape
that forces the Nucleus to pump reentrantly (paper Sec. 6).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.commod import Address, ComMod, IncomingMessage
from repro.errors import NtcsError
from repro.ursa.protocol import decode_ids, encode_ids, encode_scored


class QueryError(NtcsError):
    """A malformed boolean query."""


class _Parser:
    def __init__(self, text: str):
        self.tokens = text.replace("(", " ( ").replace(")", " ) ").split()
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of query")
        self.pos += 1
        return token

    def parse(self):
        node = self.or_expr()
        if self.peek() is not None:
            raise QueryError(f"trailing tokens at {self.peek()!r}")
        return node

    def or_expr(self):
        node = self.and_expr()
        while self.peek() == "OR":
            self.take()
            node = ("or", node, self.and_expr())
        return node

    def and_expr(self):
        node = self.not_expr()
        while self.peek() == "AND":
            self.take()
            node = ("and", node, self.not_expr())
        return node

    def not_expr(self):
        token = self.peek()
        if token == "NOT":
            self.take()
            return ("not", self.not_expr())
        if token == "(":
            self.take()
            node = self.or_expr()
            if self.take() != ")":
                raise QueryError("missing closing parenthesis")
            return node
        if token is None or token in ("AND", "OR", ")"):
            raise QueryError(f"expected a term, found {token!r}")
        return ("term", self.take().lower())


def parse_query(text: str):
    """Parse a boolean query into an AST (exported for testing)."""
    if not text.strip():
        raise QueryError("empty query")
    return _Parser(text).parse()


class SearchServer:
    """A search module evaluating boolean queries against the shards."""

    def __init__(self, commod: ComMod, name: str = "ursa.search",
                 universe_size: int = 0):
        self.commod = commod
        self.name = name
        # NOT needs a universe; the deployment tells us how many docs exist.
        self.universe_size = universe_size
        self._index_uadds: List[Address] = []
        self.index_calls = 0
        commod.ali.register(name, attrs={"kind": "search"})
        commod.ali.set_request_handler(self._on_request)

    # -- shard discovery (attribute-based resource location) -----------------------

    def _shards(self) -> List[Address]:
        if not self._index_uadds:
            records = self.commod.ali.locate_by_attrs({"kind": "index"})
            if not records:
                raise QueryError("no index servers registered")
            self._index_uadds = [r.uadd for r in
                                 sorted(records, key=lambda r: r.name)]
        return self._index_uadds

    # -- evaluation -----------------------------------------------------------

    def _postings(self, term: str) -> Set[int]:
        result: Set[int] = set()
        for uadd in self._shards():
            self.index_calls += 1
            reply = self.commod.ali.call(uadd, "index_lookup", {"term": term})
            result.update(decode_ids(reply.values["postings"]))
        return result

    def _universe(self) -> Set[int]:
        return set(range(1, self.universe_size + 1))

    def _evaluate(self, node) -> Set[int]:
        op = node[0]
        if op == "term":
            return self._postings(node[1])
        if op == "and":
            return self._evaluate(node[1]) & self._evaluate(node[2])
        if op == "or":
            return self._evaluate(node[1]) | self._evaluate(node[2])
        if op == "not":
            return self._universe() - self._evaluate(node[1])
        raise QueryError(f"unknown node {op!r}")

    def evaluate(self, text: str) -> List[int]:
        """Evaluate a query locally (also the handler's core)."""
        return sorted(self._evaluate(parse_query(text)))

    # -- ranked retrieval (TF-IDF over a bag of terms) --------------------------

    def _tf_postings(self, term: str) -> Dict[int, int]:
        merged: Dict[int, int] = {}
        for uadd in self._shards():
            self.index_calls += 1
            reply = self.commod.ali.call(uadd, "index_lookup_tf",
                                         {"term": term})
            text = reply.values["postings"].decode("ascii")
            for part in text.split(","):
                if not part:
                    continue
                doc, _, count = part.partition(":")
                merged[int(doc)] = int(count)
        return merged

    def ranked(self, terms: List[str], limit: int = 10) -> List[Tuple[int, float]]:
        """TF-IDF ranking of a bag of terms: score(doc) = Σ tf·idf,
        idf = ln(N / df).  Ties broken by doc id for determinism."""
        n_docs = max(1, self.universe_size)
        scores: Dict[int, float] = {}
        for term in terms:
            tf_map = self._tf_postings(term.lower())
            if not tf_map:
                continue
            idf = math.log(n_docs / len(tf_map))
            for doc, tf in tf_map.items():
                scores[doc] = scores.get(doc, 0.0) + tf * idf
        ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ordered[:limit]

    # -- the NTCS-facing handler --------------------------------------------------

    def _on_request(self, request: IncomingMessage) -> None:
        if request.type_name == "search_query" and request.reply_expected:
            try:
                doc_ids = self.evaluate(request.values["query"])
            except (QueryError, NtcsError):
                doc_ids = []
            self.commod.ali.reply(request, "search_result", {
                "count": len(doc_ids),
                "doc_ids": encode_ids(doc_ids),
            })
        elif request.type_name == "search_ranked" and request.reply_expected:
            terms = request.values["query"].split()
            try:
                scored = self.ranked(terms, limit=request.values["limit"])
            except NtcsError:
                scored = []
            self.commod.ali.reply(request, "ranked_result", {
                "count": len(scored),
                "scored": encode_scored(scored),
            })
