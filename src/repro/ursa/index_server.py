"""The inverted-index lookup backend.

One instance serves one shard of the corpus (documents whose id modulo
``n_shards`` equals ``shard``), registering with shard attributes so
search servers can locate the full shard set through attribute-based
resource location.
"""

from __future__ import annotations

from typing import Dict, List

from repro.commod import ComMod, IncomingMessage
from repro.ursa.corpus import Corpus
from repro.ursa.protocol import encode_ids


class IndexServer:
    """An index-lookup module over one corpus shard."""

    def __init__(self, commod: ComMod, corpus: Corpus, shard: int = 0,
                 n_shards: int = 1, name: str = None):
        self.commod = commod
        self.shard = shard
        self.n_shards = n_shards
        self.name = name or f"ursa.index.{shard}"
        shard_docs = [d for d in corpus.doc_ids() if d % n_shards == shard]
        self.index: Dict[str, List[int]] = corpus.build_inverted_index(shard_docs)
        # Term frequencies for ranked retrieval.
        self.tf: Dict[str, Dict[int, int]] = corpus.build_tf_index(shard_docs)
        self.requests = 0
        commod.ali.register(self.name, attrs={
            "kind": "index",
            "shard": str(shard),
            "shards": str(n_shards),
        })
        commod.ali.set_request_handler(self._on_request)

    def _on_request(self, request: IncomingMessage) -> None:
        if request.type_name == "index_lookup" and request.reply_expected:
            self.requests += 1
            postings = self.index.get(request.values["term"].lower(), [])
            self.commod.ali.reply(request, "index_posting", {
                "term": request.values["term"],
                "count": len(postings),
                "postings": encode_ids(postings),
            })
        elif request.type_name == "index_lookup_tf" and request.reply_expected:
            self.requests += 1
            term = request.values["term"].lower()
            tf_map = self.tf.get(term, {})
            pairs = ",".join(f"{doc}:{count}"
                             for doc, count in sorted(tf_map.items()))
            self.commod.ali.reply(request, "index_posting_tf", {
                "term": request.values["term"],
                "count": len(tf_map),
                "postings": pairs.encode("ascii"),
            })
        elif request.type_name == "index_add":
            self._handle_index_add(request)

    def _handle_index_add(self, request: IncomingMessage) -> None:
        """Live index maintenance: add one document's terms."""
        doc_id = request.values["doc_id"]
        if doc_id % self.n_shards != self.shard:
            if request.reply_expected:
                self.commod.ali.reply(request, "index_posting", {
                    "term": "", "count": 0, "postings": b"",
                })
            return
        terms = request.values["terms"].decode("ascii")
        added = 0
        for entry in terms.split(","):
            if not entry:
                continue
            # "term" or "term:count" (the ingest path sends counts).
            term, _, count_text = entry.partition(":")
            count = int(count_text) if count_text else 1
            postings = self.index.setdefault(term, [])
            if doc_id not in postings:
                postings.append(doc_id)
                postings.sort()
                added += 1
            self.tf.setdefault(term, {})[doc_id] = count
        if request.reply_expected:
            self.commod.ali.reply(request, "index_posting", {
                "term": "", "count": added, "postings": b"",
            })

    def terms(self) -> List[str]:
        """Every indexed term on this shard, sorted."""
        return sorted(self.index)
