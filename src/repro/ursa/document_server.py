"""The document-retrieval backend: doc id → full text, plus ingest.

Beyond serving the initial corpus, the server accepts ``doc_ingest``
requests at runtime: it stores the text and pushes an ``index_add``
update to the index shard that owns the document — live index
maintenance over the NTCS, nested inside request handling."""

from __future__ import annotations

from typing import Dict, Optional

from repro.commod import Address, ComMod, IncomingMessage
from repro.errors import NtcsError
from repro.ursa.corpus import Corpus


class DocumentServer:
    """Serves (and accepts) document text."""

    def __init__(self, commod: ComMod, corpus: Corpus,
                 name: str = "ursa.docs"):
        self.commod = commod
        self.corpus = corpus
        self.name = name
        self.ingests = 0
        self._store: Dict[int, str] = {d: corpus.text(d)
                                       for d in corpus.doc_ids()}
        commod.ali.register(name, attrs={"kind": "docs"})
        commod.ali.set_request_handler(self._on_request)

    # -- storage ------------------------------------------------------------

    def text(self, doc_id: int) -> Optional[str]:
        """The stored text of a document, or None."""
        return self._store.get(doc_id)

    def __len__(self) -> int:
        return len(self._store)

    # -- shard discovery for ingest -----------------------------------------------

    def _shard_for(self, doc_id: int) -> Optional[Address]:
        records = self.commod.ali.locate_by_attrs({"kind": "index"})
        if not records:
            return None
        n_shards = max(int(r.attrs.get("shards", "1")) for r in records)
        shard = doc_id % n_shards
        for record in records:
            if int(record.attrs.get("shard", "-1")) == shard:
                return record.uadd
        return None

    # -- handlers ----------------------------------------------------------------

    def _on_request(self, request: IncomingMessage) -> None:
        if request.type_name == "doc_fetch" and request.reply_expected:
            self._handle_fetch(request)
        elif request.type_name == "doc_ingest" and request.reply_expected:
            self._handle_ingest(request)

    def _handle_fetch(self, request: IncomingMessage) -> None:
        doc_id = request.values["doc_id"]
        text = self._store.get(doc_id)
        self.commod.ali.reply(request, "doc_text", {
            "doc_id": doc_id,
            "found": 0 if text is None else 1,
            "text": b"" if text is None else text.encode("ascii"),
        })

    def _handle_ingest(self, request: IncomingMessage) -> None:
        doc_id = request.values["doc_id"]
        if doc_id in self._store:
            self.commod.ali.reply(request, "ingest_ack", {
                "doc_id": doc_id, "ok": 0, "detail": "duplicate doc id",
            })
            return
        text = request.values["text"].decode("ascii", errors="replace")
        counts: Dict[str, int] = {}
        for token in Corpus.tokenize(text):
            counts[token] = counts.get(token, 0) + 1
        terms = [f"{term}:{count}" for term, count in sorted(counts.items())]
        shard_uadd = self._shard_for(doc_id)
        if shard_uadd is None:
            self.commod.ali.reply(request, "ingest_ack", {
                "doc_id": doc_id, "ok": 0, "detail": "no index shard found",
            })
            return
        try:
            # Index update over the NTCS, from inside this handler —
            # the nested server-to-server shape again.
            self.commod.ali.call(shard_uadd, "index_add", {
                "doc_id": doc_id,
                "terms": ",".join(terms).encode("ascii"),
            })
        except NtcsError as exc:
            self.commod.ali.reply(request, "ingest_ack", {
                "doc_id": doc_id, "ok": 0, "detail": str(exc)[:60],
            })
            return
        self._store[doc_id] = text
        self.ingests += 1
        self.commod.ali.reply(request, "ingest_ack", {
            "doc_id": doc_id, "ok": 1, "detail": "",
        })
