"""The URSA host frontend: what a user workstation runs.

Resolves the backend services once (logical names → UAdds, Sec. 3.3's
"an application module need only obtain an address once"), then issues
search and retrieval calls; relocation of any backend is invisible
here."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.commod import Address, ComMod
from repro.ursa.protocol import decode_ids, decode_scored


class UrsaHost:
    """A user session against the URSA backends."""

    def __init__(self, commod: ComMod, name: str = "ursa.host",
                 search_name: str = "ursa.search",
                 docs_name: str = "ursa.docs"):
        self.commod = commod
        self.name = name
        self.search_name = search_name
        self.docs_name = docs_name
        self._search_uadd: Optional[Address] = None
        self._docs_uadd: Optional[Address] = None
        self.searches = 0
        commod.ali.register(name, attrs={"kind": "host"})

    # -- resource location, once ----------------------------------------------

    @property
    def search_uadd(self) -> Address:
        if self._search_uadd is None:
            self._search_uadd = self.commod.ali.locate(self.search_name)
        return self._search_uadd

    @property
    def docs_uadd(self) -> Address:
        if self._docs_uadd is None:
            self._docs_uadd = self.commod.ali.locate(self.docs_name)
        return self._docs_uadd

    # -- the user-facing operations ----------------------------------------------

    def search(self, query: str) -> List[int]:
        """Evaluate a boolean query; returns matching document ids."""
        self.searches += 1
        reply = self.commod.ali.call(self.search_uadd, "search_query",
                                     {"query": query})
        return decode_ids(reply.values["doc_ids"])

    def search_ranked(self, terms: str, limit: int = 10) -> List[Tuple[int, float]]:
        """TF-IDF ranked retrieval over a bag of terms (whitespace
        separated); returns [(doc_id, score)] best-first."""
        self.searches += 1
        reply = self.commod.ali.call(self.search_uadd, "search_ranked",
                                     {"query": terms, "limit": limit})
        return decode_scored(reply.values["scored"])

    def fetch(self, doc_id: int) -> Optional[str]:
        """Retrieve one document's text (None if unknown)."""
        reply = self.commod.ali.call(self.docs_uadd, "doc_fetch",
                                     {"doc_id": doc_id})
        if not reply.values["found"]:
            return None
        return reply.values["text"].decode("ascii")

    def search_and_fetch(self, query: str,
                         limit: int = 5) -> List[Tuple[int, str]]:
        """Search, then retrieve the first ``limit`` hits."""
        hits = self.search(query)[:limit]
        return [(doc_id, self.fetch(doc_id) or "") for doc_id in hits]

    def ingest(self, doc_id: int, text: str) -> bool:
        """Add a new document to the running system.  The document
        server stores it and pushes the index update to the owning
        shard; the document is immediately searchable.  Returns False
        when refused (duplicate id, no shard, ...)."""
        reply = self.commod.ali.call(self.docs_uadd, "doc_ingest", {
            "doc_id": doc_id,
            "text": text.encode("ascii"),
        })
        return bool(reply.values["ok"])
