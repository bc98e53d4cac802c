"""URSA wire structures (application type ids 64–79).

Posting lists and document ids travel as comma-separated decimal ASCII
in ``bytes`` tail fields — squarely inside the paper's character
transport format, and safely convertible in both image and packed
modes.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.conversion import ConversionRegistry, Field, StructDef

T_INDEX_LOOKUP = 64
T_INDEX_POSTING = 65
T_SEARCH_QUERY = 66
T_SEARCH_RESULT = 67
T_DOC_FETCH = 68
T_DOC_TEXT = 69
T_DOC_INGEST = 72
T_INGEST_ACK = 73
T_INDEX_ADD = 74
T_INDEX_LOOKUP_TF = 75
T_INDEX_POSTING_TF = 76
T_SEARCH_RANKED = 77
T_RANKED_RESULT = 78

_STRUCTS = [
    StructDef("index_lookup", T_INDEX_LOOKUP, [
        Field("term", "char[32]"),
    ]),
    StructDef("index_posting", T_INDEX_POSTING, [
        Field("term", "char[32]"),
        Field("count", "u32"),
        Field("postings", "bytes"),
    ]),
    StructDef("search_query", T_SEARCH_QUERY, [
        Field("query", "char[96]"),
    ]),
    StructDef("search_result", T_SEARCH_RESULT, [
        Field("count", "u32"),
        Field("doc_ids", "bytes"),
    ]),
    StructDef("doc_fetch", T_DOC_FETCH, [
        Field("doc_id", "u32"),
    ]),
    StructDef("doc_text", T_DOC_TEXT, [
        Field("doc_id", "u32"),
        Field("found", "u8"),
        Field("text", "bytes"),
    ]),
    # The ingest path: new documents arrive while the system runs.
    StructDef("doc_ingest", T_DOC_INGEST, [
        Field("doc_id", "u32"),
        Field("text", "bytes"),
    ]),
    StructDef("ingest_ack", T_INGEST_ACK, [
        Field("doc_id", "u32"),
        Field("ok", "u8"),
        Field("detail", "char[64]"),
    ]),
    StructDef("index_add", T_INDEX_ADD, [
        Field("doc_id", "u32"),
        Field("terms", "bytes"),       # comma-separated terms
    ]),
    # Ranked retrieval: term-frequency postings and scored results.
    StructDef("index_lookup_tf", T_INDEX_LOOKUP_TF, [
        Field("term", "char[32]"),
    ]),
    StructDef("index_posting_tf", T_INDEX_POSTING_TF, [
        Field("term", "char[32]"),
        Field("count", "u32"),
        Field("postings", "bytes"),    # "doc:tf,doc:tf"
    ]),
    StructDef("search_ranked", T_SEARCH_RANKED, [
        Field("query", "char[96]"),
        Field("limit", "u16"),
    ]),
    StructDef("ranked_result", T_RANKED_RESULT, [
        Field("count", "u32"),
        Field("scored", "bytes"),      # "doc:score,doc:score"
    ]),
]


def register_ursa_types(registry: ConversionRegistry) -> None:
    """Install the URSA wire structures into a registry."""
    for sdef in _STRUCTS:
        registry.register(sdef)


def encode_ids(ids: Iterable[int]) -> bytes:
    """Document ids as comma-separated decimal ASCII."""
    return ",".join(str(i) for i in ids).encode("ascii")


def decode_ids(data: bytes) -> List[int]:
    """Parse comma-separated decimal document ids."""
    text = data.decode("ascii")
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def encode_scored(pairs: Iterable[tuple]) -> bytes:
    """[(doc_id, score)] → "doc:score,doc:score" (scores as repr)."""
    return ",".join(f"{doc}:{score!r}" for doc, score in pairs).encode("ascii")


def decode_scored(data: bytes) -> List[tuple]:
    """Parse 'doc:score' pairs back into (int, float) tuples."""
    text = data.decode("ascii")
    if not text:
        return []
    out = []
    for part in text.split(","):
        doc, _, score = part.partition(":")
        out.append((int(doc), float(score)))
    return out
