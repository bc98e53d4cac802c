"""Tests for the URSA distributed information-retrieval application."""

import pytest

from deployments import single_net, two_nets
from repro import SUN3
from repro.drts.proctl import ProcessController
from repro.ntcs.nucleus import NucleusConfig
from repro.ursa import Corpus, deploy_ursa
from repro.ursa.protocol import decode_ids, encode_ids
from repro.ursa.search_server import QueryError, parse_query


# -- corpus ---------------------------------------------------------------

def test_corpus_is_deterministic():
    a = Corpus(n_docs=20, seed=3)
    b = Corpus(n_docs=20, seed=3)
    assert a.doc_ids() == b.doc_ids()
    assert all(a.text(d) == b.text(d) for d in a.doc_ids())
    c = Corpus(n_docs=20, seed=4)
    assert any(a.text(d) != c.text(d) for d in a.doc_ids())


def test_corpus_inverted_index():
    corpus = Corpus(n_docs=10, seed=1)
    index = corpus.build_inverted_index(corpus.doc_ids())
    term, postings = next(iter(sorted(index.items())))
    assert postings == sorted(set(postings))
    for doc_id in postings:
        assert term in corpus.tokenize(corpus.text(doc_id))


def test_corpus_common_terms_are_frequent():
    corpus = Corpus(n_docs=50, seed=2)
    common = corpus.common_terms(5)
    index = corpus.build_inverted_index(corpus.doc_ids())
    rare_lengths = sorted(len(p) for p in index.values())
    assert len(index[common[0]]) >= rare_lengths[len(rare_lengths) // 2]


def test_id_codec():
    assert decode_ids(encode_ids([1, 2, 30])) == [1, 2, 30]
    assert decode_ids(encode_ids([])) == []


# -- query parser ----------------------------------------------------------

def test_parse_simple_term():
    assert parse_query("dog") == ("term", "dog")


def test_parse_precedence():
    # NOT > AND > OR
    ast = parse_query("a OR b AND NOT c")
    assert ast == ("or", ("term", "a"),
                   ("and", ("term", "b"), ("not", ("term", "c"))))


def test_parse_parentheses():
    ast = parse_query("( a OR b ) AND c")
    assert ast == ("and", ("or", ("term", "a"), ("term", "b")), ("term", "c"))


@pytest.mark.parametrize("bad", ["", "AND", "a AND", "( a", "a )", "a b"])
def test_parse_errors(bad):
    with pytest.raises(QueryError):
        parse_query(bad)


# -- the distributed system -------------------------------------------------

@pytest.fixture
def system():
    bed = single_net()
    bed.machine("sun2", SUN3, networks=["ether0"])
    corpus = Corpus(n_docs=60, seed=11)
    ursa = deploy_ursa(
        bed, corpus,
        index_machines=["sun1", "sun2"],
        search_machine="sun1",
        docs_machine="sun2",
        host_machines=["vax1"],
    )
    return bed, ursa


def test_search_matches_local_truth(system):
    bed, ursa = system
    corpus = ursa.corpus
    term = corpus.common_terms(1)[0]
    host = ursa.hosts[0]
    hits = host.search(term)
    truth = corpus.build_inverted_index(corpus.doc_ids()).get(term, [])
    assert hits == truth
    assert hits  # a common term matches something


def test_boolean_queries_against_truth(system):
    bed, ursa = system
    corpus = ursa.corpus
    index = corpus.build_inverted_index(corpus.doc_ids())
    t1, t2 = corpus.common_terms(2)
    host = ursa.hosts[0]
    assert host.search(f"{t1} AND {t2}") == sorted(
        set(index.get(t1, [])) & set(index.get(t2, [])))
    assert host.search(f"{t1} OR {t2}") == sorted(
        set(index.get(t1, [])) | set(index.get(t2, [])))
    assert host.search(f"{t1} AND NOT {t2}") == sorted(
        set(index.get(t1, [])) - set(index.get(t2, [])))


def test_sharding_covers_whole_corpus(system):
    bed, ursa = system
    shard_sizes = [len(s.index) for s in ursa.index_servers]
    assert all(size > 0 for size in shard_sizes)
    # Each shard holds only its own documents.
    for server in ursa.index_servers:
        for postings in server.index.values():
            assert all(d % 2 == server.shard for d in postings)


def test_fetch_documents(system):
    bed, ursa = system
    host = ursa.hosts[0]
    term = ursa.corpus.common_terms(1)[0]
    results = host.search_and_fetch(term, limit=3)
    assert results
    for doc_id, text in results:
        assert text == ursa.corpus.text(doc_id)
        assert term in ursa.corpus.tokenize(text)
    assert host.fetch(99999) is None


def test_unknown_term_returns_empty(system):
    bed, ursa = system
    assert ursa.hosts[0].search("zzzzunknown") == []


def test_search_fans_out_to_all_shards(system):
    bed, ursa = system
    host = ursa.hosts[0]
    host.search(ursa.corpus.common_terms(1)[0])
    assert all(s.requests >= 1 for s in ursa.index_servers)


def test_ursa_across_networks():
    """The system distributed across the ethernet and the Apollo ring —
    index lookups cross the gateway inside search handling."""
    bed = two_nets()
    corpus = Corpus(n_docs=40, seed=5)
    ursa = deploy_ursa(
        bed, corpus,
        index_machines=["apollo1", "apollo2"],
        search_machine="sun1",
        docs_machine="apollo1",
        host_machines=["vax1"],
    )
    host = ursa.hosts[0]
    term = corpus.common_terms(1)[0]
    truth = corpus.build_inverted_index(corpus.doc_ids()).get(term, [])
    assert host.search(term) == truth
    assert bed.scheduler.max_pump_depth_seen >= 2  # nested blocking


def test_cold_start_name_server_requests_exact():
    """Three hosts each search and fetch once on a fresh deployment:
    the Name-Server requests that costs besides registration — one
    round trip per locate with the NSP cache off (the locate brings the
    location with it, PROTOCOL.md §5), batched prefetch plus cache hits
    with it on (PROTOCOL.md §9)."""
    def cold_start(cache_enabled):
        bed = single_net(NucleusConfig(nsp_cache_enabled=cache_enabled))
        bed.machine("sun2", SUN3, networks=["ether0"])
        corpus = Corpus(n_docs=30, seed=7)
        term = corpus.common_terms(1)[0]
        ursa = deploy_ursa(bed, corpus, index_machines=["sun1", "sun2"],
                           search_machine="sun1", docs_machine="sun2",
                           host_machines=["vax1", "sun1", "sun2"])
        for host in ursa.hosts:
            host.search_and_fetch(term, limit=2)
        requests = sum(count
                       for name, count in bed.name_server_instance.counters
                       if name != "ns_register")
        return requests, {
            name: sum(commod.nucleus.counters[name]
                      for commod in bed.modules.values())
            for name in ("nsp_cache_hits", "nsp_batch_resolves",
                         "nsp_cache_misses")}

    assert cold_start(False)[0] == 9
    assert cold_start(True) == (6, {"nsp_cache_hits": 14,
                                    "nsp_batch_resolves": 5,
                                    "nsp_cache_misses": 0})


def test_index_server_relocation_transparent_to_search(system):
    """Move an index shard mid-run; searches keep answering correctly
    (the search server's cached UAdd forwards)."""
    bed, ursa = system
    host = ursa.hosts[0]
    corpus = ursa.corpus
    term = corpus.common_terms(1)[0]
    truth = corpus.build_inverted_index(corpus.doc_ids()).get(term, [])
    assert host.search(term) == truth

    controller = ProcessController(bed)
    shard0 = ursa.index_servers[0]

    def rebuild(old, new):
        from repro.ursa.protocol import encode_ids

        def handle(request):
            if request.type_name == "index_lookup" and request.reply_expected:
                postings = shard0.index.get(request.values["term"].lower(), [])
                new.ali.reply(request, "index_posting", {
                    "term": request.values["term"],
                    "count": len(postings),
                    "postings": encode_ids(postings),
                })

        new.ali.set_request_handler(handle)

    controller.relocate("ursa.index.0", "vax1", rebuild=rebuild)
    assert host.search(term) == truth
