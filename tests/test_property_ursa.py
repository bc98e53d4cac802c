"""Property-based URSA test: random boolean queries evaluated by the
distributed system must match a local reference evaluation."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from deployments import single_net
from repro import SUN3
from repro.errors import ConversionError
from repro.ursa import Corpus, deploy_ursa
from repro.ursa.search_server import parse_query

# One shared deployment for all examples (hypothesis-friendly: cheap
# per-example work, deterministic state).
_CORPUS = Corpus(n_docs=40, seed=99)
_TERMS = _CORPUS.common_terms(6)
_TRUTH_INDEX = _CORPUS.build_inverted_index(_CORPUS.doc_ids())
_SYSTEM = None
_QUERY_FIELD_CHARS = 96  # search_query.query is char[96]


def _system():
    global _SYSTEM
    if _SYSTEM is None:
        bed = single_net()
        bed.machine("sun2", SUN3, networks=["ether0"])
        ursa = deploy_ursa(
            bed, _CORPUS,
            index_machines=["sun1", "sun2"],
            search_machine="sun1",
            docs_machine="sun2",
            host_machines=["vax1"],
        )
        _SYSTEM = (bed, ursa)
    return _SYSTEM


def _local_eval(node):
    kind = node[0]
    if kind == "term":
        return set(_TRUTH_INDEX.get(node[1], []))
    if kind == "and":
        return _local_eval(node[1]) & _local_eval(node[2])
    if kind == "or":
        return _local_eval(node[1]) | _local_eval(node[2])
    return set(_CORPUS.doc_ids()) - _local_eval(node[1])


# Random query *text* built from a recursive strategy.
_query_text = st.recursive(
    st.sampled_from(_TERMS),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: f"( {t[0]} AND {t[1]} )"),
        st.tuples(inner, inner).map(lambda t: f"( {t[0]} OR {t[1]} )"),
        inner.map(lambda q: f"NOT {q}"),
    ),
    max_leaves=6,
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(query=_query_text)
@example(query="( ( babaellu AND ( babaellu AND babaellu ) ) AND "
               "( NOT babaellu AND ( babaellu AND babaellu ) ) )")
def test_property_distributed_search_matches_local(query):
    """Six leaves can outgrow the wire's ``search_query.query`` field
    (the example is 97 characters): such a query is refused at the
    sender with a typed error and the deployment carries on, every
    other one is answered as the local evaluation answers it."""
    bed, ursa = _system()
    host = ursa.hosts[0]
    if len(query) > _QUERY_FIELD_CHARS:
        with pytest.raises(ConversionError, match="too long for char"):
            host.search(query)
        return
    expected = sorted(_local_eval(parse_query(query)))
    assert host.search(query) == expected


@settings(max_examples=40, deadline=None)
@given(query=_query_text)
def test_property_parser_round_trips_structure(query):
    """Parsing is deterministic and total over generated queries."""
    ast1 = parse_query(query)
    ast2 = parse_query(query)
    assert ast1 == ast2
