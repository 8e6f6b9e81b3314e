"""Invariants of the read path that builds each term and paged query once:
a paged copy of a query is the query built from its fields, a results
document decodes to the same rows whatever it repeats, and Graph.objects
answers as the index bucket it reads."""

import dataclasses
import itertools
import json
import random

import pytest

from kif import namespaces as ns
from kif.lru import Lru
from kif.rdf.bgp import match_bgp
from kif.rdf.sparql import SelectQuery, parse_query
from kif.rdf.terms import Graph, IriTerm, Literal, Triple
from kif.stores import RdfStore, StoreOptions, decode_results_json

EX = "http://example.org/"
QUERIES = [
    "SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o }",
    "SELECT DISTINCT ?s WHERE { ?s ?p ?o . FILTER(STRSTARTS(STR(?p), \"http://example.org/\")) }",
    "SELECT ?s ?o WHERE { ?s <http://example.org/p> ?o . VALUES ?s { <http://example.org/s1> } }",
    "SELECT ?s WHERE { ?s <http://example.org/p> ?o } LIMIT 3 OFFSET 6",
]


def _graph() -> Graph:
    return Graph(Triple(IriTerm(f"{EX}s{i}"), IriTerm(EX + "p"), Literal(str(i)))
                 for i in range(7))


def _built(query: SelectQuery, limit, offset) -> SelectQuery:
    """The query of *query*'s fields with *limit* and *offset*, built and
    checked by the constructor."""
    return dataclasses.replace(query, limit=limit, offset=offset)


@pytest.mark.parametrize("text", QUERIES)
@pytest.mark.parametrize("limit, offset", [(None, None), (1, 0), (100, 300), (5, None)])
def test_a_paged_copy_equals_and_hashes_like_the_built_query(text, limit, offset):
    query = parse_query(text)
    page = query.with_page(limit, offset)
    built = _built(query, limit, offset)
    assert page == built and built == page
    assert hash(page) == hash(built)
    assert repr(page) == repr(built)
    assert (page.limit, page.offset) == (limit, offset)
    assert page.with_page(query.limit, query.offset) == query
    assert page != _built(query, 7, 11)
    lru = Lru(4)
    lru.put(built, "built")
    assert lru.get(page) == "built"
    lru.put(page, "page")
    assert lru.get(built) == "page" and len(lru) == 1


def test_the_page_cache_finds_a_page_built_by_the_constructor():
    store = RdfStore(_graph(), StoreOptions(page_size=2))
    query = parse_query(QUERIES[0])
    rows = [{"s": IriTerm(EX + "cached"), "o": Literal("x")}]
    store._cache.put(_built(query, 2, 0), rows)
    assert list(store.select_all(query)) == rows
    assert store.request_count == 0


def test_the_graph_memo_finds_a_paged_query_by_its_built_form():
    graph = _graph()
    query = parse_query(QUERIES[0])
    first = match_bgp(graph, query.with_page(3, 0))
    assert graph.memo.get(_built(query, None, None)) is not None
    rows = [{"s": IriTerm(EX + "memo"), "o": Literal(str(i))} for i in range(6)]
    graph.memo.put(_built(query, None, None), rows)
    assert match_bgp(graph, query.with_page(3, 3)) == rows[3:6]
    assert len(first) == 3


def test_paging_at_page_size_one_checks_the_query_only_when_it_is_built(monkeypatch):
    calls = []
    post_init = SelectQuery.__post_init__

    def counted(self):
        calls.append(self)
        post_init(self)

    monkeypatch.setattr(SelectQuery, "__post_init__", counted)
    query = parse_query(QUERIES[0])
    assert len(calls) == 1
    for cache_enabled in (True, False):
        store = RdfStore(_graph(), StoreOptions(page_size=1, cache_enabled=cache_enabled))
        rows = list(store.select_all(query))
        assert len(rows) == 7 and store.request_count == 8
    assert len(calls) == 1


def _reference_rows(document: dict) -> list[dict]:
    """The rows of *document*, one new term per binding."""
    rows = []
    for binding in document["results"]["bindings"]:
        row = {}
        for var, term in binding.items():
            if term["type"] == "uri":
                row[var] = IriTerm(term["value"])
            elif term["type"] != "bnode":
                lang = term.get("xml:lang")
                row[var] = (Literal(term["value"], language=lang) if lang
                            else Literal(term["value"], term.get("datatype", ns.XSD_STRING)))
        rows.append(row)
    return rows


def _document(seed: int) -> dict:
    """A results document whose rows repeat a few IRIs and literals: plain,
    tagged (in either case) and typed, as "literal" and "typed-literal"."""
    rnd = random.Random(seed)
    terms = [{"type": "uri", "value": f"{EX}e{i}"} for i in range(4)]
    terms += [{"type": "literal", "value": "a"},
              {"type": "literal", "value": "a", "datatype": ns.XSD_STRING},
              {"type": "literal", "value": "a", "xml:lang": "en"},
              {"type": "literal", "value": "a", "xml:lang": "EN"},
              {"type": "literal", "value": "a", "xml:lang": "de"},
              {"type": "typed-literal", "value": "7", "datatype": ns.XSD_INTEGER},
              {"type": "literal", "value": "7", "datatype": ns.XSD_DECIMAL},
              {"type": "literal", "value": "+7", "datatype": ns.XSD_DECIMAL},
              {"type": "literal", "value": f"{EX}e0"},
              {"type": "bnode", "value": "b0"}]
    names = ["x", "y", "z"]
    bindings = [{v: dict(rnd.choice(terms)) for v in names if rnd.random() < 0.8}
                for _ in range(rnd.randrange(1, 40))]
    return {"head": {"vars": names}, "results": {"bindings": bindings}}


@pytest.mark.parametrize("seed", range(20))
def test_decoded_rows_equal_the_reference_and_two_calls_share_no_term(seed):
    document = _document(seed)
    text = json.dumps(document)
    first = decode_results_json(json.loads(text))
    second = decode_results_json(json.loads(text))
    assert first == second == _reference_rows(document)
    for one, other in zip(first, second):
        for var in one:
            assert one[var] is not other[var]


def test_a_results_document_holds_one_object_per_distinct_term():
    document = _document(7)
    rows = decode_results_json(document)
    terms = [t for row in rows for t in row.values()]
    assert len(terms) > len(set(terms))
    by_value = {}
    for t in terms:
        assert by_value.setdefault(t, t) is t


def test_graph_objects_answers_as_the_bucket_it_reads():
    graph = _graph()
    graph.update([Triple(IriTerm(EX + "s1"), IriTerm(EX + "q"), IriTerm(EX + "s2")),
                  Triple(IriTerm(EX + "s2"), IriTerm(EX + "p"), Literal("late"))])
    subjects = [None, IriTerm(EX + "s1"), IriTerm(EX + "s2"), IriTerm(EX + "none"),
                Literal(EX + "s1"), Literal("1")]
    predicates = [None, IriTerm(EX + "p"), IriTerm(EX + "q"), Literal(EX + "p")]
    for s, p in itertools.product(subjects, predicates):
        assert graph.objects(s, p) == [t.object for t in graph.match(s, p)], (s, p)
