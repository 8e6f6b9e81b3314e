"""FILTER(STRSTARTS(STR(?v), "prefix")) and its OR form: the evaluator
against the brute-force oracle, paged and unpaged, and filtered and
unfiltered pages of the same patterns read side by side through an
endpoint and a page cache."""

import dataclasses
import itertools
import random

from kif import codec
from kif import model as m
from kif import namespaces as ns
from kif.rdf.bgp import match_bgp
from kif.rdf.server import serve
from kif.rdf.sparql import (SelectQuery, TriplePattern, ValuesBlock, Var, parse_query,
                            serialize_query)
from kif.rdf.terms import Graph, IriTerm, Literal, Triple, term_key, triple_key
from kif.stores import SparqlStore, StoreOptions
from kif.stores.backed import HttpBackend

from oracles import brute_force_bgp
from randgen import ModelGen

X = "http://x.org/"
# Prefixes that select IRIs, literals whose lexical form looks like an IRI,
# plain literals, everything ("") and nothing.
PREFIXES = (X + "n", X + "n1", X + "p", X + "p1", X, "1", "", "zz")


def _random_graph(rng: random.Random, size: int) -> Graph:
    nodes = [IriTerm(f"{X}n{i}") for i in range(4)]
    predicates = [IriTerm(f"{X}p{i}") for i in range(3)]
    objects = nodes + [Literal("1"), Literal("12"), Literal(X + "n1"),
                       Literal(X + "p1", language="en"), Literal(X + "n9", X + "dt")]
    return Graph(Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(objects))
                 for _ in range(size))


def _random_filtered_query(rng: random.Random, graph: Graph, case: int) -> SelectQuery:
    triples = sorted(graph, key=triple_key) or [
        Triple(IriTerm(X + "n0"), IriTerm(X + "p0"), IriTerm(X + "n0"))]

    def pattern():
        # Each slot the term of a graph triple in that slot or a variable;
        # ?b, as subject or object, chains two patterns.
        t = rng.choice(triples)
        return TriplePattern(*(rng.choice(names + [term]) for names, term in (
            ([Var("a"), Var("b")], t.subject), ([Var("q")], t.predicate),
            ([Var("b"), Var("c")], t.object))))

    patterns = tuple(pattern() for _ in range(rng.choice((1, 1, 2))))
    filtered = []
    if case % 4 == 0 or not any(p.variables() for p in patterns):
        # A pattern of its own whose slots nothing binds, its predicate
        # variable filtered: the evaluator reads only the predicates that pass.
        patterns += (TriplePattern(Var("x"), Var("p"), Var("y")),)
        filtered.append("p")
    in_scope = sorted({v for p in patterns for v in p.variables()})
    filtered += rng.sample(in_scope, k=rng.randint(0 if filtered else 1, min(2, len(in_scope))))
    filters = tuple((var, rng.choice(PREFIXES)) for var in filtered)
    values = ()
    if case % 3 == 0:
        # A VALUES row is filtered before it joins.
        pool = sorted({term for t in graph for term in (t.subject, t.predicate, t.object)},
                      key=term_key) or [triples[0].subject]
        values = (ValuesBlock(filtered[-1], tuple(rng.choices(pool, k=4))),)
    projected = tuple(rng.sample(in_scope, k=rng.randint(1, len(in_scope))))
    return SelectQuery(projected, patterns, rng.random() < 0.3, values, filters=filters)


def _paged(select, query: SelectQuery, size: int):
    offset = 0
    while True:
        page = select(query.with_page(size, offset))
        yield page
        if len(page) < size:
            return
        offset += size


def _read_interleaved(select, queries: list[SelectQuery], size: int) -> list[list]:
    """Page every query to its end through *select*, one page of each in turn."""
    readers = [_paged(select, q, size) for q in queries]
    rows: list[list] = [[] for _ in queries]
    live = list(range(len(queries)))
    while live:
        for i in list(live):
            page = next(readers[i], None)
            if page is None:
                live.remove(i)
            else:
                rows[i].extend(page)
    return rows


def test_filtered_queries_equal_the_brute_force_oracle_paged_and_unpaged():
    rng = random.Random(1212)
    for case in range(120):
        graph = _random_graph(rng, rng.randint(0, 16))
        query = _random_filtered_query(rng, graph, case)
        expected = brute_force_bgp(graph, query)
        assert match_bgp(graph, query) == expected, (case, query)
        for size in (1, 3, 7):
            rows = [row for page in _paged(lambda q: match_bgp(graph, q), query, size)
                    for row in page]
            assert rows == expected, (case, size, query)


def test_the_oracle_keeps_every_solution_without_a_filter():
    graph = _random_graph(random.Random(3), 20)
    query = SelectQuery(("a", "b"), (TriplePattern(Var("a"), Var("b"), Var("c")),))
    assert len(brute_force_bgp(graph, query)) == len(graph)
    everything = dataclasses.replace(query, filters=(("c", ""),))
    assert brute_force_bgp(graph, everything) == brute_force_bgp(graph, query)


def _scan_queries() -> list[SelectQuery]:
    """The wildcard truthy and no-value queries, each with and without its
    prefix filter."""
    queries = [codec.compile_truthy_plan(m.FilterPattern()).query,
               codec.compile_novalue_plan(m.FilterPattern()).query]
    assert all(q.filters for q in queries)
    return [q2 for q in queries for q2 in (q, dataclasses.replace(q, filters=()))]


def _model_graph(seed: int, n_statements: int) -> Graph:
    pairs, descriptors = ModelGen(seed).dataset(n_statements)
    return codec.encode_dataset(pairs, descriptors)


def test_filtered_and_unfiltered_pages_interleave_on_the_endpoint():
    graph = _model_graph(17, 60)
    queries = _scan_queries()
    expected = [match_bgp(graph, q) for q in queries]
    assert len(expected[0]) < len(expected[1]) and len(expected[2]) < len(expected[3])
    with serve(graph) as server:
        backend = HttpBackend(server.url)
        try:
            for size in (3, 7):
                assert _read_interleaved(backend.select, queries, size) == expected, size
        finally:
            backend.close()


def test_filtered_and_unfiltered_pages_interleave_through_a_cached_store():
    graph = _model_graph(19, 60)
    queries = _scan_queries()
    expected = [match_bgp(graph, q) for q in queries]
    with serve(graph) as server, \
            SparqlStore(server.url, StoreOptions(page_size=5)) as store:
        counts = []
        for _ in range(2):
            readers = [store.select_all(q) for q in queries]
            rows: list[list] = [[] for _ in queries]
            live = list(range(len(queries)))
            while live:
                for i in list(live):
                    row = next(readers[i], None)
                    if row is None:
                        live.remove(i)
                    else:
                        rows[i].append(row)
            assert rows == expected
            counts.append(store.request_count)
        # The second round is answered from the page cache.
        assert counts[1] == counts[0] > 0


def test_a_paged_prefix_filtered_scan_reads_each_predicate_bucket_once(monkeypatch):
    graph = _model_graph(5, 60)
    query = codec.compile_truthy_plan(m.FilterPattern()).query
    wdt = [p for p in graph.predicates() if p.value.startswith(ns.WDT)]
    assert 0 < len(wdt) < len(graph.predicates())
    reads = []
    original = Graph.match

    def match(g, s=None, p=None, o=None):
        reads.append((s, p, o))
        return original(g, s, p, o)

    monkeypatch.setattr(Graph, "match", match)
    pages = list(_paged(lambda q: match_bgp(graph, q), query, 7))
    assert len(pages) > 3
    # One evaluation, on the first page, reads the wdt: buckets and no other.
    assert sorted(reads, key=lambda r: r[1].value) == \
        sorted(((None, p, None) for p in wdt), key=lambda r: r[1].value)
    monkeypatch.undo()
    assert [row for page in pages for row in page] == brute_force_bgp(graph, query)


def _or_filtered(rng: random.Random, query: SelectQuery) -> SelectQuery:
    """*query* with each filter's prefix an OR of 2 or 3 of PREFIXES."""
    return dataclasses.replace(query, filters=tuple(
        (var, tuple(rng.sample(PREFIXES, k=rng.choice((2, 3)))))
        for var, _ in query.filters))


def test_or_filters_equal_the_brute_force_oracle_paged_unpaged_and_round_tripped():
    rng = random.Random(1818)
    for case in range(120):
        graph = _random_graph(rng, rng.randint(0, 16))
        query = _or_filtered(rng, _random_filtered_query(rng, graph, case))
        assert parse_query(serialize_query(query)) == query, (case, query)
        expected = brute_force_bgp(graph, query)
        assert match_bgp(graph, query) == expected, (case, query)
        for size in (1, 3, 7):
            rows = [row for page in _paged(lambda q: match_bgp(graph, q), query, size)
                    for row in page]
            assert rows == expected, (case, size, query)


def test_a_prefix_tuple_keeps_the_union_of_its_prefixes():
    graph = _random_graph(random.Random(4), 30)
    query = SelectQuery(("a", "q", "c"), (TriplePattern(Var("a"), Var("q"), Var("c")),))

    def key(row):
        return tuple(term_key(row[v]) for v in query.variables)

    for var in query.variables:
        for pair in itertools.combinations(PREFIXES, 2):
            either = dataclasses.replace(query, filters=((var, pair),))
            union = {key(row): row
                     for prefix in pair
                     for row in brute_force_bgp(
                         graph, dataclasses.replace(query, filters=((var, prefix),)))}
            expected = [union[k] for k in sorted(union)]
            assert brute_force_bgp(graph, either) == expected, (var, pair)
            assert match_bgp(graph, either) == expected, (var, pair)
