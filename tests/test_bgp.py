"""The BGP evaluator's join order and its evaluate-once paging."""

import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from kif import codec
from kif import model as m
from kif import namespaces as ns
from kif.namespaces import WIKIDATA
from kif.rdf.bgp import match_bgp
from kif.rdf.server import serve
from kif.rdf.sparql import SelectQuery, TriplePattern, ValuesBlock, Var
from kif.rdf.terms import Graph, IriTerm, Literal, Triple, term_key
from kif.stores import MemoryStore, RdfStore, SparqlStore, StoreOptions

from oracles import brute_force_bgp
from randgen import ModelGen

X = "http://x.org/"


def _random_graph(rng: random.Random, size: int) -> Graph:
    nodes = [IriTerm(f"{X}n{i}") for i in range(5)]
    predicates = [IriTerm(f"{X}p{i}") for i in range(3)]
    objects = nodes + [Literal(str(i)) for i in range(3)]
    return Graph(Triple(rng.choice(nodes), rng.choice(predicates), rng.choice(objects))
                 for _ in range(size))


def _random_query(rng: random.Random, graph: Graph) -> SelectQuery:
    terms = sorted({t.subject for t in graph} | {t.predicate for t in graph},
                   key=lambda t: t.value) or [IriTerm(f"{X}n0")]

    def slot():
        return rng.choice([Var("a"), Var("b"), Var("c"), rng.choice(terms)])

    patterns = tuple(TriplePattern(slot(), slot(), slot())
                     for _ in range(rng.choice((1, 2, 2, 3))))
    in_scope = sorted({v for p in patterns for v in p.variables()})
    if not in_scope:
        patterns = (TriplePattern(Var("a"), Var("b"), Var("c")),) + patterns[1:]
        in_scope = ["a", "b", "c"]
    projected = tuple(rng.sample(in_scope, k=rng.randint(1, len(in_scope))))
    return SelectQuery(projected, patterns, distinct=rng.random() < 0.3)


def _pages(graph: Graph, query: SelectQuery, size: int):
    """The pages a LIMIT/OFFSET client reads, one request per next()."""
    offset = 0
    while True:
        page = match_bgp(graph, query.with_page(size, offset))
        yield page
        if len(page) < size:
            return
        offset += size


def _read_interleaved(graph: Graph, queries: list[SelectQuery], size: int):
    """Page every query to its end, one page of each in turn."""
    readers = [_pages(graph, q, size) for q in queries]
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


class _ScanCounter:
    """Counts Graph.match calls, the triples they yield, and the calls
    that scan the whole graph."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        self.triples = 0
        self.whole_graph_scans = 0
        original = Graph.match

        def match(graph, s=None, p=None, o=None):
            self.calls += 1
            if s is None and p is None and o is None:
                self.whole_graph_scans += 1
            for t in original(graph, s, p, o):
                self.triples += 1
                yield t

        monkeypatch.setattr(Graph, "match", match)


def test_interleaved_pages_concatenate_to_the_unpaged_answer():
    rng = random.Random(4004)
    for case in range(60):
        graph = _random_graph(rng, rng.randint(0, 24))
        first, second = _random_query(rng, graph), _random_query(rng, graph)
        if case % 2:
            # The same patterns under another projection and DISTINCT flag
            # are another query with other pages.
            in_scope = sorted({v for p in first.patterns for v in p.variables()})
            second = SelectQuery(tuple(rng.sample(in_scope, k=rng.randint(1, len(in_scope)))),
                                 first.patterns, distinct=not first.distinct)
        for size in (1, 3, 7):
            paged = _read_interleaved(graph, [first, second], size)
            for query, rows in zip((first, second), paged):
                assert rows == match_bgp(graph, query) == brute_force_bgp(graph, query), \
                    (case, size, query)


def test_two_values_blocks_equal_the_brute_force_oracle():
    rng = random.Random(4242)
    extra = [IriTerm(X + "absent"), Literal("9")]
    for case in range(60):
        graph = _random_graph(rng, rng.randint(0, 24))
        query = _random_query(rng, graph)
        terms = sorted({t.subject for t in graph} | {t.predicate for t in graph}
                       | {t.object for t in graph}, key=term_key) + extra
        in_scope = sorted({v for p in query.patterns for v in p.variables()})
        names = rng.sample(in_scope + ["z"], k=2)
        blocks = tuple(ValuesBlock(name, tuple(rng.choices(terms, k=rng.randint(0, 4))))
                       for name in names)
        query = SelectQuery(query.variables, query.patterns, query.distinct, blocks)
        assert match_bgp(graph, query) == brute_force_bgp(graph, query), (case, query)
        for size in (1, 3):
            assert [row for page in _pages(graph, query, size) for row in page] == \
                match_bgp(graph, query), (case, size)


def test_a_triple_added_between_pages_shows_in_the_next_page():
    s, p = IriTerm(X + "s"), IriTerm(X + "p")
    graph = Graph(Triple(s, p, Literal(str(i))) for i in range(1, 7))
    query = SelectQuery(("o",), (TriplePattern(s, p, Var("o")),))
    first = match_bgp(graph, query.with_page(2, 0))
    assert [row["o"].lexical for row in first] == ["1", "2"]
    # "0" sorts first, so every later row moves one place down.
    graph.add(Triple(s, p, Literal("0")))
    second = match_bgp(graph, query.with_page(2, 2))
    assert [row["o"].lexical for row in second] == ["2", "3"]
    assert second == match_bgp(graph, query)[2:4]


def test_first_pages_always_evaluate(monkeypatch):
    s, p = IriTerm(X + "s"), IriTerm(X + "p")
    graph = Graph(Triple(s, p, Literal(str(i))) for i in range(5))
    query = SelectQuery(("o",), (TriplePattern(s, p, Var("o")),))
    expected = match_bgp(graph, query)
    counter = _ScanCounter(monkeypatch)
    assert match_bgp(graph, query.with_page(2, 0)) == expected[:2]
    assert match_bgp(graph, query.with_page(2, 0)) == expected[:2]
    assert counter.calls == 2
    assert match_bgp(graph, query.with_page(2, 2)) == expected[2:4]
    assert match_bgp(graph, query.with_page(2, 4)) == expected[4:]
    assert counter.calls == 2


def _model_graph(seed: int, n_statements: int, n_items: int = 12):
    gen = ModelGen(seed, n_items=n_items)
    pairs, descriptors = gen.dataset(n_statements)
    return pairs, descriptors, codec.encode_dataset(pairs, descriptors)


def test_four_threads_paging_one_endpoint_read_identical_rows():
    pairs, descriptors, graph = _model_graph(11, 40)
    query = codec.compile_full_plan(m.FilterPattern()).query
    expected = match_bgp(graph, query)
    assert len(expected) > 20
    barrier = threading.Barrier(4)
    options = StoreOptions(page_size=3, cache_enabled=False)
    with serve(graph) as server, SparqlStore(server.url, options) as store:
        def read(_):
            barrier.wait(timeout=10)
            return list(store.select_all(query))

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(read, range(4)))
    assert all(rows == expected for rows in results)


def test_threads_paging_one_graph_each_read_the_whole_answer():
    # More threads than cores and a short switch interval, so memo reads,
    # writes and drops of the same queries interleave between pages.
    rng = random.Random(77)
    graph = _random_graph(rng, 40)
    queries = [_random_query(rng, graph) for _ in range(3)]
    expected = [match_bgp(graph, q) for q in queries]
    failures: list = []

    def read(worker: int) -> None:
        for round_ in range(20):
            i = (worker + round_) % len(queries)
            rows = [row for page in _pages(graph, queries[i], 1 + worker % 3) for row in page]
            if rows != expected[i]:
                failures.append((worker, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


def test_subject_fingerprint_join_scans_a_bounded_number_of_triples(monkeypatch):
    pairs, _, graph = _model_graph(7, 400, n_items=400)
    claims = [(stmt.subject, stmt.snak) for stmt, ann in pairs
              if isinstance(stmt.snak, m.ValueSnak) and ann.rank is not m.Rank.DEPRECATED]
    queries = [codec.compile_full_plan(m.FilterPattern(subject=m.SnakFp(snak))).query
               for _, snak in claims[:8]]
    assert all(q.patterns[0] == TriplePattern(Var("s"), Var("p"), Var("w")) for q in queries)
    counter = _ScanCounter(monkeypatch)
    answers = [match_bgp(graph, q) for q in queries]
    rows = sum(len(a) for a in answers)
    assert rows > 0
    # Textual order would read every triple of the graph for each query.
    assert counter.triples <= 2 * rows < len(graph)
    monkeypatch.undo()
    for query, answer in zip(queries, answers):
        # Every triple a solution uses has its subject among the entities
        # that carry the fingerprint, or among the nodes they point to, so
        # brute force over those triples gives the answer over the graph.
        aux = query.patterns[-1]
        subjects = {t.subject for t in graph
                    if t.predicate == aux.predicate and t.object == aux.object}
        nodes = subjects | {t.object for t in graph if t.subject in subjects}
        used = Graph(t for t in graph if t.subject in nodes)
        assert answer == brute_force_bgp(used, query)


def test_a_paged_wildcard_filter_evaluates_each_join_once(monkeypatch):
    pairs, descriptors, graph = _model_graph(5, 60)
    store = RdfStore(graph, StoreOptions(page_size=7, cache_enabled=False))
    counter = _ScanCounter(monkeypatch)
    statements = set(store.filter())
    # No query starts from every triple: the truthy ?s ?p ?v and the
    # candidate ?s ?p ?w read only the buckets of the predicates their wdt:
    # and p: prefix filters keep.
    assert counter.whole_graph_scans == 0
    assert store.request_count > 20
    assert statements == set(MemoryStore(pairs, descriptors).filter())


@pytest.mark.parametrize("size", [1, 4])
def test_memo_entries_go_once_their_last_page_is_served(size):
    pairs, _, graph = _model_graph(3, 20)
    query = codec.compile_full_plan(m.FilterPattern()).query
    for _ in _pages(graph, query, size):
        pass
    assert len(graph.memo) == 0


def test_the_property_unbound_candidate_query_reads_one_row_per_statement_link(monkeypatch):
    _, _, graph = _model_graph(7, 400)
    rank = IriTerm(ns.WIKIBASE_RANK)
    links = {(t.subject, t.predicate, t.object) for t in graph
             if isinstance(t.object, IriTerm) and graph.objects(t.object, rank)}
    assert len(links) > 300
    assert all(WIKIDATA.local(p.value, "p") for _, p, _ in links)
    subjects = sorted({s for s, _, _ in links}, key=lambda t: t.value)
    patterns = [m.FilterPattern()] + [m.FilterPattern(subject=m.EntityFp(m.Item(s.value)))
                                      for s in subjects]
    counter = _ScanCounter(monkeypatch)
    for pattern in patterns:
        plan = codec.compile_full_plan(pattern)
        before = counter.triples
        rows = match_bgp(graph, plan.query)
        got = [(plan.subject_term or row["s"], row["p"], row["w"]) for row in rows]
        expected = {link for link in links
                    if plan.subject_term in (None, link[0])}
        if plan.folded:
            # An entity subject's rows also carry the statement nodes'
            # triples: one row per link and triple of the linked node.
            got = [(*link, row["q"], row["o"]) for link, row in zip(got, rows)]
            expected = {(*link, t.predicate, t.object)
                        for link in expected for t in graph.match(s=link[2])}
        assert len(got) == len(set(got)) and set(got) == expected, pattern
        # The p: link buckets or a subject bucket, then one index probe per row.
        assert counter.triples - before <= 3 * len(rows), pattern
