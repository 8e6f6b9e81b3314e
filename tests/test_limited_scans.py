"""A limited scan fetches only the statement nodes its limit needs: the
first node batch holds *limit* candidates, each later one twice the one
before, up to 50; and it yields what the unlimited scan yields first."""

import logging

import pytest

from kif import codec
from kif import model as m
from kif import namespaces as ns
from kif.mixer import MixerStore
from kif.rdf.server import serve
from kif.rdf.terms import Graph, IriTerm, Triple
from kif.stores import RdfStore, SparqlStore, StoreOptions

from randgen import WD, ModelGen

LIMITS = (1, 3, 7, 60)


def _graph() -> Graph:
    """A ModelGen graph whose least subject, wd:Q0, links first to no-value
    nodes and to malformed ones (a ``p:`` link to a node with no value and
    no no-value type), so that the first candidates of a scan yield no
    statement before the no-value ones, which come last."""
    pairs, descriptors = ModelGen(5).dataset(70)
    first = m.Item(WD + "Q0")
    pairs += [(m.Statement(first, m.NoValueSnak(m.Property(f"{WD}P{i}"))), m.AnnotationRecord())
              for i in range(1, 4)]
    graph = codec.encode_dataset(pairs, descriptors)
    broken = [Triple(IriTerm(WD + "Q0"), IriTerm(f"{ns.P}P{i}"), IriTerm(f"{ns.WDS}Q0-broken{i}"))
              for i in range(1, 4)]
    broken += [Triple(t.object, IriTerm(ns.WIKIBASE_RANK), IriTerm(ns.WIKIBASE + "NormalRank"))
               for t in list(broken)]
    graph.update(broken)
    return graph


GRAPH = _graph()
PATTERNS = [
    m.FilterPattern(),
    m.FilterPattern(property=m.EntityFp(m.Property(WD + "P2"))),
    m.FilterPattern(snak_kinds=frozenset({m.SnakKind.NO_VALUE})),
    m.FilterPattern(snak_kinds=frozenset({m.SnakKind.VALUE})),
]


def _first_statements_are_no_value_or_malformed():
    plan = codec.compile_full_plan(m.FilterPattern())
    first = RdfStore(GRAPH).select_all(plan.query)
    return [next(first)["s"] for _ in range(6)] == [IriTerm(WD + "Q0")] * 6


@pytest.fixture(scope="module")
def server():
    with serve(GRAPH) as running:
        yield running


def _store(kind: str, server, options: StoreOptions):
    if kind == "rdf":
        return RdfStore(GRAPH, options)
    if kind == "sparql":
        return SparqlStore(server.url, options)
    other = codec.encode_dataset(*ModelGen(6).dataset(30))
    return MixerStore([RdfStore(GRAPH, options), RdfStore(other, options)],
                      parallel=kind == "parallel-mixer")


@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("size", [1, 3, 100])
@pytest.mark.parametrize("kind", ["rdf", "sparql", "mixer", "parallel-mixer"])
def test_a_limited_scan_yields_the_first_statements_of_the_unlimited_one(
        server, kind, size, cache, caplog):
    assert _first_statements_are_no_value_or_malformed()
    caplog.set_level(logging.ERROR, logger="kif.stores.backed")
    with _store(kind, server, StoreOptions(page_size=size, cache_enabled=cache)) as store:
        for pattern in PATTERNS:
            everything = list(store.filter(pattern))
            for k in LIMITS:
                assert list(store.filter(pattern, limit=k)) == everything[:k]


def _node_fetches(store) -> list[int]:
    """Spy on *store*'s queries; the list receives the size of each
    statement-node fetch (a VALUES ?w query that keeps main-snak triples),
    once, at its first page."""
    sizes: list[int] = []
    select = store._backend.select

    def spy(query):
        if (query.filters and query.values and query.values[0].variable == "w"
                and not query.offset):
            sizes.append(len(query.values[0].terms))
        return select(query)

    store._backend.select = spy
    return sizes


@pytest.mark.parametrize("limit", [1, 3])
@pytest.mark.parametrize("size", [1, 3, 100])
def test_the_first_node_fetch_of_a_limited_scan_holds_its_limit(size, limit, caplog):
    caplog.set_level(logging.ERROR, logger="kif.stores.backed")
    store = RdfStore(GRAPH, StoreOptions(page_size=size, cache_enabled=False))
    sizes = _node_fetches(store)
    assert len(list(store.filter(m.FilterPattern(), limit=limit))) == limit
    assert sizes[0] == limit
    # The first six candidates are wd:Q0's no-value and malformed nodes,
    # so later batches, each twice the one before, are needed.
    assert len(sizes) >= 2
    assert sizes == [limit * 2 ** i for i in range(len(sizes))]


def test_a_limit_of_fifty_or_more_fetches_the_batches_of_the_unlimited_scan(caplog):
    caplog.set_level(logging.ERROR, logger="kif.stores.backed")
    store = RdfStore(GRAPH, StoreOptions(cache_enabled=False))
    sizes = _node_fetches(store)
    assert len(list(store.filter())) > 60
    unlimited = list(sizes)
    assert unlimited[:-1] == [50] * (len(unlimited) - 1)
    for limit in (50, 60):
        sizes.clear()
        assert len(list(store.filter(limit=limit))) == limit
        assert sizes == unlimited[:len(sizes)]
