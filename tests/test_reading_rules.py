"""One reading of a graph: the stores' operations and codec.decode read
statement nodes by the same rules.

- A node that a ``p:X`` link reaches is a statement node; with no
  ``wikibase:rank`` it reads as Normal, in every operation.
- A repeated component of a deep value, or a repeated rank, reads as its
  canonically least object, whatever order the triples came in.
- The no-value statements of a filter come from its candidate nodes: no
  second query looks for them, and they come last.
- Damaged graphs (triples dropped, re-pointed or given a second object),
  truthy-only graphs and graphs with unknown-value IRIs of their own read
  the same in every operation as in codec.decode; a claim only a truthy
  triple carries has one default record.
"""

import random
from decimal import Decimal

import pytest

from kif import codec
from kif import model as m
from kif import namespaces as ns
from kif.rdf.ntriples import parse_ntriples, serialize_ntriples
from kif.rdf.server import serve
from kif.rdf.sparql import TriplePattern, Var
from kif.rdf.terms import Graph, IriTerm, Literal, Triple, term_key, triple_key
from kif.stores import RdfStore, SparqlStore, StoreOptions

from randgen import WD, ModelGen

SEEDS = range(10)             # 7 of them disagree with decode when rankless nodes are skipped
STATEMENTS = 12


def _rankless_graph(seed: int) -> Graph:
    """An encoded ModelGen graph without every third of its rank triples,
    chosen from the sorted triples so that the damage does not depend on
    the hash seed."""
    pairs, descriptors = ModelGen(seed).dataset(STATEMENTS)
    graph = codec.encode_dataset(pairs, descriptors)
    ranks = [t for t in sorted(graph, key=triple_key) if t.predicate.value == ns.WIKIBASE_RANK]
    dropped = set(ranks[::3])
    return Graph(t for t in graph if t not in dropped)


def _disagreements(store, graph: Graph) -> list:
    """The operations of *store* that read *graph* otherwise than
    codec.decode does."""
    decoded = codec.decode(graph).statements
    records: dict[m.Statement, set] = {}
    for es in decoded:
        records.setdefault(es.statement, set()).add(es.annotation)
    stmts = set(records)
    found = []
    if set(store.filter()) != stmts:
        found.append("filter")
    if store.count(m.FilterPattern()) != len(stmts):
        found.append("count")
    subjects = {stmt.subject for stmt in stmts}
    if set().union(*(store.filter(m.FilterPattern(m.EntityFp(s))) for s in subjects)) != stmts:
        found.append("subject filters")
    for subject, prop in {(s.subject, s.snak.property) for s in stmts}:
        pattern = m.FilterPattern(m.EntityFp(subject), m.EntityFp(prop))
        if set(store.filter(pattern)) != {s for s in stmts
                                          if (s.subject, s.snak.property) == (subject, prop)}:
            found.append(("subject+property filter", subject, prop))
    found += [("contains", s) for s in sorted(stmts, key=m.canonical_key)
              if not store.contains(s)]
    annotations = dict(store.get_annotations(stmts))
    found += [("get_annotations", s) for s in stmts if annotations[s] != records[s]]
    return found


def _failures(graphs: list[Graph]) -> list:
    """The disagreements with codec.decode of RdfStore and SparqlStore, at
    page sizes 1 and 3, on each of *graphs* (by its position)."""
    failures = []
    for seed, graph in enumerate(graphs):
        with serve(graph) as server:
            for size in (1, 3):
                options = StoreOptions(page_size=size)
                with RdfStore(graph, options) as rdf, SparqlStore(server.url, options) as sparql:
                    for store in (rdf, sparql):
                        found = _disagreements(store, graph)
                        if found:
                            failures.append((seed, type(store).__name__, size, found[:3]))
    return failures


def test_a_rankless_node_reads_the_same_in_every_operation():
    graphs = [_rankless_graph(seed) for seed in SEEDS]
    assert all(any(t.predicate.value == ns.WIKIBASE_RANK for t in g) for g in graphs)
    failures = _failures(graphs)
    assert failures == []


def _damaged_graph(seed: int) -> Graph:
    """An encoded ModelGen graph that lost about 8 % of its triples, with
    about 5 % re-pointed to another object of the graph and about 6 % given
    a second object of their predicate. The damage is drawn from the sorted
    triples, so that it does not depend on the hash seed."""
    pairs, descriptors = ModelGen(seed).dataset(STATEMENTS)
    triples = sorted(codec.encode_dataset(pairs, descriptors), key=triple_key)
    objects = sorted({t.object for t in triples}, key=term_key)
    by_predicate: dict[IriTerm, set] = {}
    for t in triples:
        by_predicate.setdefault(t.predicate, set()).add(t.object)
    rng = random.Random(seed)
    damaged = Graph()
    for t in triples:
        draw = rng.random()
        if draw < 0.08:
            continue
        if draw < 0.13:
            damaged.add(Triple(t.subject, t.predicate,
                               rng.choice([o for o in objects if o != t.object])))
            continue
        damaged.add(t)
        others = sorted(by_predicate[t.predicate] - {t.object}, key=term_key)
        if draw < 0.19 and others:
            damaged.add(Triple(t.subject, t.predicate, rng.choice(others)))
    return damaged


def test_a_damaged_graph_reads_the_same_in_every_operation():
    # Among the damage: a ps: value that no longer matches its psv: deep
    # value, a wdno: object in a ps: or wdt: triple, a lost statement node
    # whose truthy triple stays. Seeds 53 to 103 re-point a ps: or wdt:
    # object to a literal in another lexical form of a value, such as
    # "-120"^^xsd:integer for the amount -120, which contains and
    # get_annotations must find as filter does. Seeds 23 and 185 re-point a
    # p: link to a deep value node, which a wildcard filter or count then
    # holds as a statement node of its scan batch and must still fetch whole.
    seeds = [*SEEDS, 53, 57, 65, 71, 90, 103, 23, 185]
    assert _failures([_damaged_graph(seed) for seed in seeds]) == []


def test_a_truthy_graph_reads_the_same_in_every_operation():
    # No statement nodes: every claim is truthy-only, with one default
    # record, as MemoryStore and codec.decode give it.
    graphs = [codec.truthy_graph(ModelGen(seed).dataset(STATEMENTS)[0]) for seed in SEEDS]
    assert _failures(graphs) == []


def _renamed_unknown_values(seed: int) -> Graph:
    """An encoded ModelGen graph whose wdgenid: IRIs are not kif's digests
    but names of the graph's own, as the query service skolemizes them."""
    pairs, descriptors = ModelGen(seed).dataset(STATEMENTS)
    graph = codec.encode_dataset(pairs, descriptors)
    genids = sorted({t.object for t in graph if isinstance(t.object, IriTerm)
                     and t.object.value.startswith(ns.WDGENID)}, key=term_key)
    names = {old: IriTerm(f"{ns.WDGENID}skolem{i}") for i, old in enumerate(genids)}
    return Graph(Triple(t.subject, t.predicate, names.get(t.object, t.object)) for t in graph)


def test_unknown_values_are_found_by_kind_whatever_their_iris():
    graphs = [_renamed_unknown_values(seed) for seed in SEEDS]
    some_values = [stmt for g in graphs for es in codec.decode(g).statements
                   if isinstance((stmt := es.statement).snak, m.SomeValueSnak)]
    assert len(some_values) > 10
    assert _failures(graphs) == []


def _unit_statement() -> tuple[m.Statement, IriTerm]:
    stmt = m.Statement(m.Item(WD + "Q1"), m.ValueSnak(
        m.Property(WD + "P1"), m.Quantity(Decimal(5), m.Item(WD + "Q10"))))
    return stmt, codec.value_node(stmt.snak.value)


@pytest.mark.parametrize("extra, read", [
    # A second unit, two lower bounds, a second rank: each reads as its
    # least object.
    ("unit", lambda es: es.statement.snak.value.unit),
    ("lower", lambda es: es.statement.snak.value.lower),
    ("rank", lambda es: es.annotation.rank),
])
def test_repeated_quantity_components_read_the_same_in_any_triple_order(extra, read):
    stmt, node = _unit_statement()
    graph = codec.encode_dataset([(stmt, m.AnnotationRecord())])
    wds = next(t.subject for t in graph if t.predicate.value == ns.WIKIBASE_RANK)
    graph.update({
        "unit": [Triple(node, IriTerm(ns.WIKIBASE_QUANTITY_UNIT), IriTerm(WD + "Q11"))],
        "lower": [Triple(node, IriTerm(ns.WIKIBASE_QUANTITY_LOWER), Literal(v, ns.XSD_DECIMAL))
                  for v in ("3", "2")],
        "rank": [Triple(wds, IriTerm(ns.WIKIBASE_RANK), IriTerm(ns.WIKIBASE_PREFERRED_RANK))],
    }[extra])
    _assert_order_free(graph, read)


def test_repeated_time_components_read_the_same_in_any_triple_order():
    stmt = m.Statement(m.Item(WD + "Q1"), m.ValueSnak(m.Property(WD + "P1"), m.TimeValue(
        m.Timestamp.parse("2001-02-03T00:00:00Z"), m.PRECISION_DAY, 0, m.Item(WD + "Q20"))))
    graph = codec.encode_dataset([(stmt, m.AnnotationRecord())])
    node = codec.value_node(stmt.snak.value)
    # A second precision, time zone and calendar, each greater than the
    # encoded one: "11" (day) < "9" and "0" < "60" as lexical forms.
    graph.update([
        Triple(node, IriTerm(ns.WIKIBASE_TIME_PRECISION), Literal("9", ns.XSD_INTEGER)),
        Triple(node, IriTerm(ns.WIKIBASE_TIME_TIMEZONE), Literal("60", ns.XSD_INTEGER)),
        Triple(node, IriTerm(ns.WIKIBASE_TIME_CALENDAR), IriTerm(WD + "Q21")),
    ])
    assert _assert_order_free(graph, lambda es: es.statement) == stmt


def _assert_order_free(graph: Graph, read):
    """What *read* takes from the one statement of *graph*, the same when
    the graph is parsed from its N-Triples lines in either order, and the
    same through RdfStore; returns it."""
    lines = serialize_ntriples(graph).splitlines(keepends=True)
    assert len(lines) > 2
    readings = []
    for ordered in (lines, lines[::-1]):
        parsed = parse_ntriples("".join(ordered))
        (es,) = codec.decode(parsed).statements
        readings.append(read(es))
        store = RdfStore(parsed)
        assert list(store.filter()) == [es.statement]
        assert dict(store.get_annotations([es.statement])) == {
            es.statement: frozenset({es.annotation})}
    assert readings[0] == readings[1]
    return readings[0]


def test_the_least_unit_and_rank_are_read():
    stmt, node = _unit_statement()
    graph = codec.encode_dataset([(stmt, m.AnnotationRecord(rank=m.Rank.PREFERRED))])
    wds = next(t.subject for t in graph if t.predicate.value == ns.WIKIBASE_RANK)
    graph.update([Triple(node, IriTerm(ns.WIKIBASE_QUANTITY_UNIT), IriTerm(WD + "Q11")),
                  Triple(wds, IriTerm(ns.WIKIBASE_RANK), IriTerm(ns.WIKIBASE_NORMAL_RANK))])
    (es,) = codec.decode(graph).statements
    assert es.statement == stmt
    # NormalRank sorts before PreferredRank.
    assert es.annotation.rank is m.Rank.NORMAL


def test_no_value_statements_come_from_the_candidate_nodes(monkeypatch):
    pairs, descriptors = ModelGen(4).dataset(40)
    no_values = {stmt for stmt, _ in pairs if isinstance(stmt.snak, m.NoValueSnak)}
    assert no_values
    subject = next(iter(sorted({s.subject for s in no_values}, key=m.canonical_key)))
    store = RdfStore(codec.encode_dataset(pairs, descriptors), StoreOptions(page_size=3))
    sent = []
    select = store._backend.select
    monkeypatch.setattr(store._backend, "select", lambda q: sent.append(q) or select(q))
    old_no_value_read = TriplePattern(Var("w"), IriTerm(ns.RDF_TYPE), Var("n"))
    for pattern, expected in ((m.FilterPattern(m.EntityFp(subject)),
                               {s for s in no_values if s.subject == subject}),
                              (m.FilterPattern(), no_values)):
        sent.clear()
        got = list(store.filter(pattern))
        assert sent and not any(old_no_value_read in q.patterns for q in sent), pattern
        tail = got[len(got) - len(expected):]
        assert sorted(tail, key=m.canonical_key) == sorted(expected, key=m.canonical_key)
        assert not expected & set(got[:len(got) - len(expected)])


def test_get_annotations_sends_the_truthy_probe_only_for_a_claim_no_node_carries():
    subject, prop = m.Item(WD + "Q1"), m.Property(WD + "P1")
    noded = m.Statement(subject, m.ValueSnak(prop, m.Item(WD + "Q2")))
    truthy_only = m.Statement(subject, m.ValueSnak(prop, m.Item(WD + "Q3")))
    graph = codec.encode_dataset([(noded, m.AnnotationRecord())])
    graph.update(codec.truthy_graph([(truthy_only, m.AnnotationRecord())]))
    # Both probes read the same nodes, so only with the cache off does the
    # second one send its node read again.
    store = RdfStore(graph, StoreOptions(page_size=100, cache_enabled=False))
    for stmt, requests in ((noded, 1), (truthy_only, 2)):
        before = store.request_count
        assert dict(store.get_annotations([stmt])) == {stmt: frozenset({m.AnnotationRecord()})}
        assert store.request_count - before == requests


def test_a_some_value_claim_sends_its_truthy_probe_though_a_node_carries_it():
    # A wdt: triple may name an unknown value otherwise than the statement
    # node does; that claim is a statement of its own, with a default record.
    stmt = m.Statement(m.Item(WD + "Q1"), m.SomeValueSnak(m.Property(WD + "P1")))
    graph = codec.encode_dataset([(stmt, m.AnnotationRecord(rank=m.Rank.PREFERRED))])
    graph.add(Triple(IriTerm(WD + "Q1"), IriTerm(ns.WDT + "P1"), IriTerm(ns.WDGENID + "other")))
    assert {es.annotation for es in codec.decode(graph).statements} == \
        {m.AnnotationRecord(rank=m.Rank.PREFERRED), m.AnnotationRecord()}
    assert _failures([graph]) == []
