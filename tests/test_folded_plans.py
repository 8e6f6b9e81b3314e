"""Bound-subject operations read the statement nodes with their candidates.

A filter, count, contains or annotation probe whose subject is an entity
sends one query that returns the candidate statement nodes together with
their triples; only the nodes these link to are fetched afterwards.
"""

import logging

import pytest

from kif import codec
from kif import model as m
from kif import namespaces as ns
from kif.rdf.bgp import match_bgp
from kif.rdf.server import serve
from kif.rdf.terms import Graph, IriTerm, Triple
from kif.stores import MemoryStore, RdfStore, SparqlStore, StoreOptions

import paper_fixtures as pf
from randgen import WD, ModelGen

UNPAGED = 100_000


@pytest.fixture(scope="module")
def dataset():
    pairs, descriptors = ModelGen(31).dataset(60)
    subjects = [stmt.subject for stmt, _ in pairs]
    subject = max(subjects, key=lambda s: (subjects.count(s), s.iri.value))
    # A no-value statement of a property the subject also has values of.
    prop = next(stmt.snak.property for stmt, _ in pairs if stmt.subject == subject)
    pairs = pairs + [(m.Statement(subject, m.NoValueSnak(prop)), m.AnnotationRecord())]
    return pairs, descriptors, subject


@pytest.fixture(scope="module")
def graph(dataset):
    pairs, descriptors, _ = dataset
    return codec.encode_dataset(pairs, descriptors)


@pytest.fixture(scope="module")
def endpoint(graph):
    with serve(graph) as server:
        yield server


def _answers(store, pairs, subject):
    """The ordered answers of every bound-subject operation on *subject*."""
    stmts = [stmt for stmt, _ in pairs if stmt.subject == subject]
    props = sorted({stmt.snak.property for stmt in stmts}, key=m.canonical_key)
    patterns = [m.FilterPattern(m.EntityFp(subject))] + [
        m.FilterPattern(m.EntityFp(subject), m.EntityFp(p)) for p in props]
    absent = m.Statement(subject, m.ValueSnak(props[0], m.StringValue("absent")))
    probes = stmts + [absent, m.Statement(subject, m.NoValueSnak(m.Property(WD + "P999")))]
    return {
        "filter": [list(store.filter(p)) for p in patterns],
        "count": [store.count(p) for p in patterns],
        "contains": [store.contains(s) for s in probes],
        "annotations": list(store.get_annotations(probes)),
    }


def _as_sets(answers):
    return {"filter": [set(f) for f in answers["filter"]],
            "count": answers["count"],
            "contains": answers["contains"],
            "annotations": dict(answers["annotations"])}


def test_the_subjects_node_triples_span_pages(dataset, graph):
    _, _, subject = dataset
    plan = codec.compile_full_plan(m.FilterPattern(m.EntityFp(subject)))
    assert plan.folded
    assert len(match_bgp(graph, plan.query)) > 7 * 3


@pytest.mark.parametrize("cache", [True, False])
@pytest.mark.parametrize("size", [1, 3, 7])
def test_paged_folded_answers_equal_the_unpaged_ones(dataset, graph, endpoint, size, cache):
    pairs, descriptors, subject = dataset
    expected = _as_sets(_answers(MemoryStore(pairs, descriptors), pairs, subject))
    for make in (lambda o: RdfStore(graph, o), lambda o: SparqlStore(endpoint.url, o)):
        with make(StoreOptions(page_size=UNPAGED, cache_enabled=cache)) as store:
            unpaged = _answers(store, pairs, subject)
        with make(StoreOptions(page_size=size, cache_enabled=cache)) as store:
            paged = _answers(store, pairs, subject)
        assert paged == unpaged
        assert _as_sets(paged) == expected


def test_a_bound_subject_and_property_filter_takes_two_requests():
    # One query for the statement nodes with their triples, one for the
    # truthy claims; the no-value statements come from the first.
    store = RdfStore(codec.encode_dataset(pf.wikidata_pairs()),
                     StoreOptions(page_size=UNPAGED))
    pattern = m.FilterPattern(m.EntityFp(pf.marie), m.EntityFp(pf.award))
    assert len(list(store.filter(pattern))) == 2
    assert store.request_count == 2


def test_four_descriptors_take_one_request():
    gen = ModelGen(5)
    pairs, descriptors = gen.dataset(10)
    entities = list(descriptors)[:3] + [m.Item(WD + "Q404")]
    store = RdfStore(codec.encode_dataset(pairs, descriptors),
                     StoreOptions(page_size=UNPAGED, cache_enabled=False))
    for requests, language in enumerate(("en", "fr"), 1):
        assert dict(store.get_descriptor(entities, language)) == \
            dict(MemoryStore(pairs, descriptors).get_descriptor(entities, language))
        assert store.request_count == requests


def test_a_malformed_deep_value_drops_its_statement_and_is_logged(caplog):
    stmt = pf.solubility_statement
    graph = codec.encode_dataset([(stmt, pf.solubility_annotation)])
    amount = IriTerm(ns.WIKIBASE_QUANTITY_AMOUNT)
    truthy = IriTerm(ns.WDT + "P2177")
    graph = Graph([Triple(t.subject, t.predicate, IriTerm(WD + "Q1"))
                   if t.predicate == amount else t
                   for t in graph if t.predicate != truthy])
    store = RdfStore(graph)
    pattern = m.FilterPattern(m.EntityFp(stmt.subject), m.EntityFp(stmt.snak.property))
    with caplog.at_level(logging.WARNING, logger="kif.stores.backed"):
        assert list(store.filter(pattern)) == []
        assert dict(store.get_annotations([stmt])) == {stmt: frozenset()}
    messages = [r.getMessage() for r in caplog.records if r.name == "kif.stores.backed"]
    assert len(messages) == 2
    assert all("quantity amount is not a literal" in msg for msg in messages)


def test_a_link_to_a_node_without_a_value_is_reported_once_per_reading(caplog):
    # A p: link to a ranked node that has neither a ps: value nor a wdno: type.
    pairs = pf.wikidata_pairs()
    graph = codec.encode_dataset(pairs)
    dangling = IriTerm(ns.WDS + "dangling")
    graph.add(Triple(IriTerm(pf.marie.iri.value), IriTerm(ns.P + "P166"), dangling))
    graph.add(Triple(dangling, IriTerm(ns.WIKIBASE_RANK), IriTerm(ns.WIKIBASE_NORMAL_RANK)))
    store, expected = RdfStore(graph), MemoryStore(pairs)
    message = f"statement node {dangling.value} has a p:P166 link but no ps:P166 value"

    def logged():
        return [r.getMessage() for r in caplog.records if r.name == "kif.stores.backed"]

    with caplog.at_level(logging.WARNING, logger="kif.stores.backed"):
        for pattern in (m.FilterPattern(m.EntityFp(pf.marie), m.EntityFp(pf.award)),
                        m.FilterPattern(m.EntityFp(pf.marie))):
            caplog.clear()
            assert set(store.filter(pattern)) == set(expected.filter(pattern))
            assert len(logged()) == 1 and message in logged()[0]
            assert store.count(pattern) == expected.count(pattern)
            assert len(logged()) == 2 and message in logged()[1]
        # The annotation queries read only nodes that carry their statement:
        # a ps: value, or the wdno: type of a no-value statement.
        caplog.clear()
        probes = [pf.nobel_statement, pf.gibbs_statement,
                  m.Statement(pf.marie, m.NoValueSnak(pf.award))]
        assert dict(store.get_annotations(probes)) == dict(expected.get_annotations(probes))
        assert logged() == []


def test_the_annotations_of_a_no_value_statement_read_only_its_nodes(dataset, graph):
    pairs, descriptors, subject = dataset
    stmt = m.Statement(subject, pairs[-1][0].snak)
    plocal = codec.property_local(stmt.snak.property)
    linked = [t.object for t in graph.match(IriTerm(subject.iri.value), IriTerm(ns.P + plocal))]
    no_value = [node for node in linked
                if IriTerm(ns.WDNO + plocal) in graph.objects(node, IriTerm(ns.RDF_TYPE))]
    assert len(no_value) < len(linked)    # the subject has values of the property too
    store = RdfStore(graph, StoreOptions(page_size=1, cache_enabled=False))
    assert dict(store.get_annotations([stmt])) == \
        dict(MemoryStore(pairs, descriptors).get_annotations([stmt]))
    # One page per triple of the no-value nodes, then the empty last page;
    # they link to no qualifier or reference nodes.
    rows = sum(1 for node in no_value for _ in graph.match(node))
    assert store.request_count == rows + 1
