"""A mapper store answers as its reference, a MemoryStore of its own
statements, and reads descriptors the way the query-backed stores do."""

import pytest

from kif import model as m
from kif.mapper import (DecimalQuantityCodec, EntityRule, IriCodec, MapperStore,
                        MappingSpec, PropertyRule, StringCodec, translate_pattern)
from kif.rdf.terms import Graph, IriTerm, Literal, Triple
from kif.stores import MemoryStore, StoreOptions

import paper_fixtures as pf
from randgen import WD

SRC = "http://example.org/src/"
SRC_TYPE, SRC_NAME, SRC_WEIGHT = SRC + "type", SRC + "name", SRC + "weight"
OTHER = "http://example.org/other/thing"
instance_of = m.Property(WD + "P31")


def _compound(n):
    return m.Item(WD + f"Q_C{n}")


def _three_rule_store(options=None):
    """A source of three compounds under a mapping with an iri, a string
    and a decimal-quantity rule; c1's type is c2, c3's an unmapped IRI."""
    def c(n):
        return IriTerm(SRC + f"c{n}")
    graph = Graph([
        Triple(c(1), IriTerm(SRC_TYPE), c(2)),
        Triple(c(1), IriTerm(SRC_NAME), Literal("one")),
        Triple(c(1), IriTerm(SRC_WEIGHT), Literal("1.5", pf.XSD_DECIMAL)),
        Triple(c(2), IriTerm(SRC_NAME), Literal("two")),
        Triple(c(2), IriTerm(SRC_WEIGHT), Literal("2", pf.XSD_DECIMAL)),
        Triple(c(3), IriTerm(SRC_TYPE), IriTerm(OTHER)),
        Triple(c(3), IriTerm(SRC_NAME), Literal("two")),
    ])
    spec = MappingSpec("three", (EntityRule(SRC + "c{n}", WD + "Q_C{n}"),), (
        PropertyRule(instance_of, SRC_TYPE, IriCodec()),
        PropertyRule(pf.inchi, SRC_NAME, StringCodec()),
        PropertyRule(pf.mass, SRC_WEIGHT, DecimalQuantityCodec(pf.gram_per_mole)),
    ))
    return MapperStore(graph, spec, options)


def _reference_patterns():
    named_two = m.ValueSnak(pf.inchi, m.StringValue("two"))
    light = m.ValueSnak(pf.mass, m.Quantity("1.5", pf.gram_per_mole))
    return [
        m.FilterPattern(),
        m.FilterPattern(m.EntityFp(_compound(1))),
        m.FilterPattern(m.EntityFp(_compound(1)), m.EntityFp(instance_of)),
        m.FilterPattern(m.EntityFp(m.Item(OTHER))),
        m.FilterPattern(m.SnakFp(named_two)),
        m.FilterPattern(m.SnakSetFp([named_two, m.ValueSnak(instance_of, m.Iri(OTHER))])),
        m.FilterPattern(m.SnakFp(light), m.EntityFp(pf.mass)),
        m.FilterPattern(property=m.EntityFp(instance_of)),
        m.FilterPattern(property=m.EntityFp(pf.mass)),
        m.FilterPattern(value=m.EntityFp(_compound(2))),
        m.FilterPattern(property=m.EntityFp(instance_of), value=m.EntityFp(_compound(2))),
        m.FilterPattern(value=m.EntityFp(m.Item(OTHER))),
        m.FilterPattern(value=m.SnakFp(named_two)),
        m.FilterPattern(property=m.EntityFp(instance_of), value=m.SnakFp(named_two)),
        m.FilterPattern(snak_kinds=frozenset({m.SnakKind.SOME_VALUE})),
    ]


@pytest.mark.parametrize("page_size", [1, 3, 100])
def test_mapper_answers_as_a_memory_store_of_its_own_statements(page_size):
    store = _three_rule_store(StoreOptions(page_size=page_size))
    reference = MemoryStore([(stmt, m.AnnotationRecord()) for stmt in store.filter()])
    assert len(list(reference.filter())) == 7
    for pattern in _reference_patterns():
        assert set(store.filter(pattern)) == set(reference.filter(pattern)), pattern
        assert store.count(pattern) == reference.count(pattern), pattern
    probes = list(reference.filter()) + [
        m.Statement(_compound(1), m.ValueSnak(instance_of, _compound(2))),
        m.Statement(_compound(3), m.ValueSnak(instance_of, m.Item(OTHER))),
        m.Statement(_compound(2), m.ValueSnak(pf.inchi, m.StringValue("one"))),
        m.Statement(_compound(1), m.SomeValueSnak(pf.mass)),
    ]
    for stmt in probes:
        assert store.contains(stmt) == reference.contains(stmt), stmt


def test_a_value_fingerprint_sends_no_source_query():
    store = _three_rule_store()
    for pattern in _reference_patterns():
        if pattern.value is not None:
            assert translate_pattern(store.spec, pattern) is None
            assert list(store.filter(pattern)) == [] and store.count(pattern) == 0
    assert store.request_count == 0


# -- descriptors ------------------------------------------------------------------

def test_descriptors_are_read_50_entities_per_query(monkeypatch):
    graph = pf.pubchem_source_graph()
    entities = []
    for n in range(1000, 1120):
        graph.add(Triple(IriTerm(pf.PUBCHEM_COMPOUND.replace("{n}", str(n))),
                         IriTerm(pf.PUBCHEM_TITLE), Literal(f"compound {n}", language="en")))
        entities.append(m.Item(WD + f"Q_PUBCHEM_CID{n}"))
    store = MapperStore(graph, pf.pubchem_mapping(),
                        StoreOptions(page_size=100, cache_enabled=False))
    sent = []
    select = store._backend.select
    monkeypatch.setattr(store._backend, "select", lambda query: sent.append(query) or select(query))
    described = dict(store.get_descriptor(entities + [m.Item(WD + "Q2270")]))
    assert len(sent) == 3
    for query in sent:
        (subjects,) = [block for block in query.values if block.variable == "e"]
        assert len(subjects.terms) <= 50
    for n, entity in zip(range(1000, 1120), entities):
        assert described[entity].label == m.TextValue(f"compound {n}", "en")
    assert described[m.Item(WD + "Q2270")].is_empty()


def test_an_untagged_source_label_counts_as_english():
    graph = pf.pubchem_source_graph()
    graph.add(Triple(IriTerm(pf.PUBCHEM_COMPOUND.replace("{n}", "702")),
                     IriTerm(pf.PUBCHEM_TITLE), Literal("Ethanol")))
    store = MapperStore(graph, pf.pubchem_mapping())
    ethanol = m.Item(WD + "Q_PUBCHEM_CID702")
    (_, english), = store.get_descriptor([ethanol], "en")
    (_, french), = store.get_descriptor([ethanol], "fr")
    assert english.label == m.TextValue("Ethanol", "en")
    assert french.is_empty()
