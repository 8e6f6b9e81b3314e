import json

import pytest

from kif import model as m
from kif.mapper import (DecimalQuantityCodec, EntityRule, IriCodec, MapperStore,
                        MappingError, MappingSpec, PropertyRule, StringCodec,
                        TextCodec, translate_pattern, translate_results)
from kif.rdf.sparql import serialize_query
from kif.rdf.terms import IriTerm, Literal, Triple
from kif.stores import MemoryStore, StoreOptions

import paper_fixtures as pf
from randgen import WD


@pytest.fixture()
def store():
    return pf.pubchem_store()


def test_translate_inchi_fingerprint_plus_mass():
    spec = pf.pubchem_mapping()
    pattern = m.FilterPattern(
        subject=m.SnakFp(m.ValueSnak(pf.inchi, m.StringValue(pf.BENZENE_INCHI))),
        property=m.EntityFp(pf.mass))
    query = translate_pattern(spec, pattern)
    assert query is not None
    text = serialize_query(query)
    assert pf.PUBCHEM_INCHI in text and pf.PUBCHEM_WEIGHT in text
    assert text.count("?s") >= 2  # patterns joined on the subject variable


def test_translate_unmapped_property_is_unsupported():
    spec = pf.pubchem_mapping()
    pattern = m.FilterPattern(property=m.EntityFp(pf.solubility))
    assert translate_pattern(spec, pattern) is None


def test_translate_wildcard_expands_to_mapped_predicates():
    spec = pf.pubchem_mapping()
    query = translate_pattern(spec, m.FilterPattern())
    assert query is not None
    (block,) = query.values
    assert block.variable == "p"
    assert set(block.terms) == {IriTerm(pf.PUBCHEM_INCHI),
                                IriTerm(pf.PUBCHEM_WEIGHT)}


def test_translate_results_rewrites_subject_and_decodes_value():
    spec = pf.pubchem_mapping()
    rows = [{"s": IriTerm(pf.PUBCHEM_COMPOUND.replace("{n}", "241")),
             "v": Literal("78.0469970703125", pf.XSD_DECIMAL)}]
    rule = spec.rule_for(pf.mass)
    (stmt,) = translate_results(spec, rows, fixed_rule=rule)
    assert stmt == pf.pubchem_mass_statement
    assert stmt.subject.iri.value == WD + "Q_PUBCHEM_CID241"


def test_translate_results_skips_malformed_literals(caplog):
    spec = pf.pubchem_mapping()
    rows = [{"s": IriTerm(pf.PUBCHEM_COMPOUND.replace("{n}", "241")),
             "v": Literal("not-a-number", pf.XSD_DECIMAL)}]
    rule = spec.rule_for(pf.mass)
    with caplog.at_level("WARNING"):
        out = list(translate_results(spec, rows, fixed_rule=rule))
    assert out == []
    assert any("cannot decode" in r.message for r in caplog.records)


def test_round_trip_matches_a_hand_built_target_store(store):
    ethanol = m.Item(WD + "Q_PUBCHEM_CID702")
    expected = MemoryStore([
        (pf.pubchem_mass_statement, m.AnnotationRecord()),
        (m.Statement(pf.pubchem_benzene,
                     m.ValueSnak(pf.inchi, m.StringValue(pf.BENZENE_INCHI))),
         m.AnnotationRecord()),
        (m.Statement(ethanol, m.ValueSnak(
            pf.inchi, m.StringValue("InChI=1S/C2H6O/c1-2-3/h3H,2H2,1H3"))),
         m.AnnotationRecord()),
        (m.Statement(ethanol, m.ValueSnak(
            pf.mass, m.Quantity("46.07", pf.gram_per_mole))),
         m.AnnotationRecord()),
    ])
    assert set(store.filter()) == set(expected.filter())
    pattern = m.FilterPattern(property=m.EntityFp(pf.mass))
    assert set(store.filter(pattern)) == set(expected.filter(pattern))


def test_mapper_store_answers_the_benzene_mass_query(store):
    pattern = m.FilterPattern(
        subject=m.SnakFp(m.ValueSnak(pf.inchi, m.StringValue(pf.BENZENE_INCHI))),
        property=m.EntityFp(pf.mass))
    assert list(store.filter(pattern)) == [pf.pubchem_mass_statement]


def test_unsupported_pattern_issues_no_source_query(store):
    pattern = m.FilterPattern(property=m.EntityFp(pf.solubility))
    before = store.request_count
    assert list(store.filter(pattern)) == []
    assert store.count(pattern) == 0
    assert store.request_count == before


def test_limit_stops_reading_the_source_and_pages_are_cached():
    graph = pf.pubchem_source_graph()
    for n in range(1000, 1040):
        graph.add(Triple(IriTerm(pf.PUBCHEM_COMPOUND.replace("{n}", str(n))),
                         IriTerm(pf.PUBCHEM_WEIGHT), Literal(f"{n}.5", pf.XSD_DECIMAL)))
    pattern = m.FilterPattern(property=m.EntityFp(pf.mass))
    options = StoreOptions(page_size=4)
    unlimited = MapperStore(graph, pf.pubchem_mapping(), options)
    assert len(list(unlimited.filter(pattern))) == 42
    limited = MapperStore(graph, pf.pubchem_mapping(), options)
    assert len(list(limited.filter(pattern, limit=1))) == 1
    assert limited.request_count < unlimited.request_count
    before = limited.request_count
    assert len(list(limited.filter(pattern, limit=1))) == 1
    assert limited.request_count == before


def test_contains_outside_mapped_vocabulary_is_false(store):
    assert store.contains(pf.pubchem_mass_statement)
    assert not store.contains(pf.solubility_statement)
    assert not store.contains(m.Statement(pf.pubchem_benzene,
                                          m.SomeValueSnak(pf.mass)))


def test_contains_outside_mapped_vocabulary_sends_no_source_query(store):
    before = store.request_count
    assert not store.contains(pf.solubility_statement)
    assert not store.contains(m.Statement(pf.pubchem_benzene,
                                          m.SomeValueSnak(pf.mass)))
    assert store.request_count == before


def test_annotations_default_to_normal_rank_plus_extra_references():
    tag = m.ReferenceRecord([m.ValueSnak(pf.reference_url,
                                         m.Iri("https://example.org/pubchem"))])
    store = pf.pubchem_store(StoreOptions(extra_references=(tag,)))
    (_, records), = store.get_annotations([pf.pubchem_mass_statement])
    record, = records
    assert record.rank is m.Rank.NORMAL
    assert record.qualifiers == ()
    assert record.references == (tag,)
    (_, absent), = store.get_annotations([pf.solubility_statement])
    assert absent == frozenset()


def test_descriptor_served_only_through_label_rule(store):
    (_, desc), = store.get_descriptor([pf.pubchem_benzene])
    assert desc.label == m.TextValue("Benzene", "en")
    unlabeled = MapperStore(pf.pubchem_source_graph(),
                            MappingSpec("bare", (), pf.pubchem_mapping().property_rules))
    (_, empty), = unlabeled.get_descriptor([pf.pubchem_benzene])
    assert empty.is_empty()


def test_entity_rule_rewrite_is_bijective_on_matching_iris():
    rule = EntityRule(pf.PUBCHEM_COMPOUND, WD + "Q_PUBCHEM_CID{n}")
    for n in ("1", "241", "99999", "a1b2"):
        source = pf.PUBCHEM_COMPOUND.replace("{n}", n)
        target = rule.to_target(source)
        assert target == WD + f"Q_PUBCHEM_CID{n}"
        assert rule.to_source(target) == source
    assert rule.to_target("http://elsewhere.org/CID241") is None
    assert rule.to_source(WD + "Q2270") is None


def test_mapper_soundness_only_target_properties_come_back(store):
    spec = pf.pubchem_mapping()
    allowed = {rule.property for rule in spec.property_rules}
    for pattern in (m.FilterPattern(),
                    m.FilterPattern(property=m.EntityFp(pf.mass)),
                    m.FilterPattern(subject=m.EntityFp(pf.pubchem_benzene))):
        for stmt in store.filter(pattern):
            assert stmt.snak.property in allowed


def _spec_of_every_codec() -> MappingSpec:
    """A spec with an iri codec, a text codec of a non-default language and
    a decimal-quantity codec that carries a unit."""
    return MappingSpec("codecs", (), (
        PropertyRule(m.Property(WD + "P1"), "http://x.org/home", IriCodec()),
        PropertyRule(m.Property(WD + "P2"), "http://x.org/name", TextCodec("pt")),
        PropertyRule(m.Property(WD + "P3"), "http://x.org/mass",
                     DecimalQuantityCodec(m.Item(WD + "Q11570"))),
    ))


def test_mapping_spec_json_round_trip(tmp_path):
    for spec in (pf.pubchem_mapping(), _spec_of_every_codec()):
        path = tmp_path / f"{spec.name}.json"
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        loaded = MappingSpec.load(str(path))
        assert loaded == spec


def test_an_unknown_codec_kind_is_a_mapping_error():
    data = _spec_of_every_codec().to_dict()
    data["property_rules"][0]["codec"] = {"kind": "date"}
    with pytest.raises(MappingError, match="unknown value codec kind 'date'"):
        MappingSpec.from_dict(data)


@pytest.mark.parametrize("data, message", [
    ({"entity_rules": [{}]}, "entity_rules[0] has no 'source'"),
    ([], "a mapping document must be an object, got []"),
    ({"property_rules": [{"property": 5, "source_predicate": "x"}]},
     "property_rules[0]: 'property' must be a string, got 5"),
    ({"property_rules": [{"property": WD + "P1"}]},
     "property_rules[0] has no 'source_predicate'"),
    ({"entity_rules": "ab"}, "the mapping document: 'entity_rules' must be a list, got 'ab'"),
], ids=["no-source", "a-list", "property-not-a-string", "no-source-predicate",
        "rules-not-a-list"])
def test_a_document_of_the_wrong_shape_is_a_mapping_error(data, message):
    with pytest.raises(MappingError) as err:
        MappingSpec.from_dict(data)
    assert str(err.value) == message


def test_mapping_spec_validation():
    with pytest.raises(MappingError):
        EntityRule("http://x.org/no-capture", WD + "Q{n}")
    with pytest.raises(MappingError):
        MappingSpec("dup", (), (
            PropertyRule(pf.mass, "http://x.org/a", StringCodec()),
            PropertyRule(pf.mass, "http://x.org/b", StringCodec()),
        ))


def test_value_codecs():
    dq = DecimalQuantityCodec(pf.gram_per_mole)
    assert dq.decode(Literal("78.11", pf.XSD_DECIMAL)) == \
        m.Quantity("78.11", pf.gram_per_mole)
    assert dq.decode(Literal("oops", pf.XSD_DECIMAL)) is None
    assert dq.encode(m.Quantity("1.5", pf.gram_per_mole)) == \
        Literal("1.5", pf.XSD_DECIMAL)
    assert dq.encode(m.Quantity("1.5")) is None  # unit mismatch
    tc = TextCodec("en")
    assert tc.decode(Literal("hi", language="en")) == m.TextValue("hi", "en")
    assert tc.encode(m.TextValue("hi", "fr")) is None


def test_a_codec_of_the_unit_one_takes_unitless_amounts():
    one = DecimalQuantityCodec(m.Item(WD + "Q199"))
    assert one.encode(m.Quantity("1.5")) == Literal("1.5", pf.XSD_DECIMAL)
    assert one.encode(m.Quantity("1.5", None, "1")) is None
    assert one.decode(Literal("1.5", pf.XSD_DECIMAL)) == m.Quantity("1.5")
