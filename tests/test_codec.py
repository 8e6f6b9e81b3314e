import hashlib

import pytest

from kif import codec
from kif import model as m
from kif import namespaces as ns
from kif.rdf.ntriples import serialize_ntriples
from kif.rdf.sparql import serialize_query
from kif.rdf.terms import Graph, IriTerm, Literal, Triple
from kif.stores import MemoryStore, RdfStore

import paper_fixtures as pf
from randgen import WD, ModelGen


def _the(values, what=""):
    assert len(values) == 1, f"expected exactly one {what}: {values!r}"
    return values[0]


def fig3_graph() -> Graph:
    return Graph(codec.encode(codec.EncodedStatement(pf.nobel_statement,
                                                     pf.nobel_annotation)))


def test_fig3_golden_relations_exactly():
    g = fig3_graph()
    marie = IriTerm(pf.marie.iri.value)
    nobel = IriTerm(pf.nobel_physics.iri.value)

    # Resolve the three reified nodes from their link relations.
    wds = _the([t.object for t in g.match(marie, IriTerm(ns.P + "P166"))], "wds")
    wdv = _the([t.object for t in g.match(wds, IriTerm(ns.PQV + "P2121"))], "wdv")
    wdref = _the([t.object for t in g.match(wds, IriTerm(ns.PROV_WAS_DERIVED_FROM))],
                 "wdref")
    assert wds.value.startswith(ns.WDS)
    assert wdv.value.startswith(ns.WDV)
    assert wdref.value.startswith(ns.WDREF)

    decimal_t = ns.XSD_DECIMAL
    expected = {
        Triple(marie, IriTerm(ns.WDT + "P166"), nobel),
        Triple(marie, IriTerm(ns.P + "P166"), wds),
        Triple(wds, IriTerm(ns.PS + "P166"), nobel),
        Triple(wds, IriTerm(ns.WIKIBASE_RANK), IriTerm(ns.WIKIBASE_NORMAL_RANK)),
        Triple(wds, IriTerm(ns.RDF_TYPE), IriTerm(ns.WIKIBASE_BEST_RANK)),
        Triple(wds, IriTerm(ns.PQ + "P2121"), Literal("35339", decimal_t)),
        Triple(wds, IriTerm(ns.PQV + "P2121"), wdv),
        Triple(wdv, IriTerm(ns.WIKIBASE_QUANTITY_AMOUNT), Literal("35339", decimal_t)),
        Triple(wdv, IriTerm(ns.WIKIBASE_QUANTITY_UNIT),
               IriTerm(pf.swedish_krona.iri.value)),
        Triple(wds, IriTerm(ns.PROV_WAS_DERIVED_FROM), wdref),
        Triple(wdref, IriTerm(ns.PR + "P854"), IriTerm(pf.AMOUNTS_URL)),
    }
    assert set(g) == expected
    assert len(g) == 11


def test_fig3_decode_restores_the_input_exactly():
    result = codec.decode(fig3_graph())
    assert result.diagnostics == []
    es = _the(result.statements)
    assert es.statement == pf.nobel_statement
    assert es.annotation == pf.nobel_annotation
    assert es.best is True
    qualifier = _the(list(es.annotation.qualifiers))
    assert qualifier.value == m.Quantity(35339, pf.swedish_krona)
    reference = _the(list(es.annotation.references))
    assert m.ValueSnak(pf.reference_url, m.Iri(pf.AMOUNTS_URL)) in reference.snaks


def test_minimal_encoding_has_no_reified_value_or_reference_nodes():
    stmt = m.Statement(pf.marie, m.ValueSnak(pf.award, pf.nobel_physics))
    g = Graph(codec.encode(codec.EncodedStatement(stmt, m.AnnotationRecord())))
    preds = [t.predicate.value for t in g]
    assert sum(p.startswith(ns.P) and "/" not in p[len(ns.P):] for p in preds) == 1
    assert sum(p.startswith(ns.PS + "P") for p in preds) == 1
    assert sum(p.startswith(ns.WDT) for p in preds) == 1
    assert sum(p == ns.WIKIBASE_RANK for p in preds) == 1
    assert not any(t.subject.value.startswith(ns.WDV) for t in g)
    assert not any(t.object.value.startswith(ns.WDREF)
                   for t in g if isinstance(t.object, IriTerm))


def test_some_value_encodes_to_genid_and_no_value_to_wdno_class():
    some = codec.EncodedStatement(
        m.Statement(pf.benzene, m.SomeValueSnak(pf.mass)), m.AnnotationRecord())
    g = Graph(codec.encode(some))
    obj = _the([t.object for t in g.match(p=IriTerm(ns.PS + "P2067"))])
    assert isinstance(obj, IriTerm) and obj.value.startswith(ns.WDGENID)
    truthy_obj = _the([t.object for t in g.match(p=IriTerm(ns.WDT + "P2067"))])
    assert truthy_obj == obj
    assert _the(codec.decode(g).statements) == some

    none = codec.EncodedStatement(
        m.Statement(pf.benzene, m.NoValueSnak(pf.mass)), m.AnnotationRecord())
    g2 = Graph(codec.encode(none))
    types = [t.object for t in g2.match(p=IriTerm(ns.RDF_TYPE))]
    assert IriTerm(ns.WDNO + "P2067") in types
    assert not list(g2.match(p=IriTerm(ns.WDT + "P2067")))  # no truthy triple
    assert _the(codec.decode(g2).statements) == none


def test_deprecated_statements_emit_no_truthy_triple():
    stmt = m.Statement(pf.benzene, m.ValueSnak(pf.mass, m.Quantity(1)))
    for rank, expect_truthy in ((m.Rank.PREFERRED, True), (m.Rank.NORMAL, True),
                                (m.Rank.DEPRECATED, False)):
        es = codec.EncodedStatement(stmt, m.AnnotationRecord(rank=rank),
                                    best=rank is not m.Rank.DEPRECATED)
        g = Graph(codec.encode(es))
        has_truthy = any(t.predicate.value.startswith(ns.WDT) for t in g)
        assert has_truthy == expect_truthy
        assert _the(codec.decode(g).statements) == es


def test_round_trip_randomized():
    gen = ModelGen(101)
    for _ in range(300):
        es = gen.encoded_statement()
        result = codec.decode(Graph(codec.encode(es)))
        assert result.statements == [es], result.diagnostics


def test_best_rank_flags_within_a_batch():
    s1 = m.Statement(pf.marie, m.ValueSnak(pf.award, pf.nobel_physics))
    s2 = m.Statement(pf.marie, m.ValueSnak(pf.award, pf.willard_gibbs))
    s3 = m.Statement(pf.marie, m.ValueSnak(pf.mass, m.Quantity(1)))
    flagged = codec.best_flags([
        (s1, m.AnnotationRecord(rank=m.Rank.PREFERRED)),
        (s2, m.AnnotationRecord(rank=m.Rank.NORMAL)),
        (s3, m.AnnotationRecord(rank=m.Rank.DEPRECATED)),
    ])
    assert [es.best for es in flagged] == [True, False, False]


def test_double_encode_with_distinct_references_gives_two_records():
    stmt = pf.solubility_statement
    ann1 = m.AnnotationRecord(references=[m.ReferenceRecord(
        [m.ValueSnak(pf.niosh_id, m.StringValue("0049"))])])
    ann2 = m.AnnotationRecord(references=[m.ReferenceRecord(
        [m.ValueSnak(pf.reference_url, m.Iri("https://example.org/other"))])])
    g = codec.encode_statements([(stmt, ann1), (stmt, ann2)])
    result = codec.decode(g)
    assert len(result.statements) == 2
    assert {es.statement for es in result.statements} == {stmt}
    assert {es.annotation for es in result.statements} == {ann1, ann2}


def test_lone_truthy_triple_lifts_to_unitless_quantity():
    g = Graph([Triple(IriTerm(WD + "Q2270"),
                      IriTerm(ns.WDT + "P2177"),
                      Literal("0.07", ns.XSD_DECIMAL))])
    es = _the(codec.decode(g).statements)
    assert es.statement == m.Statement(
        m.Item(WD + "Q2270"),
        m.ValueSnak(m.Property(WD + "P2177"), m.Quantity("0.07")))
    assert es.annotation == m.AnnotationRecord()
    # The lifting agrees with the encoding of the unit-less statement.
    expected_truthy = [t for t in codec.encode(codec.EncodedStatement(
        es.statement, m.AnnotationRecord()))
        if t.predicate.value.startswith(ns.WDT)]
    assert set(expected_truthy) == set(g)


# SHA-256 of the N-Triples of encode_dataset and of truthy_graph over
# ModelGen(seed).dataset(300), computed before the codec's rules were
# gathered into one place each. Statement, value and reference node IRIs are
# digests of the content they encode, so these pin every byte of the output.
GOLDEN_ENCODING_DIGESTS = {
    0: ("1612c905d7b46bb24837dfbf6fb9fa2f188e12a5d62eaafb871ab4c8c8628826",
        "65b0fb49ae92ab2f50b309366dcc24d8e96f77fe2972183285c1b8791bbd6188"),
    1: ("a1de1243594501a7e0881a104b89f222ea393013c72206865f647c6d153ef458",
        "0e927c3abcf0ab5a52d42479700e79bc9ef5e5067a2dda60ba977a7df5e10fa1"),
    2: ("3c7340473749c0669f86e1b5cfba30e5fee9248fd0a412184263e89c4c8db0ba",
        "f0a36da636373768d726c8dac3d072cec222a97a8c508c0d73510adb47433454"),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_ENCODING_DIGESTS))
def test_encoding_is_byte_identical_to_the_golden_digests(seed):
    pairs, descriptors = ModelGen(seed).dataset(300)
    digests = tuple(
        hashlib.sha256(serialize_ntriples(graph).encode("utf-8")).hexdigest()
        for graph in (codec.encode_dataset(pairs, descriptors), codec.truthy_graph(pairs)))
    assert digests == GOLDEN_ENCODING_DIGESTS[seed]


def test_simple_value_lifting_is_idempotent():
    gen = ModelGen(55)
    deep_values = [gen.quantity() for _ in range(50)] + [gen.time() for _ in range(50)]
    for v in deep_values:
        lifted = codec.lift_value(m.simple_value(v))
        assert m.simple_value(lifted) == m.simple_value(v)


@pytest.mark.parametrize("term", [Literal("1.2.3", ns.XSD_DECIMAL),
                                  Literal("2024-13-45T00:00:00Z", ns.XSD_DATE_TIME)])
def test_a_malformed_decimal_or_datetime_lifts_to_a_string_and_stays_as_it_is(term):
    assert codec.lift_value(term) == m.StringValue(term.lexical)
    assert codec.canonical_object_term(term) is term


def test_every_emitted_predicate_is_in_the_namespace_table():
    gen = ModelGen(77)
    table_bases = tuple(ns.WIKIDATA.bases.values())
    for _ in range(100):
        es = gen.encoded_statement()
        for t in codec.encode(es):
            assert any(t.predicate.value.startswith(base) for base in table_bases), \
                t.predicate.value


def test_encode_validation_rejects_out_of_profile_content():
    with pytest.raises(codec.CodecError):
        codec.property_local(m.Property("http://example.org/p"))
    bad_prop = m.Statement(pf.benzene,
                           m.ValueSnak(m.Property("http://example.org/p"),
                                       m.StringValue("x")))
    with pytest.raises(codec.CodecError):
        codec.encode(codec.EncodedStatement(bad_prop, m.AnnotationRecord()))
    foreign_entity = m.Statement(
        pf.benzene, m.ValueSnak(pf.mass, m.Item("http://example.org/Q1")))
    with pytest.raises(codec.CodecError):
        codec.encode(codec.EncodedStatement(foreign_entity, m.AnnotationRecord()))
    reserved_iri = m.Statement(
        pf.benzene, m.ValueSnak(pf.mass, m.Iri(ns.WDGENID + "abc")))
    with pytest.raises(codec.CodecError):
        codec.encode(codec.EncodedStatement(reserved_iri, m.AnnotationRecord()))
    ambiguous_iri = m.Statement(
        pf.benzene, m.ValueSnak(pf.mass, m.Iri(WD + "Q5")))
    with pytest.raises(codec.CodecError):
        codec.encode(codec.EncodedStatement(ambiguous_iri, m.AnnotationRecord()))
    deprecated_best = codec.EncodedStatement(
        m.Statement(pf.benzene, m.ValueSnak(pf.mass, m.Quantity(1))),
        m.AnnotationRecord(rank=m.Rank.DEPRECATED), best=True)
    with pytest.raises(codec.CodecError):
        codec.encode(deprecated_best)


_FOREIGN = "http://example.org/"


@pytest.mark.parametrize("stmt, ann, message", [
    (pf.mass_statement,
     m.AnnotationRecord([m.ValueSnak(m.Property(_FOREIGN + "p"), m.StringValue("x"))]),
     "property IRIs must live in the wd: namespace"),
    (pf.mass_statement,
     m.AnnotationRecord(references=[m.ReferenceRecord(
         [m.ValueSnak(pf.reference_url, m.Item(_FOREIGN + "Q1"))])]),
     "entity values must live in the wd: namespace"),
    (pf.mass_statement,
     m.AnnotationRecord([m.ValueSnak(pf.together_with, m.Iri(ns.WDGENID + "abc"))]),
     "is in a reserved namespace"),
    (m.Statement(m.Item(WD + "P5"), pf.mass_statement.snak), m.AnnotationRecord(),
     "conflicts with its entity kind"),
    (m.Statement(m.Property(_FOREIGN + "p"), pf.mass_statement.snak), m.AnnotationRecord(),
     "property subject"),
], ids=["qualifier-property", "reference-entity", "qualifier-reserved-iri",
        "item-subject-wd-P", "property-subject-outside-wd"])
def test_encode_checks_the_subject_and_every_snak_it_writes(stmt, ann, message):
    with pytest.raises(codec.CodecError, match=message):
        codec.encode(codec.EncodedStatement(stmt, ann))


def test_truthy_graph_rejects_what_the_full_encoding_rejects():
    bad_qualifier = m.AnnotationRecord(
        [m.ValueSnak(m.Property(_FOREIGN + "p"), m.StringValue("x"))])
    with pytest.raises(codec.CodecError):
        codec.truthy_graph([(pf.mass_statement, bad_qualifier)])


def test_malformed_reification_is_skipped_with_diagnostics():
    g = Graph([Triple(IriTerm(WD + "Q1"), IriTerm(ns.P + "P1"),
                      IriTerm(ns.WDS + "deadbeef"))])
    result = codec.decode(g)
    assert result.statements == []
    assert any("no ps:P1" in d for d in result.diagnostics)


# ---------------------------------------------------------------------------
# Query compilation
# ---------------------------------------------------------------------------

def test_compile_filter_truthy_subject_and_property():
    pattern = m.FilterPattern(m.EntityFp(pf.benzene), m.EntityFp(pf.solubility))
    query = codec.compile_truthy_plan(pattern).query.with_page(10, None)
    assert serialize_query(query) == (
        "SELECT ?v WHERE { "
        "<http://www.wikidata.org/entity/Q2270> "
        "<http://www.wikidata.org/prop/direct/P2177> ?v . } LIMIT 10")


def test_compile_filter_fingerprint_joins_on_subject_variable():
    pattern = m.FilterPattern(
        subject=m.SnakFp(m.ValueSnak(pf.inchi, m.StringValue(pf.BENZENE_INCHI))),
        property=m.EntityFp(pf.mass))
    query = codec.compile_truthy_plan(pattern).query
    assert len(query.patterns) == 2
    main, aux = query.patterns
    assert main.subject == aux.subject  # joined on ?s
    assert aux.predicate == IriTerm(ns.WDT + "P234")
    assert aux.object == Literal(pf.BENZENE_INCHI)


def test_compile_filter_wildcard_uses_variable_predicate():
    query = codec.compile_truthy_plan(m.FilterPattern()).query
    assert serialize_query(query) == (
        'SELECT ?s ?p ?v WHERE { ?s ?p ?v . '
        'FILTER(STRSTARTS(STR(?p), "http://www.wikidata.org/prop/direct/")) }')


def test_compile_filter_full_level_targets_statement_nodes():
    pattern = m.FilterPattern(m.EntityFp(pf.benzene), m.EntityFp(pf.solubility))
    # An entity subject folds the statement nodes' triples into the query;
    # without a value it reads every node of the property.
    text = serialize_query(codec.compile_full_plan(pattern).query)
    assert ns.P + "P2177" in text and "?w ?q ?o" in text
    assert ns.PS + "P2177" not in text
    # An entity value is matched in the query, on the nodes' ps: values.
    pattern = m.FilterPattern(m.EntityFp(pf.marie), m.EntityFp(pf.award),
                              m.EntityFp(pf.nobel_physics))
    plan = codec.compile_full_plan(pattern)
    text = serialize_query(plan.query)
    assert plan.object_term == IriTerm(pf.nobel_physics.iri.value)
    assert ns.P + "P166" in text and ns.PS + "P166" in text and "?w ?q ?o" in text


def test_compile_annotations_resolves_statement_nodes(monkeypatch):
    store = RdfStore(codec.encode_dataset(pf.wikidata_pairs()))
    sent = []
    select = store._backend.select
    monkeypatch.setattr(store._backend, "select",
                        lambda q: sent.append(q) or select(q))
    probes = [pf.solubility_statement, pf.mass_statement]
    assert dict(store.get_annotations(probes)) == \
        dict(MemoryStore(pf.wikidata_pairs()).get_annotations(probes))
    # The first query reads the statement nodes of the subject and property
    # with their triples, without the value: it is compared in the store.
    text = serialize_query(sent[0])
    assert ns.P + "P2177" in text and "?w ?q ?o" in text
    assert ns.PS + "P2177" not in text and '"0.07"' not in text


def test_truthy_graph_contains_only_direct_claims():
    pairs = pf.wikidata_pairs() + [
        (m.Statement(pf.benzene, m.ValueSnak(pf.mass, m.Quantity(2))),
         m.AnnotationRecord(rank=m.Rank.DEPRECATED)),
        (m.Statement(pf.benzene, m.NoValueSnak(pf.solubility)),
         m.AnnotationRecord()),
    ]
    g = codec.truthy_graph(pairs)
    assert all(t.predicate.value.startswith(ns.WDT) for t in g)
    assert not any(t.object == Literal("2", ns.XSD_DECIMAL) for t in g)
    # Value claims of the fixture: nobel, gibbs, solubility, mass, inchi.
    assert len(g) == 5
