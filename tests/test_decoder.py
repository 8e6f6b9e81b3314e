import pytest

from kif import codec
from kif import model as m
from kif.decoder import DecoderError, answer, decode
from kif.mixer import MixerStore
from kif.rdf.bgp import match_bgp
from kif.rdf.server import results_to_json
from kif.rdf.sparql import SparqlError, parse_query
from kif.stores import MemoryStore

import paper_fixtures as pf
from randgen import WD, ModelGen

WDT = "http://www.wikidata.org/prop/direct/"


def test_decode_benzene_solubility_query():
    decoded = decode("SELECT ?v WHERE { wd:Q2270 wdt:P2177 ?v } LIMIT 10")
    assert decoded.pattern.subject == m.EntityFp(pf.benzene)
    assert decoded.pattern.property == m.EntityFp(pf.solubility)
    assert decoded.pattern.value is None
    assert decoded.limit == 10
    assert decoded.roles == {"v": "value"}


def test_decode_inchi_join_becomes_a_subject_fingerprint():
    decoded = decode(
        f'SELECT ?s ?v WHERE {{ ?s wdt:P234 "{pf.BENZENE_INCHI}" . '
        f'?s wdt:P2067 ?v }}')
    assert decoded.pattern.subject == m.SnakFp(
        m.ValueSnak(pf.inchi, m.StringValue(pf.BENZENE_INCHI)))
    assert decoded.pattern.property == m.EntityFp(pf.mass)
    assert decoded.roles == {"s": "subject", "v": "value"}


def test_decode_entity_object_constant():
    decoded = decode("SELECT ?x WHERE { ?x wdt:P166 wd:Q38104 }")
    assert decoded.pattern.value == m.EntityFp(pf.nobel_physics)
    assert decoded.pattern.snak_kinds == {m.SnakKind.VALUE}


def test_decode_multiple_fingerprint_snaks_form_a_set():
    decoded = decode(
        f'SELECT ?v WHERE {{ ?s wdt:P234 "{pf.BENZENE_INCHI}" . '
        f'?s wdt:P31 wd:Q11173 . ?s wdt:P2067 ?v }}')
    assert isinstance(decoded.pattern.subject, m.SnakSetFp)
    assert len(decoded.pattern.subject.snaks) == 2


def test_decode_value_fingerprint_via_shared_object_variable():
    decoded = decode(
        'SELECT ?s WHERE { ?s wdt:P166 ?prize . ?prize wdt:P31 wd:Q618779 }')
    assert isinstance(decoded.pattern.value, m.SnakFp)
    assert decoded.pattern.snak_kinds == {m.SnakKind.VALUE}


def test_optional_is_rejected_by_name():
    with pytest.raises(SparqlError) as err:
        decode("SELECT ?v WHERE { OPTIONAL { wd:Q2270 wdt:P2177 ?v } }")
    assert "OPTIONAL" in str(err.value)


def test_rejection_completeness_over_out_of_subset_queries():
    bad = {
        "SELECT ?a ?b WHERE { ?s wdt:P1 ?a . ?s wdt:P2 ?b }":
            "more than one pattern has a variable object",
        "SELECT ?s WHERE { ?s wdt:P1 wd:Q1 . ?x wdt:P2 wd:Q2 }":
            "no claim pattern",
        'SELECT ?s WHERE { ?s wdt:P1 "literal" }': "literal object",
        "SELECT ?s WHERE { ?s rdfs:label ?v }": "not a direct property",
        "SELECT ?v WHERE { wd:Q1 wdt:P1 ?v OFFSET 2": "OFFSET",
        "SELECT ?v WHERE { wd:Q1 wdt:P1 ?v } OFFSET 2": "OFFSET",
        "SELECT ?v WHERE { wd:Q1 wdt:P1 ?v VALUES ?v { wd:Q2 } }": "VALUES",
        "SELECT ?v WHERE { ?v wdt:P2177 ?v }": "one variable for two slots",
        'SELECT ?v WHERE { ?s wdt:P1 ?v . ?x wdt:P2 "x" }':
            "subject or value variable",
    }
    for text, needle in bad.items():
        with pytest.raises((DecoderError, SparqlError)) as err:
            decode(text)
        assert needle in str(err.value), text


def test_several_values_blocks_are_rejected_too():
    text = "SELECT ?v WHERE { ?s wdt:P1 ?v VALUES ?s { wd:Q1 } VALUES ?v { wd:Q2 } }"
    assert len(parse_query(text).values) == 2
    with pytest.raises(DecoderError, match="VALUES"):
        decode(text)


def test_a_prefix_filter_is_rejected():
    text = 'SELECT ?v WHERE { ?s ?p ?v FILTER(STRSTARTS(STR(?p), "a:")) }'
    assert parse_query(text).filters == (("p", "a:"),)
    with pytest.raises(DecoderError, match="FILTER"):
        decode(text)


def test_answer_benzene_solubility():
    payload = answer(pf.wikidata_store(),
                     "SELECT ?v WHERE { wd:Q2270 wdt:P2177 ?v } LIMIT 10")
    rows = payload["results"]["bindings"]
    assert len(rows) == 1
    assert rows[0]["v"] == {
        "type": "literal", "value": "0.07",
        "datatype": "http://www.w3.org/2001/XMLSchema#decimal"}


def test_answer_on_empty_store_is_empty():
    payload = answer(MemoryStore(),
                     "SELECT ?v WHERE { wd:Q2270 wdt:P2177 ?v }")
    assert payload["results"]["bindings"] == []


def test_answer_over_the_paper_mixer():
    mixer = MixerStore([pf.pubchem_store(), pf.wikidata_store()])
    payload = answer(
        mixer,
        f'SELECT ?s ?v WHERE {{ ?s wdt:P234 "{pf.BENZENE_INCHI}" . '
        f'?s wdt:P2067 ?v }}')
    values = {(b["s"]["value"], b["v"]["value"])
              for b in payload["results"]["bindings"]}
    assert values == {(WD + "Q_PUBCHEM_CID241", "78.0469970703125"),
                      (WD + "Q2270", "78.11")}


def _truthy_answer(pairs, query_text):
    graph = codec.truthy_graph(pairs)
    query = parse_query(query_text)
    return results_to_json(query.variables, match_bgp(graph, query))


def test_answer_equals_truthy_graph_evaluation_on_fixture():
    pairs = pf.wikidata_pairs()
    store = MemoryStore(pairs, pf.wikidata_descriptors())
    queries = [
        "SELECT ?v WHERE { wd:Q2270 wdt:P2177 ?v }",
        "SELECT ?x WHERE { ?x wdt:P166 wd:Q38104 }",
        "SELECT ?x ?y WHERE { ?x wdt:P166 ?y }",
        "SELECT ?p ?v WHERE { wd:Q2270 ?p ?v }",
        "SELECT DISTINCT ?x WHERE { ?x wdt:P166 ?y }",
        "SELECT ?x ?y WHERE { ?x wdt:P166 ?y } LIMIT 1",
    ]
    for text in queries:
        assert answer(store, text) == _truthy_answer(pairs, text), text


def test_answer_excludes_deprecated_only_statements():
    deprecated = (m.Statement(pf.benzene, m.ValueSnak(pf.mass, m.Quantity(2))),
                  m.AnnotationRecord(rank=m.Rank.DEPRECATED))
    pairs = pf.wikidata_pairs() + [deprecated]
    store = MemoryStore(pairs)
    text = "SELECT ?v WHERE { wd:Q2270 wdt:P2067 ?v }"
    assert answer(store, text) == _truthy_answer(pairs, text)
    values = [b["v"]["value"]
              for b in answer(store, text)["results"]["bindings"]]
    assert values == ["78.11"]


def test_answer_serializes_some_value_claims_like_the_truthy_graph():
    pairs = [(m.Statement(pf.benzene, m.SomeValueSnak(pf.mass)),
              m.AnnotationRecord()),
             (pf.mass_statement, m.AnnotationRecord())]
    store = MemoryStore(pairs)
    text = "SELECT ?v WHERE { wd:Q2270 wdt:P2067 ?v }"
    assert answer(store, text) == _truthy_answer(pairs, text)


def test_answer_matches_truthy_evaluation_on_random_stores():
    gen = ModelGen(401)
    for round_no in range(15):
        pairs, _ = gen.dataset(20)
        store = MemoryStore(pairs)
        subjects = [stmt.subject for stmt, _ in pairs]
        props = [stmt.snak.property for stmt, _ in pairs]
        s = gen.rng.choice(subjects).iri.value
        p = gen.rng.choice(props).iri.value
        plocal = p.rsplit("/", 1)[1]
        queries = [
            f"SELECT ?s ?v WHERE {{ ?s <{WDT}{plocal}> ?v }}",
            f"SELECT ?p ?v WHERE {{ <{s}> ?p ?v }}",
            f"SELECT ?v WHERE {{ <{s}> <{WDT}{plocal}> ?v }} LIMIT 3",
            f"SELECT DISTINCT ?s WHERE {{ ?s <{WDT}{plocal}> ?v }}",
        ]
        for text in queries:
            assert answer(store, text) == _truthy_answer(pairs, text), text


@pytest.mark.parametrize("text, message", [
    ("SELECT ?s WHERE { ?s wdt:P1 <http://example.org/a> }",
     "object constant <http://example.org/a> is not an entity"),
    ("SELECT ?v WHERE { ?s ?s ?v }", "claim pattern reuses one variable for two slots"),
    ('SELECT ?v WHERE { ?s ?q "x" . ?s wdt:P1 ?v }',
     "auxiliary pattern needs a constant predicate"),
    ('SELECT ?v WHERE { ?s rdfs:label "x" . ?s wdt:P1 ?v }',
     "auxiliary predicate <http://www.w3.org/2000/01/rdf-schema#label> is not a "
     "direct property"),
], ids=["plain IRI object", "subject is predicate", "variable auxiliary predicate",
        "auxiliary predicate outside wdt"])
def test_each_rule_rejects_its_query_by_name(text, message):
    with pytest.raises(DecoderError) as err:
        decode(text)
    assert str(err.value).startswith(message)


def test_answer_skips_a_statement_whose_property_has_no_direct_form():
    foreign = m.Statement(pf.benzene, m.ValueSnak(m.Property("http://example.org/P9"),
                                                  m.StringValue("x")))
    store = MemoryStore([(pf.mass_statement, m.AnnotationRecord()),
                         (foreign, m.AnnotationRecord())])
    assert len(list(store.filter(decode("SELECT ?v WHERE { wd:Q2270 ?p ?v }").pattern))) == 2
    rows = answer(store, "SELECT ?p ?v WHERE { wd:Q2270 ?p ?v }")["results"]["bindings"]
    assert [(b["p"]["value"], b["v"]["value"]) for b in rows] == [(WDT + "P2067", "78.11")]
