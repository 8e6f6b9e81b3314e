"""A graph written the way Wikidata's RDF dumps write it
(https://www.mediawiki.org/wiki/Wikibase/Indexing/RDF_Dump_Format).

The dumps write every amount with a sign, ``"+180.16"^^xsd:decimal``, in
the ``ps:`` and ``wdt:`` triples and in the deep value's
``wikibase:quantityAmount``; kif's encoder writes ``"180.16"``. Every
store operation compares canonical values in the store, so a statement
that ``filter()`` yields is also found by ``contains()`` and has its
annotation records. The dumps give a unitless amount the unit "1",
``wd:Q199``, which kif reads as no unit.
"""

from decimal import Decimal

import pytest

from kif import model as m
from kif import namespaces as ns
from kif.rdf.ntriples import parse_ntriples
from kif.rdf.server import serve
from kif.mixer import MixerStore
from kif.stores import MemoryStore, RdfStore, SparqlStore, StoreOptions

# Glucose: its mass, with a psv: value node and a reference, and a claim
# that only a truthy triple carries. Prefixed names stand for the IRIs of
# kif.namespaces.WIKIDATA; "xsd:decimal" marks a typed literal.
DUMP = """
wd:Q37525 p:P2067 wds:Q37525-7d0c2f5e-4a1b-4bd6-9b8e-2f1a6c0d9e3a .
wds:Q37525-7d0c2f5e-4a1b-4bd6-9b8e-2f1a6c0d9e3a rdf:type wikibase:Statement .
wds:Q37525-7d0c2f5e-4a1b-4bd6-9b8e-2f1a6c0d9e3a rdf:type wikibase:BestRank .
wds:Q37525-7d0c2f5e-4a1b-4bd6-9b8e-2f1a6c0d9e3a wikibase:rank wikibase:NormalRank .
wds:Q37525-7d0c2f5e-4a1b-4bd6-9b8e-2f1a6c0d9e3a ps:P2067 "+180.16"^^xsd:decimal .
wds:Q37525-7d0c2f5e-4a1b-4bd6-9b8e-2f1a6c0d9e3a psv:P2067 wdv:3e1c4b0f9a8d7e6c5b4a39281706f5e4 .
wds:Q37525-7d0c2f5e-4a1b-4bd6-9b8e-2f1a6c0d9e3a prov:wasDerivedFrom wdref:9c5e3a1b7d2f4e6a8c0b1d3f5a7e9c2b4d6f8a0e .
wdv:3e1c4b0f9a8d7e6c5b4a39281706f5e4 rdf:type wikibase:QuantityValue .
wdv:3e1c4b0f9a8d7e6c5b4a39281706f5e4 wikibase:quantityAmount "+180.16"^^xsd:decimal .
wdv:3e1c4b0f9a8d7e6c5b4a39281706f5e4 wikibase:quantityUnit wd:Q483261 .
wdref:9c5e3a1b7d2f4e6a8c0b1d3f5a7e9c2b4d6f8a0e rdf:type wikibase:Reference .
wdref:9c5e3a1b7d2f4e6a8c0b1d3f5a7e9c2b4d6f8a0e pr:P248 wd:Q278487 .
wd:Q37525 wdt:P2067 "+180.16"^^xsd:decimal .
wd:Q37525 wdt:P1117 "+5"^^xsd:decimal .
"""

glucose = m.Item(ns.WD + "Q37525")
mass = m.Statement(glucose, m.ValueSnak(m.Property(ns.WD + "P2067"),
                                        m.Quantity(Decimal("180.16"), m.Item(ns.WD + "Q483261"))))
pka = m.Statement(glucose, m.ValueSnak(m.Property(ns.WD + "P1117"), m.Quantity(5)))
RECORDS = {
    mass: frozenset({m.AnnotationRecord(references=(m.ReferenceRecord(
        [m.ValueSnak(m.Property(ns.WD + "P248"), m.Item(ns.WD + "Q278487"))]),))}),
    pka: frozenset({m.AnnotationRecord()}),
}


def _term(word: str) -> str:
    if word.startswith('"'):
        lexical, _, datatype = word.partition("^^")
        return f"{lexical}^^<{ns.WIKIDATA.expand(datatype)}>"
    return f"<{ns.WIKIDATA.expand(word)}>"


def _dump_graph(dump: str = DUMP):
    lines = [" ".join(map(_term, line.split()[:3])) + " ."
             for line in dump.strip().splitlines()]
    return parse_ntriples("\n".join(lines))


@pytest.fixture(scope="module")
def graph():
    return _dump_graph()


@pytest.fixture(scope="module")
def server(graph):
    with serve(graph) as running:
        yield running


@pytest.mark.parametrize("size", [1, 3, 100])
@pytest.mark.parametrize("kind", ["rdf", "sparql"])
def test_a_signed_amount_is_found_by_every_operation(graph, server, kind, size):
    options = StoreOptions(page_size=size)
    with (RdfStore(graph, options) if kind == "rdf"
          else SparqlStore(server.url, options)) as store:
        stmts = list(store.filter())
        assert set(stmts) == set(RECORDS)
        assert all(store.contains(stmt) for stmt in stmts)
        assert dict(store.get_annotations(stmts)) == RECORDS


# Glucose's pKa, a unitless amount: the dumps give it the unit "1", wd:Q199.
UNITLESS_DUMP = """
wd:Q37525 p:P1117 wds:Q37525-0b6f4c2e-8d1a-4e3b-9c7f-5a2d6e8b1c40 .
wds:Q37525-0b6f4c2e-8d1a-4e3b-9c7f-5a2d6e8b1c40 rdf:type wikibase:Statement .
wds:Q37525-0b6f4c2e-8d1a-4e3b-9c7f-5a2d6e8b1c40 wikibase:rank wikibase:NormalRank .
wds:Q37525-0b6f4c2e-8d1a-4e3b-9c7f-5a2d6e8b1c40 ps:P1117 "+12.16"^^xsd:decimal .
wds:Q37525-0b6f4c2e-8d1a-4e3b-9c7f-5a2d6e8b1c40 psv:P1117 wdv:7a2e9c4b1d6f8a3e5c0b2d4f6a8e1c3b .
wdv:7a2e9c4b1d6f8a3e5c0b2d4f6a8e1c3b rdf:type wikibase:QuantityValue .
wdv:7a2e9c4b1d6f8a3e5c0b2d4f6a8e1c3b wikibase:quantityAmount "+12.16"^^xsd:decimal .
wdv:7a2e9c4b1d6f8a3e5c0b2d4f6a8e1c3b wikibase:quantityUnit wd:Q199 .
wd:Q37525 wdt:P1117 "+12.16"^^xsd:decimal .
"""

unitless_pka = m.Statement(glucose, m.ValueSnak(m.Property(ns.WD + "P1117"),
                                                m.Quantity(Decimal("12.16"))))


@pytest.fixture(scope="module")
def unitless_graph():
    return _dump_graph(UNITLESS_DUMP)


@pytest.fixture(scope="module")
def unitless_server(unitless_graph):
    with serve(unitless_graph) as running:
        yield running


@pytest.mark.parametrize("size", [1, 3, 100])
@pytest.mark.parametrize("kind", ["rdf", "sparql"])
def test_the_unit_one_reads_as_no_unit(unitless_graph, unitless_server, kind, size):
    options = StoreOptions(page_size=size)
    with (RdfStore(unitless_graph, options) if kind == "rdf"
          else SparqlStore(unitless_server.url, options)) as store:
        assert list(store.filter()) == [unitless_pka]
        assert store.contains(unitless_pka)
        memory = MemoryStore([(m.Statement(glucose, m.ValueSnak(
            m.Property(ns.WD + "P1117"),
            m.Quantity(Decimal("12.16"), m.Item(ns.WD_UNIT_ONE)))), m.AnnotationRecord())])
        assert list(memory.filter()) == [unitless_pka]
        assert MixerStore([store, memory]).count() == 1


# A claim whose value is glucose, so that a value fingerprint on glucose's
# signed mass has a statement to find.
GLUCOSE_AS_VALUE = DUMP + "wd:Q2 wdt:P527 wd:Q37525 .\n"

component = m.Statement(m.Item(ns.WD + "Q2"),
                        m.ValueSnak(m.Property(ns.WD + "P527"), glucose))


@pytest.fixture(scope="module")
def value_graph():
    return _dump_graph(GLUCOSE_AS_VALUE)


@pytest.fixture(scope="module")
def value_server(value_graph):
    with serve(value_graph) as running:
        yield running


@pytest.mark.parametrize("size", [1, 3, 100])
@pytest.mark.parametrize("kind", ["rdf", "sparql"])
def test_a_snak_fingerprint_on_an_amount_matches_the_signed_form(
        value_graph, value_server, kind, size):
    memory = MemoryStore([(stmt, m.AnnotationRecord()) for stmt in (*RECORDS, component)])
    options = StoreOptions(page_size=size)
    with (RdfStore(value_graph, options) if kind == "rdf"
          else SparqlStore(value_server.url, options)) as store:
        for pattern, expected in [
                (m.FilterPattern(m.SnakFp(mass.snak)), set(RECORDS)),
                (m.FilterPattern(value=m.SnakFp(mass.snak)), {component}),
                (m.FilterPattern(m.SnakSetFp([mass.snak, pka.snak])), set(RECORDS)),
                (m.FilterPattern(m.SnakFp(mass.snak), m.EntityFp(mass.snak.property)),
                 {mass})]:
            assert set(memory.filter(pattern)) == expected
            assert set(store.filter(pattern)) == expected
            assert store.count(pattern) == len(expected)
