"""A graph written the way Wikidata's RDF dumps write it
(https://www.mediawiki.org/wiki/Wikibase/Indexing/RDF_Dump_Format).

The dumps write every amount with a sign, ``"+180.16"^^xsd:decimal``, in
the ``ps:`` and ``wdt:`` triples and in the deep value's
``wikibase:quantityAmount``; kif's encoder writes ``"180.16"``. Every
store operation compares canonical values in the store, so a statement
that ``filter()`` yields is also found by ``contains()`` and has its
annotation records.
"""

from decimal import Decimal

import pytest

from kif import model as m
from kif import namespaces as ns
from kif.rdf.ntriples import parse_ntriples
from kif.rdf.server import serve
from kif.stores import RdfStore, SparqlStore, StoreOptions

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


def _dump_graph():
    lines = [" ".join(map(_term, line.split()[:3])) + " ."
             for line in DUMP.strip().splitlines()]
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
