"""Control characters in strings survive every backend's text layer.

A value, a qualifier and a label hold U+0001, U+001F, U+007F and U+2028.
The memory store is the reference; the RDF store reads the dataset back
from written N-Triples, and the SPARQL store sends the fingerprints as
query text to an endpoint serving the same graph.
"""

from kif import codec
from kif import model as m
from kif.rdf import ntriples
from kif.rdf.server import serve
from kif.stores import MemoryStore, RdfStore, SparqlStore

from randgen import WD

CONTROL = "a\x01b\x1fc\x7fd\u2028e"

Q1, Q2 = m.Item(WD + "Q1"), m.Item(WD + "Q2")
P1, P2, P3 = (m.Property(WD + f"P{i}") for i in (1, 2, 3))
STRING = m.ValueSnak(P1, m.StringValue(CONTROL))
TEXT = m.ValueSnak(P2, m.TextValue(CONTROL, "fr"))
QUALIFIER = m.ValueSnak(P3, m.StringValue(CONTROL))

PAIRS = [
    (m.Statement(Q1, STRING), m.AnnotationRecord(
        [QUALIFIER], [m.ReferenceRecord([TEXT])], m.Rank.PREFERRED)),
    (m.Statement(Q1, TEXT), m.AnnotationRecord()),
    (m.Statement(Q2, m.ValueSnak(P1, Q1)), m.AnnotationRecord([QUALIFIER])),
]
DESCRIPTORS = {Q1: m.Descriptor(label=m.TextValue(CONTROL, "en"),
                                description=m.TextValue("plain", "en"),
                                aliases=(m.TextValue(CONTROL, "fr"),))}
PATTERNS = [
    m.FilterPattern(),
    m.FilterPattern(m.EntityFp(Q1)),
    m.FilterPattern(m.SnakFp(STRING)),
    m.FilterPattern(m.SnakSetFp([STRING, TEXT]), m.EntityFp(P2)),
    m.FilterPattern(value=m.SnakFp(STRING)),
]


def test_control_characters_give_the_same_answers_on_every_backend():
    text = ntriples.serialize_ntriples(codec.encode_dataset(PAIRS, DESCRIPTORS))
    graph = ntriples.parse_ntriples(text)
    memory = MemoryStore(PAIRS, DESCRIPTORS)
    statements = [stmt for stmt, _ in PAIRS]
    with serve(graph) as server, SparqlStore(server.url) as sparql:
        for store in (RdfStore(graph), sparql):
            for pattern in PATTERNS:
                expected = set(memory.filter(pattern))
                assert expected, pattern
                assert set(store.filter(pattern)) == expected, (store, pattern)
            assert dict(store.get_annotations(statements)) == \
                dict(memory.get_annotations(statements)), store
            for language in ("en", "fr"):
                assert dict(store.get_descriptor([Q1, Q2], language)) == \
                    dict(memory.get_descriptor([Q1, Q2], language)), (store, language)
