import io
import random

import pytest

from kif import codec
from kif.rdf.ntriples import (NTriplesError, parse_ntriples,
                              serialize_ntriples, SKOLEM_PREFIX)
from kif.rdf.terms import Graph, IriTerm, Literal, Triple

import paper_fixtures as pf
from randgen import ModelGen


def test_single_triple():
    g = parse_ntriples("<http://x.org/s> <http://x.org/p> <http://x.org/o> .")
    assert len(g) == 1
    t = next(iter(g))
    assert t.subject == IriTerm("http://x.org/s")
    assert t.object == IriTerm("http://x.org/o")


def test_empty_input_and_comments():
    assert len(parse_ntriples("")) == 0
    assert len(parse_ntriples("# nothing here\n\n   \n")) == 0


def test_fig3_encoding_has_eleven_triples():
    graph = codec.encode(codec.EncodedStatement(pf.nobel_statement,
                                                pf.nobel_annotation))
    text = serialize_ntriples(graph)
    parsed = parse_ntriples(text)
    assert len(parsed) == 11
    assert set(parsed) == set(graph)


def test_literals_with_datatype_language_and_escapes():
    text = "\n".join([
        '<http://x.org/s> <http://x.org/p> "35339"^^<http://www.w3.org/2001/XMLSchema#decimal> .',
        '<http://x.org/s> <http://x.org/p> "Marie Curie"@en .',
        '<http://x.org/s> <http://x.org/p> "a\\"b\\\\c\\nd" .',
        '<http://x.org/s> <http://x.org/p> "\\u00e9t\\u00e9" .',
    ])
    g = parse_ntriples(text)
    objects = {t.object for t in g}
    assert Literal("35339", "http://www.w3.org/2001/XMLSchema#decimal") in objects
    assert Literal("Marie Curie", language="en") in objects
    assert Literal('a"b\\c\nd') in objects
    assert Literal("été") in objects


def test_blank_nodes_are_skolemized_deterministically():
    doc = "_:a <http://x.org/p> _:b .\n_:a <http://x.org/q> \"x\" ."
    g1, g2 = parse_ntriples(doc), parse_ntriples(doc)
    assert set(g1) == set(g2)
    subjects = {t.subject.value for t in g1}
    assert all(s.startswith(SKOLEM_PREFIX) for s in subjects)
    assert len(subjects) == 1  # both _:a lines agree
    other = parse_ntriples("_:a <http://x.org/p> _:b .")
    assert {t.subject.value for t in other} != subjects  # different document


def test_round_trip_is_identity_on_graphs():
    g = Graph()
    g.add(Triple(IriTerm("http://x.org/s"), IriTerm("http://x.org/p"),
                 Literal("tab\there\nand \"quotes\"")))
    g.add(Triple(IriTerm("http://x.org/s"), IriTerm("http://x.org/p"),
                 Literal("x", language="pt-br")))
    g.add(Triple(IriTerm("http://x.org/s"), IriTerm("http://x.org/q"),
                 IriTerm("urn:uuid:1234")))
    text = serialize_ntriples(g)
    assert set(parse_ntriples(text)) == set(g)
    assert serialize_ntriples(parse_ntriples(text)) == text


def test_round_trip_of_encoded_fixture():
    graph = codec.encode_dataset(pf.wikidata_pairs(), pf.wikidata_descriptors())
    text = serialize_ntriples(graph)
    assert set(parse_ntriples(io.StringIO(text))) == set(graph)


def test_errors_carry_line_numbers():
    with pytest.raises(NTriplesError) as err:
        parse_ntriples("<http://x.org/s> <http://x.org/p> <http://x.org/o> .\nbroken line .")
    assert err.value.line == 2
    with pytest.raises(NTriplesError) as err:
        parse_ntriples("<http://x.org/s> <http://x.org/p> <http://x.org/o>")
    assert "'.'" in str(err.value)
    with pytest.raises(NTriplesError):
        parse_ntriples('<http://x.org/s> <http://x.org/p> "unterminated .')
    with pytest.raises(NTriplesError):
        parse_ntriples("<relative> <http://x.org/p> <http://x.org/o> .")


@pytest.mark.parametrize("datatype", ["", "rel"])
def test_datatype_iris_are_checked_like_other_iris(datatype):
    text = ('<http://x.org/s> <http://x.org/p> "ok" .\n'
            f'<http://x.org/s> <http://x.org/p> "x"^^<{datatype}> .')
    with pytest.raises(NTriplesError) as err:
        parse_ntriples(text)
    assert err.value.line == 2
    assert f"invalid IRI <{datatype}>" in str(err.value)


@pytest.mark.parametrize("literal", [r'"a\u00"', r'"\uZZZZ"'])
def test_invalid_escapes_raise_with_the_line(literal):
    text = ('<http://x.org/s> <http://x.org/p> "ok" .\n'
            f'<http://x.org/s> <http://x.org/p> {literal} .')
    with pytest.raises(NTriplesError) as err:
        parse_ntriples(text)
    assert err.value.line == 2
    assert "invalid escape" in str(err.value)


def test_every_ascii_and_a_non_bmp_character_round_trip():
    text = "".join(map(chr, range(0x80))) + "\U0001F600"
    g = Graph([Triple(IriTerm("http://x.org/s"), IriTerm("http://x.org/p"),
                      Literal(text))])
    written = serialize_ntriples(g)
    assert "\\u001F" in written and "\\t" in written
    assert set(parse_ntriples(written)) == set(g)


def test_single_character_corruption_yields_positioned_errors():
    pairs, descriptors = ModelGen(41).dataset(10)
    text = serialize_ntriples(codec.encode_dataset(pairs, descriptors))
    rng = random.Random(5)
    alphabet = '<>"\\_:.@^# \tx0'
    for _ in range(300):
        pos = rng.randrange(len(text))
        replacement = rng.choice(alphabet)
        if replacement == text[pos]:
            continue
        corrupted = text[:pos] + replacement + text[pos + 1:]
        try:
            parse_ntriples(corrupted)
        except NTriplesError as e:
            # The other lines are intact, so only the corrupted one can fail.
            assert e.line == corrupted.count("\n", 0, pos) + 1
        # A corruption may still parse (e.g. a changed IRI character); that is fine.
