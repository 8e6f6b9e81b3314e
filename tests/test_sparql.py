import random

import pytest

from kif.rdf.bgp import match_bgp
from kif.rdf.sparql import (SelectQuery, SparqlError, TriplePattern,
                            ValuesBlock, Var, parse_query, serialize_query)
from kif.rdf.terms import Graph, IriTerm, Literal, Triple

from oracles import brute_force_bgp

WD = "http://www.wikidata.org/entity/"
WDT = "http://www.wikidata.org/prop/direct/"
XSD_DECIMAL = "http://www.w3.org/2001/XMLSchema#decimal"


def _marie_truthy() -> Graph:
    g = Graph()
    g.add(Triple(IriTerm(WD + "Q7286"), IriTerm(WDT + "P166"),
                 IriTerm(WD + "Q38104")))
    g.add(Triple(IriTerm(WD + "Q7286"), IriTerm(WDT + "P166"),
                 IriTerm(WD + "Q902788")))
    return g


def test_pattern_over_two_award_triples_gives_two_bindings():
    q = parse_query("SELECT ?x ?y WHERE { ?x wdt:P166 ?y }")
    rows = match_bgp(_marie_truthy(), q)
    assert len(rows) == 2
    assert {r["y"] for r in rows} == {IriTerm(WD + "Q38104"),
                                      IriTerm(WD + "Q902788")}


def test_unsatisfiable_pattern_is_empty():
    q = parse_query("SELECT ?x WHERE { ?x wdt:P999 wd:Q1 }")
    assert match_bgp(_marie_truthy(), q) == []


def test_join_on_inchi_and_mass():
    g = Graph()
    cid = IriTerm(WD + "Q_PUBCHEM_CID241")
    g.add(Triple(cid, IriTerm(WDT + "P234"),
                 Literal("InChI=1S/C6H6/c1-2-4-6-5-3-1/h1-6H")))
    g.add(Triple(cid, IriTerm(WDT + "P2067"),
                 Literal("78.0469970703125", XSD_DECIMAL)))
    g.add(Triple(IriTerm(WD + "Q999"), IriTerm(WDT + "P2067"),
                 Literal("1.0", XSD_DECIMAL)))
    q = parse_query(
        'SELECT ?v WHERE { ?s wdt:P234 "InChI=1S/C6H6/c1-2-4-6-5-3-1/h1-6H" . '
        '?s wdt:P2067 ?v }')
    rows = match_bgp(g, q)
    assert rows == [{"v": Literal("78.0469970703125", XSD_DECIMAL)}]


def test_distinct_limit_offset():
    g = _marie_truthy()
    q = parse_query("SELECT ?x WHERE { ?x wdt:P166 ?y }")
    assert len(match_bgp(g, q)) == 2  # one row per solution
    qd = parse_query("SELECT DISTINCT ?x WHERE { ?x wdt:P166 ?y }")
    assert len(match_bgp(g, qd)) == 1
    q1 = parse_query("SELECT ?x ?y WHERE { ?x wdt:P166 ?y } LIMIT 1")
    assert len(match_bgp(g, q1)) == 1
    q_off = parse_query("SELECT ?x ?y WHERE { ?x wdt:P166 ?y } OFFSET 1")
    assert len(match_bgp(g, q_off)) == 1
    assert match_bgp(g, q1) + match_bgp(g, q_off) == match_bgp(
        g, parse_query("SELECT ?x ?y WHERE { ?x wdt:P166 ?y }"))


def test_values_block_joins():
    g = _marie_truthy()
    q = parse_query(
        "SELECT ?y WHERE { wd:Q7286 wdt:P166 ?y "
        "VALUES ?y { wd:Q38104 wd:Q555 } }")
    assert match_bgp(g, q) == [{"y": IriTerm(WD + "Q38104")}]


def test_serializer_round_trips_through_parser():
    q = SelectQuery(
        ("s", "v"),
        (TriplePattern(Var("s"), IriTerm(WDT + "P2177"), Var("v")),
         TriplePattern(Var("s"), IriTerm(WDT + "P234"), Literal('say "hi"'))),
        distinct=True,
        values=(ValuesBlock("s", (IriTerm(WD + "Q2270"),)),),
        limit=10, offset=5)
    text = serialize_query(q)
    assert serialize_query(parse_query(text)) == text


def test_several_values_blocks_round_trip_and_join_as_a_cross_product():
    text = ("SELECT ?e ?d ?x WHERE { ?e ?d ?x . "
            "VALUES ?e { wd:Q7286 wd:Q2270 wd:Q7286 } "
            "VALUES ?d { wdt:P166 wdt:P999 } }")
    q = parse_query(text)
    assert [(b.variable, len(b.terms)) for b in q.values] == [("e", 3), ("d", 2)]
    assert parse_query(serialize_query(q)) == q
    assert serialize_query(parse_query(serialize_query(q))) == serialize_query(q)
    g = _marie_truthy()
    rows = match_bgp(g, q)
    assert rows == brute_force_bgp(g, q)
    assert {r["x"] for r in rows} == {IriTerm(WD + "Q38104"), IriTerm(WD + "Q902788")}
    with pytest.raises(SparqlError, match="two VALUES blocks bind"):
        parse_query("SELECT ?e WHERE { ?e ?d ?x VALUES ?e { wd:Q1 } VALUES ?e { wd:Q2 } }")


def test_rejections_name_the_construct_with_position():
    cases = {
        "SELECT * WHERE { ?s ?p ?o }": "star projection",
        "SELECT ?s WHERE { OPTIONAL { ?s ?p ?o } }": "OPTIONAL",
        "SELECT ?s WHERE { ?s ?p ?o FILTER(?s > 1) }": "FILTER",
        "PREFIX ex: <http://x.org/> SELECT ?s WHERE { ?s ?p ?o }": "PREFIX",
        "SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s": "ORDER",
        "SELECT ?s WHERE { { ?s ?p ?o } UNION { ?s ?p ?o } }": "UNION",
        "ASK { ?s ?p ?o }": "ASK",
        "SELECT ?s WHERE { ?s ?p ?o } LIMIT -3": "integer",
        "SELECT ?missing WHERE { ?s ?p ?o }": "?missing",
    }
    for text, needle in cases.items():
        with pytest.raises(SparqlError) as err:
            parse_query(text)
        assert needle in str(err.value), text


@pytest.mark.parametrize("iri", ["<rel>", "<>"])
@pytest.mark.parametrize("template", ["SELECT ?x WHERE {{ ?x {} <a:o> }}",
                                      'SELECT ?x WHERE {{ ?x <a:p> "1"^^{} }}'])
def test_iris_without_a_scheme_are_rejected_at_their_offset(iri, template):
    text = template.format(iri)
    with pytest.raises(SparqlError) as err:
        parse_query(text)
    assert err.value.pos == text.index(iri)
    assert f"invalid IRI {iri}" in str(err.value)


def test_prefix_filters_round_trip_and_other_filters_stay_unsupported():
    q = SelectQuery(
        ("s", "p"),
        (TriplePattern(Var("s"), Var("p"), Var("v")),),
        filters=(("p", WDT), ("v", 'say "hi"\n')), limit=4, offset=8)
    text = serialize_query(q)
    assert text == ('SELECT ?s ?p WHERE { ?s ?p ?v . '
                    f'FILTER(STRSTARTS(STR(?p), "{WDT}")) '
                    'FILTER(STRSTARTS(STR(?v), "say \\"hi\\"\\n")) } LIMIT 4 OFFSET 8')
    assert parse_query(text) == q
    assert q.with_page(None, None).filters == q.filters
    spaced = parse_query('SELECT ?s WHERE { ?s ?p ?v # a comment\n'
                         ' filter ( StrStarts ( str ( $p ) , "a:" ) ) }')
    assert spaced.filters == (("p", "a:"),)
    for text, needle in {
            'SELECT ?s WHERE { ?s ?p ?v FILTER(STRSTARTS(?p, "a")) }': "FILTER",
            'SELECT ?s WHERE { ?s ?p ?v FILTER(STRSTARTS(STR(?p), ?v)) }': "FILTER",
            'SELECT ?s WHERE { ?s ?p ?v FILTER(REGEX(STR(?p), "a")) }': "FILTER",
            'SELECT ?s WHERE { ?s ?p ?v FILTER(STRSTARTS(STR(?x), "a")) }': "?x",
            'SELECT ?s WHERE { ?s ?p ?v FILTER(STRSTARTS(STR(?p), "\\q")) }':
                "invalid escape"}.items():
        with pytest.raises(SparqlError) as err:
            parse_query(text)
        assert needle in str(err.value), text


def test_an_or_of_prefix_tests_round_trips_as_a_prefix_tuple():
    q = SelectQuery(
        ("s",),
        (TriplePattern(Var("s"), Var("p"), Var("v")),),
        filters=(("p", (WDT, WD, 'say "hi"')), ("v", "a")))
    text = serialize_query(q)
    assert text == ('SELECT ?s WHERE { ?s ?p ?v . '
                    f'FILTER(STRSTARTS(STR(?p), "{WDT}") || STRSTARTS(STR(?p), "{WD}") '
                    '|| STRSTARTS(STR(?p), "say \\"hi\\"")) '
                    'FILTER(STRSTARTS(STR(?v), "a")) }')
    assert parse_query(text) == q
    spaced = parse_query('SELECT ?s WHERE { ?s ?p ?v filter ( StrStarts ( str ( $p ) , "a:" )'
                         ' # "b:" is in a comment\n || strstarts(STR(?p),"c:")) }')
    assert spaced.filters == (("p", ("a:", "c:")),)


@pytest.mark.parametrize("filter_text, needle", [
    ('FILTER(STRSTARTS(STR(?p), "a") || STRSTARTS(STR(?o), "b"))', "one variable"),
    ('FILTER(STRSTARTS(STR(?p), "a") || STRSTARTS(STR(?p), "b") || STRSTARTS(STR(?s), "c"))',
     "one variable"),
    ('FILTER(STRSTARTS(STR(?p), "a") || REGEX(STR(?p), "b"))', "must be STRSTARTS"),
    ('FILTER(STRSTARTS(STR(?p), "a") || STRSTARTS(?p, "b"))', "must be STRSTARTS"),
    ('FILTER(STRSTARTS(STR(?p), "a") || STRSTARTS(STR(?p), "b") || ?p)', "must be STRSTARTS"),
    ('FILTER(STRSTARTS(STR(?p), "a") ||)', "dangling ||"),
    ('FILTER(STRSTARTS(STR(?p), "a") || STRSTARTS(STR(?p), "b") || )', "dangling ||"),
    ('FILTER(STRSTARTS(STR(?p), "a") && STRSTARTS(STR(?p), "b"))', "FILTER is unsupported"),
    ('FILTER(STRSTARTS(STR(?p), "a") || STRSTARTS(STR(?p), "b")', "FILTER is unsupported"),
])
def test_malformed_or_filters_are_rejected_at_the_filter(filter_text, needle):
    text = f"SELECT ?s WHERE {{ ?s ?p ?o {filter_text} }}"
    with pytest.raises(SparqlError) as err:
        parse_query(text)
    assert needle in str(err.value)
    assert err.value.pos == text.index("FILTER")


def test_a_filter_with_an_empty_prefix_tuple_is_rejected():
    with pytest.raises(SparqlError, match=r"the FILTER on \?p has no prefix"):
        SelectQuery(("s",), (TriplePattern(Var("s"), Var("p"), Var("o")),),
                    filters=(("p", ()),))


def test_string_literals_decode_every_n_triples_escape():
    q = parse_query(r"""SELECT ?s WHERE { ?s ?p "\b\f\'\U0001F600" }""")
    assert q.patterns[0].object == Literal("\b\f'\U0001F600")


@pytest.mark.parametrize("literal", [r'"a\uZZZZ"', r'"\q"'])
def test_invalid_escapes_raise_at_the_literal(literal):
    text = f"SELECT ?s WHERE {{ ?s ?p {literal} }}"
    with pytest.raises(SparqlError) as err:
        parse_query(text)
    assert err.value.pos == text.index(literal)
    assert "invalid escape" in str(err.value)


def test_builtin_prefixes_and_bare_numbers():
    q = parse_query('SELECT ?s WHERE { ?s wdt:P2067 78.11 . ?s a wd:Q5 }')
    assert q.patterns[0].object == Literal("78.11", XSD_DECIMAL)
    assert q.patterns[1].predicate == IriTerm(
        "http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
    with pytest.raises(SparqlError):
        parse_query("SELECT ?s WHERE { ?s unknownprefix:x ?o }")


def _random_graph(rng: random.Random, size: int) -> Graph:
    subjects = [IriTerm(f"http://x.org/s{i}") for i in range(4)]
    predicates = [IriTerm(f"http://x.org/p{i}") for i in range(3)]
    objects = subjects + [Literal(str(i)) for i in range(3)]
    g = Graph()
    for _ in range(size):
        g.add(Triple(rng.choice(subjects), rng.choice(predicates),
                     rng.choice(objects)))
    return g


def _random_query(rng: random.Random, g: Graph, n_patterns: int) -> SelectQuery:
    terms = [t.subject for t in g] + [t.object for t in g] or [IriTerm("http://x.org/s0")]
    variables = [Var(n) for n in "abc"]

    def slot(allow_literal: bool):
        if rng.random() < 0.5:
            return rng.choice(variables)
        pick = rng.choice(terms)
        if not allow_literal and isinstance(pick, Literal):
            return rng.choice(variables)
        return pick

    patterns = []
    for _ in range(n_patterns):
        patterns.append(TriplePattern(slot(False), slot(False), slot(True)))
    in_scope = sorted({v for p in patterns for v in p.variables()})
    if not in_scope:
        patterns[0] = TriplePattern(Var("a"), patterns[0].predicate,
                                    patterns[0].object)
        in_scope = ["a"]
    projected = tuple(rng.sample(in_scope, k=rng.randint(1, len(in_scope))))
    return SelectQuery(projected, tuple(patterns),
                       distinct=rng.random() < 0.3,
                       limit=rng.choice((None, 2, 5)),
                       offset=rng.choice((None, 1)))


def test_match_bgp_equals_brute_force_on_random_graphs():
    rng = random.Random(1234)
    for _ in range(150):
        n_patterns = rng.choice((1, 1, 2, 3))
        size = rng.randint(0, 30 if n_patterns == 3 else 50)
        g = _random_graph(rng, size)
        if len(g) == 0 and rng.random() < 0.5:
            continue
        q = _random_query(rng, g, n_patterns)
        assert match_bgp(g, q) == brute_force_bgp(g, q)


def test_single_character_corruption_yields_positioned_errors():
    rng = random.Random(6)
    alphabet = '{}.?$<>"\\# \n*^@-+0aS:'
    for _ in range(300):
        g = _random_graph(rng, rng.randint(0, 20))
        text = serialize_query(_random_query(rng, g, rng.choice((1, 2, 3))))
        pos = rng.randrange(len(text))
        replacement = rng.choice(alphabet)
        if replacement == text[pos]:
            continue
        corrupted = text[:pos] + replacement + text[pos + 1:]
        try:
            parse_query(corrupted)
        except SparqlError as e:
            assert 0 <= e.pos <= len(corrupted)
        # A corruption may still parse (e.g. a changed IRI character); that is fine.
