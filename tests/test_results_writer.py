"""The endpoint's one-pass results writer: its bytes are those json.dumps
writes for the results document, over a seeded battery of terms, and an
HttpBackend reads its rows back."""

import json
import random

import pytest

from kif import namespaces as ns
from kif.rdf.bgp import match_bgp
from kif.rdf.server import results_json, results_to_json, serve
from kif.rdf.sparql import parse_query
from kif.rdf.terms import Graph, IriTerm, Literal, Triple
from kif.stores.backed import HttpBackend

# Quotes, backslashes, every C0 control character and DEL, the line and
# paragraph separators, non-ASCII, astral characters and a lone surrogate.
_CHARS = ('"', "\\", "/", *map(chr, range(0x20)), "\x7f", "\u2028", "\u2029",
          "é", "ß", "χ", "中", "\U0001d11e", "\U0001f600", "\ud800", "a", "Z", " ", "0")
_LANGUAGES = ("en", "EN", "pt-BR", "zh-Hant-TW", "x-Private")
_DATATYPES = (ns.XSD_DECIMAL, ns.XSD_DATE_TIME, "http://example.org/type/é",
              ns.XSD_STRING)


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 8)))


def _term(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return IriTerm("http://example.org/" + _text(rng))
    if kind == 1:
        return Literal(_text(rng), ns.RDF_LANG_STRING, rng.choice(_LANGUAGES))
    return Literal(_text(rng), rng.choice(_DATATYPES))


def _reference(variables, rows) -> bytes:
    """The results document built as a dict tree, one dict per term and
    per row, and written by json.dumps."""
    def term(t):
        if isinstance(t, IriTerm):
            return {"type": "uri", "value": t.value}
        out = {"type": "literal", "value": t.lexical}
        if t.language:
            out["xml:lang"] = t.language
        elif t.datatype != ns.XSD_STRING:
            out["datatype"] = t.datatype
        return out

    return json.dumps({
        "head": {"vars": list(variables)},
        "results": {"bindings": [{v: term(row[v]) for v in variables if v in row}
                                 for row in rows]},
    }).encode()


def _battery(seed: int):
    rng = random.Random(seed)
    variables = tuple(rng.sample(("x", "y", "z", "long_name", "v1"), rng.randint(1, 4)))
    rows = []
    for _ in range(rng.randint(0, 12)):
        # Each variable is left unbound in some rows.
        rows.append({v: _term(rng) for v in variables if rng.random() < 0.8})
    return variables, rows


@pytest.mark.parametrize("seed", range(40))
def test_the_writer_writes_the_bytes_json_dumps_writes(seed):
    variables, rows = _battery(seed)
    written = results_json(variables, rows)
    assert written == json.dumps(results_to_json(variables, rows)).encode()
    assert written == _reference(variables, rows)


@pytest.mark.parametrize("variables, rows", [
    (("x",), []),
    (("x", "y"), [{}, {"y": IriTerm("http://example.org/a")}, {}]),
    (("x", "x"), [{"x": Literal("twice", ns.XSD_STRING)}]),
    (("x",), [{"x": Literal("chat", ns.RDF_LANG_STRING, "FR-ca")}]),
], ids=["empty", "unbound", "repeated variable", "upper-case tag"])
def test_the_writer_on_edge_cases(variables, rows):
    written = results_json(variables, rows)
    assert written == json.dumps(results_to_json(variables, rows)).encode()
    assert written == _reference(variables, rows)


def test_an_upper_case_language_tag_is_written_in_lower_case():
    (row,) = results_to_json(("x",), [{"x": Literal("chat", ns.RDF_LANG_STRING, "FR-ca")}])[
        "results"]["bindings"]
    assert row["x"] == {"type": "literal", "value": "chat", "xml:lang": "fr-ca"}


def test_an_http_backend_reads_the_served_rows_back():
    rng = random.Random(7)
    subjects = [IriTerm(f"http://example.org/s{i}") for i in range(5)]
    # A lone surrogate cannot travel in the UTF-8 query text, but the
    # results carry it escaped; every other character of the battery too.
    graph = Graph(Triple(rng.choice(subjects), IriTerm(f"http://example.org/p{i % 3}"),
                         _term(rng)) for i in range(60))
    query = parse_query("SELECT ?s ?p ?o WHERE { ?s ?p ?o }")
    expected = match_bgp(graph, query)
    assert len(expected) == len(graph)
    with serve(graph) as server:
        backend = HttpBackend(server.url)
        try:
            assert backend.select(query) == expected
            empty = parse_query("SELECT ?s WHERE { ?s <http://example.org/none> ?o }")
            assert backend.select(empty) == []
        finally:
            backend.close()
