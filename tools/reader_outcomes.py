"""Digest what the four text readers make of corrupted input.

    PYTHONPATH=src:tests python3 tools/reader_outcomes.py [--inputs N]

For the N-Triples, S-expression and SPARQL readers and the SPARQL decoder,
builds N seeded inputs (default 20,000). Each is a valid text with one to
three single-character edits: a replacement, an insertion or a deletion,
with characters from the reader's own alphabet. The valid texts come from
``ModelGen`` (the test suite's random model generator), from the codec's
query compiler and from the claim shapes the decoder accepts. Each
input's outcome is the repr of what the reader returns, or the error's type
and message (which holds its position). Prints one JSON line per reader:
the SHA-256 of its outcomes in order, how many inputs parsed, and the mean
microseconds one parse took. Two versions of a reader that print the same
digest behave the same on every input.

The reprs of some values list the members of a set, whose order follows
the string hash seed, so the script runs itself again under
PYTHONHASHSEED=0 when it is started under any other seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

from kif import codec, sexpr
from kif import model as m
from kif.decoder import decode
from kif.rdf.ntriples import parse_ntriples, serialize_ntriples, write_term
from kif.rdf.sparql import parse_query, serialize_query
from randgen import ModelGen

_WDT = "http://www.wikidata.org/prop/direct/"

# Queries next to the decoder's subset, one for each rule it applies: a
# single edit often turns a decodable query into one of these, or back.
_HAND_DECODER_QUERIES = (
    "SELECT ?a ?b WHERE { ?s wdt:P1 ?a . ?s wdt:P2 ?b }",
    "SELECT ?s WHERE { ?s wdt:P1 wd:Q1 . ?x wdt:P2 wd:Q2 }",
    'SELECT ?s WHERE { ?s wdt:P1 "literal" }',
    "SELECT ?s WHERE { ?s wdt:P1 <http://example.org/a> }",
    "SELECT ?s WHERE { ?s rdfs:label ?v }",
    "SELECT ?v WHERE { wd:Q1 wdt:P1 ?v } OFFSET 2",
    "SELECT ?v WHERE { wd:Q1 wdt:P1 ?v VALUES ?v { wd:Q2 } }",
    'SELECT ?v WHERE { ?s ?p ?v FILTER(STRSTARTS(STR(?p), "a:")) }',
    "SELECT ?v WHERE { ?v wdt:P2 ?v }",
    "SELECT ?v WHERE { ?s ?s ?v }",
    'SELECT ?v WHERE { ?s wdt:P1 ?v . ?x wdt:P2 "x" }',
    'SELECT ?v WHERE { ?s ?q "x" . ?s wdt:P1 ?v }',
    'SELECT ?v WHERE { ?s rdfs:label "x" . ?s wdt:P1 ?v }',
)

# A few hand-written queries reach what the compiler never writes: prefixed
# names, ``a``, ``$`` variables, tagged and typed literals, comments.
_HAND_QUERIES = (
    'SELECT ?x WHERE { ?x wdt:P166 wd:Q38104 }',
    'SELECT DISTINCT $s ?l WHERE { $s a wikibase:Item . $s rdfs:label ?l . } LIMIT 5',
    'SELECT ?v WHERE { wd:Q2270 wdt:P2177 ?v . VALUES ?v { "0.07"^^xsd:decimal 7 -1.5 } }',
    'SELECT ?s WHERE {\n  # labels\n  ?s rdfs:label "Marie Curie"@en .\n} OFFSET 2 LIMIT 1',
    'SELECT ?p WHERE { wd:Q7286 ?p ?o FILTER(STRSTARTS(STR(?p), "http://x/\\u0041")) }',
)


def _ntriples_texts(rng: random.Random) -> list[str]:
    """Windows of one to eight lines of an encoded dataset."""
    pairs, descriptors = ModelGen(rng.randrange(1 << 30)).dataset(30)
    lines = serialize_ntriples(codec.encode_dataset(pairs, descriptors)).splitlines()
    texts = []
    for _ in range(100):
        start = rng.randrange(len(lines))
        texts.append("\n".join(lines[start:start + rng.randint(1, 8)]) + "\n")
    return texts


def _sexpr_texts(rng: random.Random) -> list[str]:
    """Printed model objects, a fifth of them filter patterns."""
    gen = ModelGen(rng.randrange(1 << 30))
    pairs, _ = gen.dataset(20)
    texts = []
    for _ in range(100):
        obj = gen.pattern_for(pairs) if rng.random() < 0.2 else gen.any_object()
        texts.append(sexpr.dumps(obj, compact=rng.random() < 0.5))
    return texts


def _sparql_texts(rng: random.Random) -> list[str]:
    """The queries the codec compiles for random filter patterns, some of
    them paged, and the hand-written ones."""
    gen = ModelGen(rng.randrange(1 << 30))
    pairs, _ = gen.dataset(20)
    texts = list(_HAND_QUERIES)
    while len(texts) < 100:
        pattern = gen.pattern_for(pairs)
        compile_plan = rng.choice((codec.compile_truthy_plan, codec.compile_full_plan,
                                   codec.compile_novalue_plan))
        try:
            query = compile_plan(pattern).query
        except ValueError:
            continue                      # a pattern the plan cannot take
        if rng.random() < 0.3:
            query = query.with_page(rng.randint(1, 50), rng.randint(0, 100))
        texts.append(serialize_query(query))
    return texts


def _decoder_texts(rng: random.Random) -> list[str]:
    """Queries in the decoder's subset: a claim pattern with constant or
    variable slots, some with auxiliary patterns on its subject or value
    variable whose constants are entities, plain IRIs or plain, typed and
    tagged literals; some DISTINCT, some with a LIMIT. And the hand-written
    queries next to the subset."""
    gen = ModelGen(rng.randrange(1 << 30))

    def entity() -> str:
        iri = gen.item().iri.value if rng.random() < 0.8 else gen.property().iri.value
        return f"<{iri}>" if rng.random() < 0.3 else "wd:" + iri.rsplit("/", 1)[1]

    def direct() -> str:
        local = gen.property().iri.value.rsplit("/", 1)[1]
        return f"<{_WDT}{local}>" if rng.random() < 0.3 else "wdt:" + local

    def aux(var: str) -> str:
        return f"?{var} {direct()} {write_term(m.simple_value(gen.value()))} . "

    texts = list(_HAND_DECODER_QUERIES)
    while len(texts) < 100:
        shape = rng.randrange(8)
        if shape == 0:
            head, body = "?v", f"{entity()} {direct()} ?v"
        elif shape == 1:
            head, body = "?x", f"?x {direct()} {entity()}"
        elif shape == 2:
            head, body = "?x ?y", f"?x {direct()} ?y"
        elif shape == 3:
            head, body = "?p ?v", f"{entity()} ?p ?v"
        elif shape == 4:
            head, body = "?s ?p", "?s ?p ?v"
        elif shape == 5:
            head, body = "?s ?v", aux("s") + f"?s {direct()} ?v"
        elif shape == 6:
            head, body = "?v", aux("s") + aux("s") + f"?s {direct()} ?v"
        else:
            head, body = "?s", f"?s {direct()} ?o . " + aux("o")
        distinct = "DISTINCT " if rng.random() < 0.3 else ""
        limit = f" LIMIT {rng.randint(0, 20)}" if rng.random() < 0.3 else ""
        texts.append(f"SELECT {distinct}{head} WHERE {{ {body} }}{limit}")
    return texts


# reader name: (parse, valid-text source, edit alphabet). A graph's triples
# are sorted: its own order follows the hashes of the term classes.
READERS = {
    "ntriples": (lambda text: sorted(map(repr, parse_ntriples(text))), _ntriples_texts,
                 '<>"\\_:.@^# \t\nx0'),
    "sexpr": (sexpr.parse, _sexpr_texts, '()" \n\\*:-.05abcxQP'),
    "sparql": (parse_query, _sparql_texts, '{}.?$<>"\\# \n*^@-+0aS:(),F'),
    "decoder": (decode, _decoder_texts, '{}.?<>"# \n^@:01PQdtvsxo'),
}


def _corrupt(rng: random.Random, text: str, alphabet: str) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:                     # insert
            text = text[:pos] + rng.choice(alphabet) + text[pos:]
        elif edit == 1:                   # delete
            text = text[:pos] + text[pos + 1:]
        else:                             # replace
            text = text[:pos] + rng.choice(alphabet) + text[pos + 1:]
    return text


def run(name: str, inputs: int) -> dict:
    parse, texts_of, alphabet = READERS[name]
    rng = random.Random(f"{name}:1")
    texts = texts_of(rng)
    corrupted = [_corrupt(rng, rng.choice(texts), alphabet) for _ in range(inputs)]
    digest = hashlib.sha256()
    parsed = 0
    elapsed = 0.0
    for text in corrupted:
        start = time.perf_counter()
        try:
            outcome = parse(text)
            elapsed += time.perf_counter() - start
            parsed += 1
        except Exception as e:            # a reader fault shows in the digest too
            elapsed += time.perf_counter() - start
            outcome = f"{type(e).__name__}: {e}"
        digest.update(repr(outcome).encode("utf-8") + b"\n")
    return {"reader": name, "inputs": inputs, "parsed": parsed,
            "sha256": digest.hexdigest(),
            "us_per_input": round(1e6 * elapsed / max(inputs, 1), 2)}


def main() -> None:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", type=int, default=20_000,
                        help="corrupted inputs per reader (default 20000)")
    args = parser.parse_args()
    for name in READERS:
        print(json.dumps(run(name, args.inputs)), flush=True)


if __name__ == "__main__":
    main()
