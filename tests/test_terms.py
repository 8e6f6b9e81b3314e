"""The contract of terms, triples and graphs: equal terms built apart hash
and compare equal, a triple sits in a graph once however often it is
added, and match and bucket_size agree with brute force over the triples."""

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest

import kif
from kif import codec
from kif.rdf.ntriples import parse_ntriples, serialize_ntriples
from kif.rdf.terms import Graph, IriTerm, Literal, Triple, triple_key

from randgen import ModelGen


def _text(s: str) -> str:
    """An equal string that is not the same object."""
    return (s + ".")[:-1]


def _rebuilt(t):
    """An equal term or triple that shares no object with *t*."""
    if isinstance(t, Triple):
        return Triple(_rebuilt(t.subject), _rebuilt(t.predicate), _rebuilt(t.object))
    if isinstance(t, IriTerm):
        return IriTerm(_text(t.value))
    if t.language is not None:
        return Literal(_text(t.lexical), language=t.language.upper())
    return Literal(_text(t.lexical), _text(t.datatype))


def _graph_triples(seed: int) -> list[Triple]:
    pairs, descriptors = ModelGen(seed).dataset(25)
    return sorted(codec.encode_dataset(pairs, descriptors), key=triple_key)


def _matches(t: Triple, s, p, o) -> bool:
    return ((s is None or t.subject == s) and (p is None or t.predicate == p)
            and (o is None or t.object == o))


@pytest.mark.parametrize("seed", range(4))
def test_graph_indexes_agree_with_brute_force(seed):
    triples = _graph_triples(seed)
    rng = random.Random(seed)
    adds = [_rebuilt(t) for t in triples for _ in range(rng.randint(2, 3))]
    rng.shuffle(adds)
    graph = Graph()
    new = [graph.add(t) for t in adds]
    assert sum(new) == len(graph) == len(triples)
    assert set(graph) == set(triples)

    absent = IriTerm("http://example.org/absent")
    literal = next(t.object for t in triples if isinstance(t.object, Literal))
    # A BGP variable bound to a literal may probe the subject or predicate.
    probes = [(t.subject, t.predicate, t.object)
              for t in rng.sample(triples, k=min(40, len(triples)))]
    probes += [(absent, absent, absent), (literal, literal, literal)]
    for probe in probes:
        for given in itertools.product((False, True), repeat=3):
            s, p, o = (_rebuilt(x) if g else None for x, g in zip(probe, given))
            found = list(graph.match(s, p, o))
            assert len(found) == len(set(found)), "a bucket yielded a triple twice"
            assert set(found) == {t for t in triples if _matches(t, s, p, o)}
            # The bucket is keyed by the given constants, except the object
            # when a subject is given too.
            key = (s, p, None if s is not None else o)
            assert graph.bucket_size(s, p, o) == sum(_matches(t, *key) for t in triples)
        assert graph.objects(probe[0], probe[1]) == list(
            t.object for t in graph.match(probe[0], probe[1]))


def test_equal_terms_built_apart_hash_and_compare_equal():
    for t in _graph_triples(7):
        twin = _rebuilt(t)
        assert twin is not t
        for clone in (twin, pickle.loads(pickle.dumps(t)), copy.copy(t)):
            assert clone == t and hash(clone) == hash(t)
        for a, b in zip((t.subject, t.predicate, t.object),
                        (twin.subject, twin.predicate, twin.object)):
            assert a is not b and a == b and hash(a) == hash(b)
    assert Literal("a", language="EN") == Literal("a", language="en")
    assert hash(Literal("a", language="EN")) == hash(Literal("a", language="en"))
    assert Literal("a", language="EN").language == "en"
    assert Literal("a") != Literal("a", language="en")
    assert IriTerm("x") != Literal("x") and Literal("x") != IriTerm("x")
    assert len({IriTerm("x"), Literal("x"), "x"}) == 3
    s, p = IriTerm("http://x.org/s"), IriTerm("http://x.org/p")
    assert Triple(s, p, IriTerm("x")) != Triple(s, p, Literal("x"))


def test_parse_builds_one_object_per_iri():
    text = serialize_ntriples(codec.encode_dataset(*ModelGen(3).dataset(25)))
    iris: dict[str, IriTerm] = {}
    for t in parse_ntriples(text):
        for term in (t.subject, t.predicate, t.object):
            if isinstance(term, IriTerm):
                assert iris.setdefault(term.value, term) is term
    assert len(iris) > 50


_LIST_GRAPH = ("import sys; from kif.rdf.ntriples import parse_ntriples; "
               "print(list(parse_ntriples(sys.stdin.read())))")


def test_a_graphs_order_repeats_under_a_pinned_hash_seed():
    # Plain, typed and tagged literals: a literal with no language once
    # hashed None, whose hash follows its address in each process.
    text = "".join(f'<http://x.org/s{i}> <http://x.org/p> {obj} .\n' for i, obj in enumerate(
        ['"a"', '"b"', '"7"^^<http://www.w3.org/2001/XMLSchema#integer>', '"c"@en',
         '"d"', '"e"^^<http://x.org/t>', '"f"@fr', '"g"']))
    src = os.path.dirname(os.path.dirname(kif.__file__))
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    listings = {subprocess.run([sys.executable, "-c", _LIST_GRAPH], input=text, env=env,
                               capture_output=True, text=True, check=True).stdout
                for _ in range(3)}
    assert len(listings) == 1
    assert listings.pop().count("Triple(") == 8
