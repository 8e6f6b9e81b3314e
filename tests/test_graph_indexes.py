"""A graph builds each index on first use: the first lookups of concurrent
readers, and a node graph's interleaved reads and updates, give what brute
force over the triples gives."""

import itertools
import random
import sys
import threading

import pytest

from kif import codec
from kif.rdf.terms import Graph, IriTerm, Triple, term_key, triple_key

from randgen import ModelGen

# Every wildcard combination of a (s, p, o) probe: True keeps the constant.
_COMBINATIONS = list(itertools.product((False, True), repeat=3))


def _graph_triples(seed: int, statements: int) -> list[Triple]:
    pairs, descriptors = ModelGen(seed).dataset(statements)
    return sorted(codec.encode_dataset(pairs, descriptors), key=triple_key)


def _copy(t: Triple) -> Triple:
    """An equal triple whose subject and predicate are not *t*'s objects."""
    return Triple(IriTerm((t.subject.value + ".")[:-1]),
                  IriTerm((t.predicate.value + ".")[:-1]), t.object)


def _matches(t: Triple, s, p, o) -> bool:
    return ((s is None or t.subject == s) and (p is None or t.predicate == p)
            and (o is None or t.object == o))


def _probes(triples: list[Triple], rng: random.Random, k: int) -> list[tuple]:
    absent = IriTerm("http://example.org/absent")
    return ([(t.subject, t.predicate, t.object) for t in rng.sample(triples, k=k)]
            + [(absent, absent, absent)])


def _lookups(probes: list[tuple]) -> list[tuple]:
    return [tuple(x if g else None for x, g in zip(probe, given))
            for given in _COMBINATIONS for probe in probes]


def _check_every_combination(graph: Graph, triples: set[Triple], probes: list[tuple]) -> None:
    assert len(graph) == len(triples) and set(graph) == triples
    for s, p, o in _lookups(probes):
        found = list(graph.match(s, p, o))
        assert len(found) == len(set(found))
        assert set(found) == {t for t in triples if _matches(t, s, p, o)}
        # The bucket is keyed by the given constants, except the object
        # when a subject is given too.
        key = (s, p, None if s is not None else o)
        assert graph.bucket_size(s, p, o) == sum(_matches(t, *key) for t in triples)


# -- first builds under concurrency --------------------------------------------

_THREADS = 8


@pytest.mark.parametrize("seed", range(3))
def test_concurrent_first_lookups_agree_with_brute_force(seed):
    triples = _graph_triples(seed, 100)
    rng = random.Random(seed)
    lookups = _lookups(_probes(triples, rng, 6))
    expected = [({t for t in triples if _matches(t, *lookup)},
                 sum(_matches(t, lookup[0], lookup[1], None if lookup[0] else lookup[2])
                     for t in triples))
                for lookup in lookups]
    wrong: list[object] = []

    def read(graph: Graph, start: threading.Barrier, first: int) -> None:
        # Each thread goes over the combinations from its own first one, so
        # several indexes are built at once.
        try:
            start.wait()
            n = len(lookups)
            for i in range(first, first + n):
                lookup = lookups[i % n]
                answer = (set(graph.match(*lookup)), graph.bucket_size(*lookup))
                if answer != expected[i % n]:
                    wrong.append(lookup)
        except Exception as e:            # the test fails on it below
            wrong.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(4):
            graph = Graph(triples)
            start = threading.Barrier(_THREADS, timeout=30)
            step = len(lookups) // _THREADS
            threads = [threading.Thread(target=read, args=(graph, start, i * step))
                       for i in range(_THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not wrong, f"{len(wrong)} lookups disagree with brute force, e.g. {wrong[0]}"


# -- a node graph's life cycle ------------------------------------------------

def _life_cycle(triples: list[Triple], rng: random.Random) -> list[tuple]:
    """Steps as QueryBackedStore._fetch_statement_context and the codec take
    a node graph: a fetch adds the triples of a few nodes (and again some of
    those it has), then match(s=node) looks for the nodes they link to, or
    objects(node, predicate) reads a statement."""
    by_subject: dict[IriTerm, list[Triple]] = {}
    for t in triples:
        by_subject.setdefault(t.subject, []).append(t)
    subjects = list(by_subject)
    rng.shuffle(subjects)
    steps: list[tuple] = []
    added: list[Triple] = []
    for i in range(0, len(subjects), 8):
        chunk = subjects[i:i + 8]
        fetched = [t for s in chunk for t in by_subject[s]]
        again = [_copy(t) for t in rng.sample(added, k=min(3, len(added)))]
        steps.append(("update", fetched + again))
        added += fetched
        t = rng.choice(added)
        reads = [("match", t.subject), ("objects", (t.subject, t.predicate))]
        steps += reads[:1] if i == 0 else rng.sample(reads, k=rng.randint(1, 2))
    return steps


def _take(graph: Graph, steps: list[tuple]) -> set[Triple]:
    """Take *steps* on *graph*, checking each read; the triples added."""
    added: set[Triple] = set()
    for kind, arg in steps:
        if kind == "update":
            graph.update(arg)
            added.update(arg)
        elif kind == "match":
            assert set(graph.match(s=arg)) == {t for t in added if t.subject == arg}
        else:
            s, p = arg
            assert (sorted(graph.objects(s, p), key=term_key)
                    == sorted((t.object for t in added if t.subject == s and t.predicate == p),
                              key=term_key))
    return added


@pytest.mark.parametrize("seed", range(3))
def test_a_node_graphs_updates_keep_its_indexes_current(seed):
    triples = _graph_triples(seed, 25)
    rng = random.Random(seed)
    steps = _life_cycle(triples, rng)
    probes = _probes(triples, rng, 12)
    assert sum(kind == "update" for kind, _ in steps) > 5
    for k in range(1, len(steps) + 1):
        # A fresh graph for each prefix, so the check that builds every
        # index comes after the steps, not between them.
        graph = Graph()
        added = _take(graph, steps[:k])
        assert set(graph._indexes) <= {"s", "sp"}
        _check_every_combination(graph, added, probes)
        # The indexes built by the check stay current through later updates.
        graph.update(triples)
        _check_every_combination(graph, set(triples), probes)


def test_a_graph_builds_only_the_indexes_its_lookups_use():
    triples = _graph_triples(1, 25)
    graph = Graph(triples)
    assert not graph._indexes
    assert list(graph) == triples
    t = triples[len(triples) // 2]
    list(graph.match(s=t.subject, o=t.object))
    assert set(graph._indexes) == {"s"}
    graph.bucket_size(o=t.object)
    assert set(graph._indexes) == {"s", "o"}
    graph.predicates()
    assert set(graph._indexes) == {"s", "o", "p"}
