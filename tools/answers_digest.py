"""Digest the ordered answers of the query-backed stores and mixers.

    PYTHONPATH=src:tests python3 tools/answers_digest.py [--seeds N] [--statements N]

For each of N seeded ``ModelGen`` datasets (the test suite's random model
generator; default seeds 0-2, 120 statements each), encodes the dataset
into a graph and serves it, and its first half, from in-process endpoints.
Four stores answer the same operations: ``RdfStore`` over the graph,
``SparqlStore`` over its endpoint, and a sequential and a parallel
``MixerStore`` over a ``SparqlStore`` of the first half and an ``RdfStore``
of the second. Each store is built fresh for page sizes 1, 3 and 100, with
the page cache on and off. The operations, in order: for random filter
patterns, ``filter`` (in its order), ``filter`` with limit 3 and ``count``;
``contains`` and ``get_annotations`` of the dataset's statements and of
absent ones; ``get_descriptor`` of every item and an unknown one, in
English and in French. An error is an answer too (its type and message).

Prints one JSON line per store and setting: the requests it sent and the
SHA-256 of its answers, then one line with the SHA-256 of all answers.
Answers do not depend on page size or cache, so one store's lines all carry
the same answer digest, and two versions of the stores that print the same
last line answer every operation the same. Request counts are comparable
between versions setting by setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from contextlib import ExitStack

from kif import codec, sexpr
from kif import model as m
from kif.mixer import MixerStore
from kif.rdf.server import serve
from kif.stores import RdfStore, SparqlStore, StoreOptions
from randgen import WD, ModelGen

PAGE_SIZES = (1, 3, 100)
PATTERNS = 12
STORES = ("rdf", "sparql", "mixer", "parallel-mixer")


def _text(answer) -> str:
    """*answer* as text that does not depend on the string hash seed."""
    if isinstance(answer, (list, tuple)):
        return "[" + ", ".join(map(_text, answer)) + "]"
    if isinstance(answer, frozenset):
        return "{" + ", ".join(sorted(map(_text, answer))) + "}"
    if isinstance(answer, int):          # a count, or a bool of contains
        return repr(answer)
    return sexpr.dumps(answer, compact=True)


def _answers(store, pairs, patterns, items) -> list[str]:
    stmts = [stmt for stmt, _ in pairs]
    absent = [m.Statement(items[0], m.ValueSnak(m.Property(WD + "P999"),
                                                m.StringValue("absent"))),
              m.Statement(items[-1], m.NoValueSnak(m.Property(WD + "P1")))]
    probes = list(dict.fromkeys(stmts)) + absent
    entities = items + [m.Item(WD + "Q404")]
    calls = []
    for pattern in patterns:
        calls += [lambda p=pattern: list(store.filter(p)),
                  lambda p=pattern: list(store.filter(p, 3)),
                  lambda p=pattern: store.count(p)]
    calls += [lambda: [store.contains(s) for s in probes],
              lambda: list(store.get_annotations(probes)),
              lambda: list(store.get_descriptor(entities)),
              lambda: list(store.get_descriptor(entities, "fr"))]
    answers = []
    for call in calls:
        try:
            answers.append(_text(call()))
        except Exception as e:            # a store fault shows in the digest too
            answers.append(f"{type(e).__name__}: {e}")
    return answers


def _requests(store) -> int:
    if isinstance(store, MixerStore):
        return sum(_requests(child) for child in store.children)
    return store.request_count


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=3,
                        help="datasets, ModelGen seeds 0 to N-1 (default 3)")
    parser.add_argument("--statements", type=int, default=120,
                        help="statements per dataset (default 120)")
    args = parser.parse_args()
    settings = [(name, size, cache) for name in STORES
                for size in PAGE_SIZES for cache in (True, False)]
    digests = {setting: hashlib.sha256() for setting in settings}
    requests = dict.fromkeys(settings, 0)
    for seed in range(args.seeds):
        gen = ModelGen(seed)
        pairs, descriptors = gen.dataset(args.statements)
        patterns = [gen.pattern_for(pairs) for _ in range(PATTERNS)]
        half = len(pairs) // 2
        graph = codec.encode_dataset(pairs, descriptors)
        first = codec.encode_dataset(pairs[:half], descriptors)
        second = codec.encode_dataset(pairs[half:], descriptors)
        with serve(graph) as whole, serve(first) as part:
            makers = {
                "rdf": lambda o: RdfStore(graph, o),
                "sparql": lambda o: SparqlStore(whole.url, o),
                "mixer": lambda o: MixerStore([SparqlStore(part.url, o), RdfStore(second, o)]),
                "parallel-mixer": lambda o: MixerStore(
                    [SparqlStore(part.url, o), RdfStore(second, o)], parallel=True),
            }
            for setting in settings:
                name, size, cache = setting
                with ExitStack() as stack:
                    store = stack.enter_context(makers[name](
                        StoreOptions(page_size=size, cache_enabled=cache)))
                    for child in getattr(store, "children", ()):
                        stack.enter_context(child)
                    for answer in _answers(store, pairs, patterns, gen.items):
                        digests[setting].update(answer.encode("utf-8") + b"\n")
                    requests[setting] += _requests(store)
    overall = hashlib.sha256()
    for setting in settings:
        name, size, cache = setting
        digest = digests[setting].hexdigest()
        overall.update(f"{name} {digest}\n".encode())
        print(json.dumps({"store": name, "page_size": size, "cache": cache,
                          "requests": requests[setting], "sha256": digest}), flush=True)
    print(json.dumps({"seeds": args.seeds, "statements": args.statements,
                      "sha256": overall.hexdigest()}), flush=True)


if __name__ == "__main__":
    main()
