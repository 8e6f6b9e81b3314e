"""Time the set-up layers of the benchmark's ``lookup`` workload.

    PYTHONPATH=src:benchmark python3 tools/graph_load.py

Generates the seed-1 ``lookup`` dataset (1600 statements) with the
benchmark's own generator, then times, in this process, encoding it into a
graph (``codec.encode_dataset``), writing the graph as N-Triples
(``serialize_ntriples``), parsing the text back (``parse_ntriples``) and a
fresh parse's first lookups (``first_match``: one ``bucket_size`` probe of
each of the five bucket kinds, which builds every index a graph builds on
first use; the parse it probes is not timed), REPEATS times each, with a
garbage collection before every repeat, and checks that the parse gives
back the graph's triples. Prints one JSON line: the best and the median
wall seconds of each layer, and beside them its best and median CPU
seconds (``time.process_time()``, this process only: each layer runs on
one thread, so CPU time is its work without most of the host's noise) and
the peak bytes it allocates (``tracemalloc``, in one more untimed run:
what the layer's result holds and its temporary memory), the triple count,
the text size and the SHA-256 of the text, which two versions of the
encoder print alike exactly when they write the same N-Triples.
"""
from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
import tracemalloc

import gen
from kif import codec
from kif.rdf.ntriples import parse_ntriples, serialize_ntriples
from kif.rdf.terms import Graph

REPEATS = 5


def _timed(fn, fresh=lambda: None) -> tuple[object, dict[str, float]]:
    """fn(fresh()) timed REPEATS times, then traced once; fresh() is not
    measured."""
    times, cpu_times = [], []
    for _ in range(REPEATS):
        arg = fresh()
        gc.collect()
        start, cpu_start = time.perf_counter(), time.process_time()
        out = fn(arg)
        cpu_times.append(time.process_time() - cpu_start)
        times.append(time.perf_counter() - start)
    arg = fresh()
    gc.collect()
    tracemalloc.start()
    try:
        fn(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, {"best_s": round(min(times), 4),
                 "median_s": round(statistics.median(times), 4),
                 "cpu_best_s": round(min(cpu_times), 4),
                 "cpu_median_s": round(statistics.median(cpu_times), 4),
                 "peak_bytes": peak}


def _probe_every_bucket_kind(graph: Graph) -> None:
    t = next(iter(graph))
    s, p, o = t.subject, t.predicate, t.object
    for probe in ((s, None, None), (None, p, None), (None, None, o), (s, p, None), (None, p, o)):
        graph.bucket_size(*probe)


def main() -> None:
    ds = gen.wikidata_dataset(1, 1600, 300)
    graph, encode = _timed(lambda _: codec.encode_dataset(ds.pairs, ds.descriptors))
    text, write = _timed(lambda _: serialize_ntriples(graph))
    parsed, parse = _timed(lambda _: parse_ntriples(text))
    assert set(parsed) == set(graph)
    _, first_match = _timed(_probe_every_bucket_kind, lambda: parse_ntriples(text))
    data = text.encode("utf-8")
    print(json.dumps({"encode": encode, "write": write, "parse": parse,
                      "first_match": first_match,
                      "triples": len(graph), "bytes": len(data),
                      "sha256": hashlib.sha256(data).hexdigest()}))


if __name__ == "__main__":
    main()
