"""Time one-row SPARQL round trips to an in-process endpoint.

    PYTHONPATH=src python3 tools/http_round_trip.py

Serves a one-triple graph with ``kif.rdf.server.serve`` and sends the same
one-row query REQUESTS times in each of REPEATS repeats through
``HttpBackend.select``, over one kept-alive connection. The process is pinned to one CPU, as
``benchmark/run.py`` pins its threads, so the client and the endpoint's
handler thread take turns on it. Prints one JSON line: the microseconds per
round trip of each repeat, their best and their median.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from kif.rdf.server import serve
from kif.rdf.sparql import parse_query
from kif.rdf.terms import Graph, IriTerm, Literal, Triple
from kif.stores.backed import HttpBackend

REQUESTS = 2000
REPEATS = 5


def main() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    graph = Graph()
    graph.add(Triple(IriTerm("http://example.org/s"), IriTerm("http://example.org/p"),
                     Literal("o")))
    query = parse_query("SELECT ?o WHERE { <http://example.org/s> <http://example.org/p> ?o }")
    with serve(graph) as server:
        backend = HttpBackend(server.url)
        try:
            assert len(backend.select(query)) == 1
            per_trip = []
            for _ in range(REPEATS):
                started = time.perf_counter()
                for _ in range(REQUESTS):
                    backend.select(query)
                per_trip.append((time.perf_counter() - started) / REQUESTS * 1e6)
        finally:
            backend.close()
    print(json.dumps({"requests": REQUESTS, "us_per_round_trip": per_trip,
                      "best_us": min(per_trip), "median_us": statistics.median(per_trip)}))


if __name__ == "__main__":
    main()
