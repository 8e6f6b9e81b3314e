"""Time a cache-off wildcard ``filter()`` at three dataset sizes.

    PYTHONPATH=src:tests python3 tools/wildcard_scan.py

For 100, 400 and 1600 statements, generates a ``ModelGen(7)`` dataset (the
test suite's random model generator), encodes it into a graph, and reads
``filter()`` with no constraint to its end, REPEATS times, through a fresh
``RdfStore`` over the graph and a fresh ``SparqlStore`` over an in-process
endpoint serving it, both with the page cache off. Each answer is checked
against ``MemoryStore``. The process is pinned to one CPU, as
``benchmark/run.py`` pins its threads. Prints one JSON line per store and
size: the requests of one filter, the rows those requests returned per
returned statement (counted at the store's backend, so exact where the
milliseconds vary from run to run), the statements it returned, and the
best and median milliseconds per returned statement.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time

from kif import codec
from kif.rdf.server import serve
from kif.stores import MemoryStore, RdfStore, SparqlStore, StoreOptions
from randgen import ModelGen

SIZES = (100, 400, 1600)
REPEATS = 3


def _counting_rows(store) -> list[int]:
    """Count the rows *store*'s backend returns, in the list returned."""
    rows = [0]
    select = store._backend.select

    def counted(query):
        page = select(query)
        rows[0] += len(page)
        return page

    store._backend.select = counted
    return rows


def _measure(make_store, expected: set) -> dict:
    times = []
    requests = returned = rows = 0
    for _ in range(REPEATS):
        gc.collect()
        with make_store() as store:
            counted = _counting_rows(store)
            start = time.perf_counter()
            statements = list(store.filter())
            times.append(time.perf_counter() - start)
            requests = store.request_count
            rows = counted[0]
        assert set(statements) == expected
        returned = len(statements)
    return {"requests": requests, "rows_per_stmt": round(rows / returned, 3),
            "statements": returned,
            "best_ms_per_stmt": round(1000 * min(times) / returned, 4),
            "median_ms_per_stmt": round(1000 * statistics.median(times) / returned, 4)}


def main() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    options = StoreOptions(cache_enabled=False)
    for size in SIZES:
        pairs, descriptors = ModelGen(7).dataset(size)
        graph = codec.encode_dataset(pairs, descriptors)
        expected = set(MemoryStore(pairs, descriptors).filter())
        with serve(graph) as server:
            for label, make_store in (
                    ("rdf", lambda: RdfStore(graph, options)),
                    ("sparql", lambda: SparqlStore(server.url, options))):
                print(json.dumps({"store": label, "size": size,
                                  **_measure(make_store, expected)}), flush=True)


if __name__ == "__main__":
    main()
