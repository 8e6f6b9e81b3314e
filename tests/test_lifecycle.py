"""Stores and endpoints release their sockets and threads."""

import gc
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from kif import codec
from kif.mixer import MixerStore
from kif.rdf.server import serve
from kif.rdf.terms import Graph
from kif.stores import SparqlStore, StoreOptions

import paper_fixtures as pf


@pytest.fixture(scope="module")
def endpoint():
    graph = codec.encode_dataset(pf.wikidata_pairs(), pf.wikidata_descriptors())
    with serve(graph) as server:
        yield server


def _handler_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate()
            if "process_request_thread" in t.name and t.is_alive()}


def _wait_until(condition, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _count_on_three_threads(store) -> None:
    with ThreadPoolExecutor(max_workers=3) as pool:
        barrier = threading.Barrier(3)

        def count(_):
            barrier.wait(timeout=10)
            return store.count()

        assert len(set(pool.map(count, range(3)))) == 1


def test_close_closes_the_connection_of_every_thread(endpoint):
    before = _handler_threads()
    store = SparqlStore(endpoint.url, StoreOptions(page_size=5, cache_enabled=False))
    _count_on_three_threads(store)
    # The pool threads are gone, but their keep-alive connections are not.
    assert len(_handler_threads() - before) == 3
    store.close()
    assert _wait_until(lambda: not _handler_threads() - before)
    # A closed store opens a new connection when asked again.
    assert store.count() > 0
    store.close()


def test_the_connection_of_an_ended_thread_closes_when_another_opens(endpoint):
    before = _handler_threads()
    store = SparqlStore(endpoint.url, StoreOptions(page_size=5, cache_enabled=False))
    _count_on_three_threads(store)
    assert len(_handler_threads() - before) == 3
    assert store.count() > 0
    assert _wait_until(lambda: len(_handler_threads() - before) == 1)
    store.close()


def test_a_collected_store_leaves_no_socket_open(endpoint):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        store = SparqlStore(endpoint.url, StoreOptions(page_size=5, cache_enabled=False))
        _count_on_three_threads(store)
        del store
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_a_store_is_a_context_manager(endpoint):
    before = _handler_threads()
    with SparqlStore(endpoint.url) as store:
        assert store.count() > 0
    assert _wait_until(lambda: not _handler_threads() - before)


def test_closing_a_parallel_mixer_stops_its_pool_threads():
    def pool_threads():
        return {t for t in threading.enumerate()
                if t.name.startswith("ThreadPoolExecutor") and t.is_alive()}

    before = pool_threads()
    mixer = MixerStore([pf.wikidata_store(), pf.pubchem_store()], parallel=True)
    assert mixer.count() > 0
    assert pool_threads() - before
    mixer.close()
    assert not pool_threads() - before


def test_leaving_a_served_block_is_immediate():
    # The serve loop sleeps until a client or the shutdown wakes it; it
    # does not poll.
    exits = []
    for _ in range(3):
        with serve(Graph()):
            started = time.perf_counter()
        exits.append(time.perf_counter() - started)
    assert min(exits) < 0.1
