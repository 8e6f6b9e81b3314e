"""Every store counts its requests and their HTTP time; a mixer's counts
are the sums of its children's."""

import csv
import io

import pytest

from kif import codec
from kif.cli import main
from kif.mixer import MixerStore
from kif.rdf.server import serve
from kif.stores import MemoryStore, RdfStore, SparqlStore, StoreOptions

import paper_fixtures as pf
from randgen import ModelGen


def test_a_memory_store_sends_no_requests():
    store = MemoryStore(pf.wikidata_pairs(), pf.wikidata_descriptors())
    assert store.count() > 0
    assert store.request_count == 0
    assert store.request_seconds == 0.0


def _battery(store, pairs, gen) -> None:
    stmts = [stmt for stmt, _ in pairs]
    for _ in range(6):
        pattern = gen.pattern_for(pairs)
        list(store.filter(pattern))
        list(store.filter(pattern, 2))
    store.contains(stmts[0])
    list(store.get_annotations(stmts[:5]))
    list(store.get_descriptor(gen.items[:5]))


@pytest.mark.parametrize("shape", ["sequential", "parallel", "nested"])
def test_a_mixer_reads_the_sums_of_its_childrens_counters(shape):
    gen = ModelGen(401)
    pairs, descriptors = gen.dataset(30)
    half = len(pairs) // 2
    options = StoreOptions(page_size=3, cache_enabled=False)
    with serve(codec.encode_dataset(pairs[:half], descriptors)) as server, \
            SparqlStore(server.url, options) as sparql:
        rdf = RdfStore(codec.encode_dataset(pairs[half:], descriptors), options)
        if shape == "nested":
            inner = MixerStore([sparql, rdf], parallel=True)
            mixer = MixerStore([inner, MemoryStore()])
        else:
            mixer = MixerStore([sparql, rdf], parallel=shape == "parallel")
        with mixer:
            assert (mixer.request_count, mixer.request_seconds) == (0, 0.0)
            _battery(mixer, pairs, gen)
            if shape == "nested":
                inner.close()
    assert sparql.request_count > 0 and rdf.request_count > 0
    assert sparql.request_seconds > 0.0 and rdf.request_seconds == 0.0
    assert mixer.request_count == sparql.request_count + rdf.request_count
    assert mixer.request_seconds == pytest.approx(sparql.request_seconds, rel=1e-12)


def test_bench_over_a_parallel_mixer_of_endpoints(tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text(
        "--subject wd:Q2270 --property wd:P2177 --limit 10\n"
        "--subject wd:Q7286\n"
        "--property wd:P166\n", encoding="utf-8")
    pairs = pf.wikidata_pairs()
    with serve(codec.encode_dataset(pairs[::2])) as first, \
            serve(codec.encode_dataset(pairs[1::2])) as second:
        code = main(["bench", "--store", f"sparql:{first.url}",
                     "--store", f"sparql:{second.url}", "--parallel",
                     "--queries", str(queries), "--runs", "5"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    for row in rows:
        assert 0.0 <= float(row["api_ms"]) <= float(row["total_ms"]), row
