import pytest

from kif import codec
from kif import model as m
from kif import namespaces as ns
from kif.rdf.server import serve
from kif.rdf.sparql import SelectQuery, TriplePattern, Var
from kif.rdf.terms import Graph, IriTerm, Literal, Triple
from kif.stores import (MemoryStore, RdfStore, SparqlStore, StoreOptions,
                        TransportError)

import paper_fixtures as pf
from randgen import WD, ModelGen


@pytest.fixture(scope="module")
def graph():
    return codec.encode_dataset(pf.wikidata_pairs(), pf.wikidata_descriptors())


@pytest.fixture(scope="module")
def memory():
    return pf.wikidata_store()


@pytest.fixture(scope="module")
def rdf(graph):
    return RdfStore(graph)


@pytest.fixture(scope="module")
def endpoint(graph):
    with serve(graph) as server:
        yield server


# ---------------------------------------------------------------------------
# filter
# ---------------------------------------------------------------------------

def test_filter_benzene_solubility(memory):
    pattern = m.FilterPattern(m.EntityFp(pf.benzene), m.EntityFp(pf.solubility))
    results = list(memory.filter(pattern, limit=10))
    assert results == [pf.solubility_statement]
    value = results[0].snak.value
    assert (str(value.amount), str(value.lower), str(value.upper)) == \
        ("0.07", "0.06", "0.08")
    assert value.unit == pf.sol_unit


def test_filter_limit_zero_is_empty(memory):
    assert list(memory.filter(None, limit=0)) == []


def test_wildcard_filter_matches_a_brute_force_scan():
    gen = ModelGen(211)
    pairs, descs = gen.dataset(40)
    store = MemoryStore(pairs, descs)
    expected = {stmt for stmt, _ in pairs}
    assert set(store.filter()) == expected
    assert store.count() == len(expected)


def test_filter_respects_limit(memory):
    assert len(list(memory.filter(None, limit=2))) == 2


class _Doubling(MemoryStore):
    """A backend whose filter hook yields every candidate twice."""

    def _filter(self, pattern, limit):
        for stmt in super()._filter(pattern, limit):
            yield stmt
            yield stmt


def test_filter_drops_repeated_candidates_before_the_limit():
    pairs, _ = ModelGen(17).dataset(20)
    expected = list(MemoryStore(pairs).filter())
    doubled = _Doubling(pairs)
    assert list(doubled.filter()) == expected
    limited = list(doubled.filter(limit=3))
    assert limited == expected[:3] and len(set(limited)) == 3
    assert doubled.count() == len(expected)


# ---------------------------------------------------------------------------
# count / contains
# ---------------------------------------------------------------------------

def test_count_marie_awards(memory):
    pattern = m.FilterPattern(m.EntityFp(pf.marie), m.EntityFp(pf.award))
    assert memory.count(pattern) == 2


def test_count_on_empty_store():
    empty = MemoryStore()
    assert empty.count() == 0
    assert empty.count(m.FilterPattern(m.EntityFp(pf.marie))) == 0


def test_count_equals_filter_length_randomized():
    gen = ModelGen(223)
    pairs, _ = gen.dataset(30)
    store = MemoryStore(pairs)
    for _ in range(25):
        pattern = gen.pattern_for(pairs)
        assert store.count(pattern) == len(list(store.filter(pattern)))


def test_contains(memory):
    assert memory.contains(pf.solubility_statement)
    unknown = m.Statement(m.Item(WD + "Q42424242"),
                          m.ValueSnak(pf.mass, m.Quantity(1)))
    assert not memory.contains(unknown)


def test_contains_agrees_with_wildcard_membership():
    gen = ModelGen(227)
    pairs, _ = gen.dataset(25)
    store = MemoryStore(pairs)
    everything = set(store.filter())
    for stmt, _ in pairs[:10]:
        assert store.contains(stmt) == (stmt in everything)
    absent = gen.statement()
    assert store.contains(absent) == (absent in everything)


# ---------------------------------------------------------------------------
# annotations / descriptors
# ---------------------------------------------------------------------------

def test_annotations_of_solubility_statement(memory):
    (stmt, records), = memory.get_annotations([pf.solubility_statement])
    assert stmt == pf.solubility_statement
    assert records == frozenset({pf.solubility_annotation})
    record, = records
    assert record.rank is m.Rank.NORMAL
    assert m.ValueSnak(pf.temperature,
                       m.Quantity(68, pf.fahrenheit, 67, 69)) in record.qualifiers
    assert m.ValueSnak(pf.solvent, pf.water) in record.qualifiers


def test_annotations_of_absent_statement(memory):
    absent = m.Statement(m.Item(WD + "Q404"), m.NoValueSnak(pf.mass))
    (_, records), = memory.get_annotations([absent])
    assert records == frozenset()


def test_annotations_preserve_input_order(memory):
    stmts = [pf.mass_statement, pf.solubility_statement, pf.mass_statement]
    out = list(memory.get_annotations(stmts))
    assert [s for s, _ in out] == stmts


def test_memory_and_rdf_agree_on_annotations(rdf):
    gen = ModelGen(229)
    pairs, _ = gen.dataset(20)
    mem_store = MemoryStore(pairs)
    rdf_store = RdfStore(codec.encode_dataset(pairs))
    probe = [stmt for stmt, _ in pairs[:8]] + [gen.statement()]
    assert dict(mem_store.get_annotations(probe)) == \
        dict(rdf_store.get_annotations(probe))


def test_descriptor_of_marie(memory):
    (entity, desc), = memory.get_descriptor([pf.marie])
    assert entity == pf.marie
    assert desc.label == m.TextValue("Marie Curie")
    assert desc.description == m.TextValue("Polish-French physicist and chemist")


def test_descriptor_of_unknown_entity(memory):
    (_, desc), = memory.get_descriptor([m.Item(WD + "Q404")])
    assert desc.is_empty()


def test_descriptor_language_filtering():
    descs = {pf.marie: m.Descriptor(
        label=m.TextValue("Marie Curie", "en"),
        aliases=(m.TextValue("Maria", "pt"), m.TextValue("Marie", "en")))}
    store = MemoryStore([], descs)
    (_, en), = store.get_descriptor([pf.marie], "en")
    assert en.label and en.aliases == (m.TextValue("Marie", "en"),)
    (_, pt), = store.get_descriptor([pf.marie], "pt")
    assert pt.label is None and pt.aliases == (m.TextValue("Maria", "pt"),)


def test_alias_round_trip_through_rdf_encoding():
    gen = ModelGen(233)
    pairs, descs = gen.dataset(10)
    mem_store = MemoryStore(pairs, descs)
    rdf_store = RdfStore(codec.encode_dataset(pairs, descs))
    entities = list(descs) + [m.Item(WD + "Q404")]
    for lang in ("en", "fr", "de"):
        assert dict(mem_store.get_descriptor(entities, lang)) == \
            dict(rdf_store.get_descriptor(entities, lang))


# ---------------------------------------------------------------------------
# RdfStore / SparqlStore specifics
# ---------------------------------------------------------------------------

def test_rdf_store_equals_memory_on_fixture(memory, rdf):
    patterns = [
        m.FilterPattern(),
        m.FilterPattern(m.EntityFp(pf.benzene)),
        m.FilterPattern(None, m.EntityFp(pf.award)),
        m.FilterPattern(m.SnakFp(m.ValueSnak(pf.inchi,
                                             m.StringValue(pf.BENZENE_INCHI))),
                        m.EntityFp(pf.mass)),
        m.FilterPattern(value=m.EntityFp(pf.nobel_physics)),
    ]
    for pattern in patterns:
        assert set(memory.filter(pattern)) == set(rdf.filter(pattern))
        assert memory.count(pattern) == rdf.count(pattern)


def test_sparql_store_matches_rdf_store_over_the_wire(endpoint, rdf, memory):
    store = SparqlStore(endpoint.url)
    pattern = m.FilterPattern(m.EntityFp(pf.benzene))
    assert set(store.filter(pattern)) == set(rdf.filter(pattern))
    assert store.contains(pf.mass_statement)
    assert dict(store.get_annotations([pf.solubility_statement])) == \
        dict(memory.get_annotations([pf.solubility_statement]))
    assert dict(store.get_descriptor([pf.marie])) == \
        dict(memory.get_descriptor([pf.marie]))


def test_unreachable_endpoint_raises_transport_error():
    store = SparqlStore("http://127.0.0.1:1/sparql",
                        StoreOptions(request_timeout=0.5))
    with pytest.raises(TransportError) as err:
        list(store.filter(m.FilterPattern(m.EntityFp(pf.benzene))))
    assert "127.0.0.1:1" in str(err.value)


def test_http_error_carries_status_and_body_snippet():
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    class Refuser(BaseHTTPRequestHandler):
        def do_POST(self):
            body = b"teapot says no"
            self.send_response(418)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *_):
            pass

    httpd = HTTPServer(("127.0.0.1", 0), Refuser)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        store = SparqlStore(f"http://127.0.0.1:{httpd.server_address[1]}/sparql")
        with pytest.raises(TransportError) as err:
            list(store.filter(m.FilterPattern(m.EntityFp(pf.benzene))))
        assert "418" in str(err.value) and "teapot says no" in str(err.value)
    finally:
        httpd.shutdown()
        httpd.server_close()


def test_pagination_is_transparent(endpoint):
    baseline = None
    for size in (1, 2, 7, 100):
        store = SparqlStore(endpoint.url, StoreOptions(page_size=size))
        result = list(store.filter(m.FilterPattern(m.EntityFp(pf.benzene))))
        if baseline is None:
            baseline = result
        assert result == baseline, f"page_size={size}"


def test_small_pages_issue_multiple_requests(endpoint):
    store = SparqlStore(endpoint.url, StoreOptions(page_size=1))
    pattern = m.FilterPattern(m.EntityFp(pf.benzene))  # three statements
    results = list(store.filter(pattern))
    assert len(results) == 3
    assert store.request_count >= 3


def test_cache_suppresses_repeated_requests(endpoint):
    store = SparqlStore(endpoint.url)
    pattern = m.FilterPattern(m.EntityFp(pf.benzene), m.EntityFp(pf.solubility))
    first = list(store.filter(pattern))
    after_first = store.request_count
    second = list(store.filter(pattern))
    assert second == first
    assert store.request_count == after_first

    uncached = SparqlStore(endpoint.url, StoreOptions(cache_enabled=False))
    first = list(uncached.filter(pattern))
    n1 = uncached.request_count
    assert list(uncached.filter(pattern)) == first
    assert uncached.request_count > n1


def test_cache_is_transparent(endpoint):
    pattern = m.FilterPattern(m.EntityFp(pf.marie))
    cached = SparqlStore(endpoint.url, StoreOptions(cache_enabled=True))
    uncached = SparqlStore(endpoint.url, StoreOptions(cache_enabled=False))
    assert list(cached.filter(pattern)) == list(uncached.filter(pattern))


def test_extra_references_are_appended_to_annotations():
    tag = m.ReferenceRecord([m.ValueSnak(pf.reference_url,
                                         m.Iri("https://example.org/store-a"))])
    store = MemoryStore(pf.wikidata_pairs(), pf.wikidata_descriptors(),
                        StoreOptions(extra_references=(tag,)))
    (_, records), = store.get_annotations([pf.solubility_statement])
    record, = records
    assert tag in record.references
    assert pf.solubility_annotation.references[0] in record.references
    # Statement identity is unaffected.
    assert set(store.filter(m.FilterPattern(m.EntityFp(pf.benzene),
                                            m.EntityFp(pf.solubility)))) == \
        {pf.solubility_statement}
    # Absent statements still come back with an empty record set.
    absent = m.Statement(m.Item(WD + "Q404"), m.NoValueSnak(pf.mass))
    (_, empty), = store.get_annotations([absent])
    assert empty == frozenset()


def test_page_size_env_override(monkeypatch):
    monkeypatch.setenv("KIF_PAGE_SIZE", "7")
    assert StoreOptions().page_size == 7
    monkeypatch.setenv("KIF_PAGE_SIZE", "not-a-number")
    assert StoreOptions().page_size == 100
    monkeypatch.delenv("KIF_PAGE_SIZE")
    assert StoreOptions().page_size == 100


def test_rdf_store_loads_ntriples_files(tmp_path, graph):
    from kif.rdf.ntriples import serialize_ntriples

    path = tmp_path / "wd.nt"
    path.write_text(serialize_ntriples(graph), encoding="utf-8")
    store = RdfStore(str(path))
    assert store.contains(pf.solubility_statement)


def test_statements_sharing_a_simple_value_stay_distinct():
    # Same subject, property, and simple value ("0.07"), different deep
    # content: the reified nodes must keep them apart in every operation.
    shallow = m.Statement(pf.benzene, m.ValueSnak(pf.solubility,
                                                  m.Quantity("0.07")))
    ann_deep = m.AnnotationRecord(rank=m.Rank.PREFERRED)
    ann_shallow = m.AnnotationRecord()
    pairs = [(pf.solubility_statement, ann_deep), (shallow, ann_shallow)]
    mem_store = MemoryStore(pairs)
    rdf_store = RdfStore(codec.encode_dataset(pairs))
    for store in (mem_store, rdf_store):
        pattern = m.FilterPattern(m.EntityFp(pf.benzene), m.EntityFp(pf.solubility))
        assert set(store.filter(pattern)) == {pf.solubility_statement, shallow}
        assert store.contains(pf.solubility_statement)
        assert store.contains(shallow)
        annotations = dict(store.get_annotations([pf.solubility_statement, shallow]))
        assert annotations[pf.solubility_statement] == frozenset({ann_deep})
        assert annotations[shallow] == frozenset({ann_shallow})


# ---------------------------------------------------------------------------
# statement-node candidates
# ---------------------------------------------------------------------------

def test_no_value_nodes_and_dangling_links_are_not_read_as_values():
    from kif import namespaces as ns
    from kif.rdf.terms import IriTerm, Literal, Triple

    q1, q2 = m.Item(WD + "Q1"), m.Item(WD + "Q2")
    p1, p2, p3 = (m.Property(WD + f"P{i}") for i in (1, 2, 3))
    no_value = m.Statement(q1, m.NoValueSnak(p1))
    truthy_only = m.Statement(q1, m.ValueSnak(p3, m.StringValue("bare")))
    pairs = [(m.Statement(q1, m.ValueSnak(p2, q2)), m.AnnotationRecord()),
             (no_value, m.AnnotationRecord()),
             (m.Statement(q2, m.ValueSnak(p1, m.StringValue("x"))),
              m.AnnotationRecord(rank=m.Rank.PREFERRED))]
    graph = codec.encode_dataset(pairs)
    # A link to a ranked node without a value, and a claim without a node.
    dangling = IriTerm(ns.WDS + "dangling")
    graph.update([Triple(IriTerm(q1.iri.value), IriTerm(ns.P + "P1"), dangling),
                  Triple(dangling, IriTerm(ns.WIKIBASE_RANK),
                         IriTerm(ns.WIKIBASE_NORMAL_RANK)),
                  Triple(IriTerm(q1.iri.value), IriTerm(ns.WDT + "P3"), Literal("bare"))])
    memory = MemoryStore(pairs + [(truthy_only, m.AnnotationRecord())])
    options = StoreOptions(page_size=2)
    with serve(graph) as server, SparqlStore(server.url, options) as sparql:
        for store in (RdfStore(graph, options), sparql):
            for pattern in (m.FilterPattern(), m.FilterPattern(m.EntityFp(q1))):
                got = list(store.filter(pattern))
                assert set(got) == set(memory.filter(pattern)), (store, pattern)
                # Reified, then truthy-only, then no-value statements.
                assert got.count(no_value) == 1 and got[-1] == no_value
                assert got[-2] == truthy_only


@pytest.mark.parametrize("seed", [3, 8])
def test_limited_scans_are_prefixes_of_the_full_scan(seed):
    pairs, descriptors = ModelGen(seed).dataset(60)
    graph = codec.encode_dataset(pairs, descriptors)
    subjects = [stmt.subject for stmt, _ in pairs]
    subject = m.EntityFp(max(subjects, key=subjects.count))
    options = StoreOptions(page_size=4, cache_enabled=False)
    with serve(graph) as server, SparqlStore(server.url, options) as sparql:
        for store in (RdfStore(graph, options), sparql):
            for pattern in (m.FilterPattern(), m.FilterPattern(subject)):
                full = list(store.filter(pattern))
                assert len(full) > 5
                for k in (1, 5, 30):
                    assert list(store.filter(pattern, limit=k)) == full[:k]


def test_a_page_cache_at_page_size_one_holds_a_query_of_over_1024_rows():
    graph = Graph(Triple(IriTerm(f"{WD}Q{i}"), IriTerm(WD + "P1"), Literal(str(i)))
                  for i in range(1100))
    query = SelectQuery(("s", "o"), (TriplePattern(Var("s"), IriTerm(WD + "P1"), Var("o")),))
    store = RdfStore(graph, StoreOptions(page_size=1))
    first = list(store.select_all(query))
    sent = store.request_count
    assert len(first) == 1100 and sent == 1101
    assert list(store.select_all(query)) == first
    assert store.request_count == sent


@pytest.mark.parametrize("page_size", [3, 100])
def test_a_scan_fetches_only_the_node_triples_that_decide_a_main_snak(page_size):
    pairs, descriptors = ModelGen(5).dataset(60)
    graph = codec.encode_dataset(pairs, descriptors)
    unread = (ns.PQ, ns.PROV_WAS_DERIVED_FROM, ns.WIKIBASE_RANK)
    assert {prefix for t in graph for prefix in unread
            if t.predicate.value.startswith(prefix)} == set(unread)
    memory = MemoryStore(pairs, descriptors)
    options = StoreOptions(page_size=page_size, cache_enabled=False)
    with serve(graph) as server, SparqlStore(server.url, options) as sparql:
        for store in (RdfStore(graph, options), sparql):
            fetched = []
            select = store._backend.select

            def spy(query, select=select, fetched=fetched):
                rows = select(query)
                if query.values and query.values[0].variable == "w":   # a node fetch
                    fetched.extend(rows)
                return rows

            store._backend.select = spy
            found = list(store.filter())
            assert len(found) == len(set(found))
            assert set(found) == set(memory.filter())
            assert store.count() == memory.count()
            predicates = {row["p"].value for row in fetched}
            assert any(p.startswith(ns.PS) for p in predicates)
            assert not [p for p in predicates if p.startswith(unread)], store
