import pytest

from kif import codec
from kif import model as m
from kif.mixer import MixerChildError, MixerStore
from kif.rdf.server import serve
from kif.stores import MemoryStore, RdfStore, SparqlStore, StoreOptions

import paper_fixtures as pf
from randgen import WD, ModelGen


def _paper_mixer(parallel=False):
    return MixerStore([pf.pubchem_store(), pf.wikidata_store()],
                      parallel=parallel)


INCHI_MASS = m.FilterPattern(
    subject=m.SnakFp(m.ValueSnak(pf.inchi, m.StringValue(pf.BENZENE_INCHI))),
    property=m.EntityFp(pf.mass))


def test_mass_of_benzene_returns_both_statements_in_child_order():
    results = list(_paper_mixer().filter(INCHI_MASS))
    assert results == [pf.pubchem_mass_statement, pf.mass_statement]
    first, second = results
    assert first.subject.iri.value == WD + "Q_PUBCHEM_CID241"
    assert str(first.snak.value.amount) == "78.0469970703125"
    assert first.snak.value.unit == pf.gram_per_mole
    assert second.subject == pf.benzene
    assert str(second.snak.value.amount) == "78.11"
    assert second.snak.value.unit == pf.dalton


def test_count_over_the_benzene_mass_query():
    assert _paper_mixer().count(INCHI_MASS) == 2


def test_single_child_mixer_behaves_like_the_child():
    gen = ModelGen(311)
    pairs, descs = gen.dataset(25)
    child = MemoryStore(pairs, descs)
    mixer = MixerStore([child])
    for _ in range(30):
        pattern = gen.pattern_for(pairs)
        assert list(mixer.filter(pattern)) == list(child.filter(pattern))
        assert mixer.count(pattern) == child.count(pattern)
    probe = [stmt for stmt, _ in pairs[:5]]
    assert dict(mixer.get_annotations(probe)) == dict(child.get_annotations(probe))
    entities = list(descs)
    assert dict(mixer.get_descriptor(entities)) == dict(child.get_descriptor(entities))


def test_self_mix_deduplicates():
    gen = ModelGen(313)
    pairs, _ = gen.dataset(20)
    child = MemoryStore(pairs)
    doubled = MixerStore([child, child])
    assert list(doubled.filter()) == list(child.filter())
    assert doubled.count() == child.count()


def test_union_equals_set_union_of_children():
    gen = ModelGen(317)
    pairs_a, _ = gen.dataset(15)
    pairs_b, _ = gen.dataset(15)
    a, b = MemoryStore(pairs_a), MemoryStore(pairs_b)
    mixer = MixerStore([a, b])
    for _ in range(25):
        pattern = gen.pattern_for(pairs_a + pairs_b)
        assert set(mixer.filter(pattern)) == \
            set(a.filter(pattern)) | set(b.filter(pattern))


def test_parallel_and_sequential_streams_are_identical():
    gen = ModelGen(331)
    pairs_a, _ = gen.dataset(12)
    pairs_b, _ = gen.dataset(12)
    children = [MemoryStore(pairs_a), MemoryStore(pairs_b),
                RdfStore(codec.encode_dataset(pairs_a))]
    sequential = MixerStore(children, parallel=False)
    parallel = MixerStore(children, parallel=True)
    for _ in range(20):
        pattern = gen.pattern_for(pairs_a + pairs_b)
        assert list(sequential.filter(pattern)) == list(parallel.filter(pattern))
    assert list(sequential.filter(None, limit=5)) == \
        list(parallel.filter(None, limit=5))


def test_limit_reaches_the_children():
    prop = m.Property(WD + "P9001")
    pairs = [(m.Statement(m.Item(WD + f"Q{i}"), m.ValueSnak(prop, m.StringValue(f"v{i}"))),
              m.AnnotationRecord()) for i in range(300)]
    pattern = m.FilterPattern(property=m.EntityFp(prop))
    options = StoreOptions(page_size=5)
    with serve(codec.encode_dataset(pairs)) as server:
        alone = SparqlStore(server.url, options)
        expected = list(alone.filter(pattern, 5))
        for parallel in (False, True):
            child = SparqlStore(server.url, options)
            mixer = MixerStore([child, MemoryStore(pairs[:3])], parallel=parallel)
            assert list(mixer.filter(pattern, limit=5)) == expected
            assert child.request_count == alone.request_count


def test_annotation_union_of_two_children_with_distinct_references():
    ref_a = m.ReferenceRecord([m.ValueSnak(pf.reference_url,
                                           m.Iri("https://example.org/a"))])
    ref_b = m.ReferenceRecord([m.ValueSnak(pf.reference_url,
                                           m.Iri("https://example.org/b"))])
    stmt = pf.mass_statement
    child_a = MemoryStore([(stmt, m.AnnotationRecord(references=[ref_a]))])
    child_b = MemoryStore([(stmt, m.AnnotationRecord(references=[ref_b]))])
    mixer = MixerStore([child_a, child_b])
    (_, records), = mixer.get_annotations([stmt])
    assert len(records) == 2


def test_contains_if_in_either_child():
    mixer = _paper_mixer()
    assert mixer.contains(pf.mass_statement)  # wikidata child
    assert mixer.contains(pf.pubchem_mass_statement)  # mapper child
    assert not mixer.contains(m.Statement(m.Item(WD + "Q404"),
                                          m.NoValueSnak(pf.mass)))


def test_provenance_via_per_child_extra_references():
    tag_a = m.ReferenceRecord([m.ValueSnak(pf.reference_url,
                                           m.Iri("https://example.org/store/a"))])
    tag_b = m.ReferenceRecord([m.ValueSnak(pf.reference_url,
                                           m.Iri("https://example.org/store/b"))])
    child_a = MemoryStore(pf.wikidata_pairs(),
                          options=StoreOptions(extra_references=(tag_a,)))
    child_b = pf.pubchem_store(StoreOptions(extra_references=(tag_b,)))
    mixer = MixerStore([child_a, child_b])
    statements = list(mixer.filter(INCHI_MASS))
    annotated = dict(mixer.get_annotations(statements))
    for stmt in statements:
        tags = {ref for records in annotated[stmt] for ref in records.references}
        assert tag_a in tags or tag_b in tags


def test_descriptor_comes_from_first_non_empty_child():
    empty_child = MemoryStore()
    mixer = MixerStore([empty_child, pf.wikidata_store()])
    (_, desc), = mixer.get_descriptor([pf.marie])
    assert desc.label == m.TextValue("Marie Curie")
    override = MemoryStore([], {pf.marie: m.Descriptor(m.TextValue("Marie S."))})
    mixer2 = MixerStore([override, pf.wikidata_store()])
    (_, desc2), = mixer2.get_descriptor([pf.marie])
    assert desc2.label == m.TextValue("Marie S.")


class _Boom(MemoryStore):
    def _filter(self, pattern, limit):
        raise RuntimeError("backend on fire")


def test_strict_mode_fails_with_child_index():
    mixer = MixerStore([pf.wikidata_store(), _Boom()])
    with pytest.raises(MixerChildError) as err:
        list(mixer.filter())
    assert err.value.index == 1
    assert "backend on fire" in str(err.value)


def test_lenient_mode_skips_failing_children(caplog):
    mixer = MixerStore([pf.wikidata_store(), _Boom()], lenient=True)
    with caplog.at_level("WARNING"):
        results = list(mixer.filter())
    assert set(results) == set(pf.wikidata_store().filter())
    assert any("skipping failed child #1" in r.message for r in caplog.records)


def test_mixer_requires_children():
    with pytest.raises(ValueError):
        MixerStore([])
