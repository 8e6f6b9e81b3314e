"""MemoryStore's indexed filter against its own full scan.

The indexes only choose which statements _matches is asked about, so the
indexed answer must equal the scan's, in the scan's (canonical) order, for
every pattern and limit.
"""

from decimal import Decimal
from itertools import islice

import pytest

from kif import model as m
from kif.stores import MemoryStore

from randgen import WD, ModelGen

Q = [m.Item(f"{WD}Q{i}") for i in range(20)]
P = [m.Property(f"{WD}P{i}") for i in range(10)]


def _value(subject, prop, value, rank=m.Rank.NORMAL):
    return (m.Statement(subject, m.ValueSnak(prop, value)), m.AnnotationRecord(rank=rank))


def _assert_indexed_equals_scan(store, pattern):
    scanned = list(store._scan(pattern))
    for limit in (None, 1, 3):
        assert list(store.filter(pattern, limit)) == list(islice(scanned, limit)), \
            (pattern, limit)
    assert store.count(pattern) == len(scanned)
    return scanned


@pytest.mark.parametrize("seed", range(40))
def test_indexed_filter_equals_the_scan_on_random_datasets(seed):
    gen = ModelGen(70000 + seed)
    pairs, descs = gen.dataset(gen.rng.choice((5, 20, 60, 150)))
    store = MemoryStore(pairs, descs)
    for _ in range(25):
        _assert_indexed_equals_scan(store, gen.pattern_for(pairs))


def test_absent_subject_or_property_gives_nothing():
    store = MemoryStore([_value(Q[1], P[1], Q[2]), _value(Q[2], P[2], Q[1])])
    for pattern in (m.FilterPattern(m.EntityFp(Q[9])),
                    m.FilterPattern(property=m.EntityFp(P[9])),
                    m.FilterPattern(m.EntityFp(Q[1]), m.EntityFp(P[9])),
                    m.FilterPattern(m.EntityFp(Q[9]), m.EntityFp(P[1]))):
        assert _assert_indexed_equals_scan(store, pattern) == []


def test_snak_set_whose_owners_do_not_intersect_gives_nothing():
    store = MemoryStore([_value(Q[1], P[1], Q[5]), _value(Q[2], P[2], Q[6])])
    a, b = m.ValueSnak(P[1], Q[5]), m.ValueSnak(P[2], Q[6])
    assert _assert_indexed_equals_scan(store, m.FilterPattern(m.SnakSetFp([a, b]))) == []
    assert len(_assert_indexed_equals_scan(store, m.FilterPattern(m.SnakFp(a)))) == 1


def test_a_claim_carried_only_by_deprecated_records_identifies_nobody():
    stale = m.StringValue("stale")
    store = MemoryStore([_value(Q[1], P[1], stale, m.Rank.DEPRECATED),
                         _value(Q[1], P[2], Q[3]),
                         _value(Q[2], P[1], Q[4], m.Rank.DEPRECATED),
                         _value(Q[2], P[1], Q[4], m.Rank.PREFERRED)])
    gone = m.FilterPattern(m.SnakFp(m.ValueSnak(P[1], stale)))
    assert _assert_indexed_equals_scan(store, gone) == []
    # One non-deprecated record is enough to keep the claim visible.
    kept = m.FilterPattern(m.SnakFp(m.ValueSnak(P[1], Q[4])))
    assert _assert_indexed_equals_scan(store, kept) == [
        m.Statement(Q[2], m.ValueSnak(P[1], Q[4]))]


def test_quantity_fingerprints_match_through_the_simple_value():
    stored = m.Quantity(Decimal("5"), Q[7], Decimal("4"), Decimal("6"))
    store = MemoryStore([_value(Q[1], P[1], stored), _value(Q[1], P[2], Q[3]),
                         _value(Q[2], P[1], m.Quantity(Decimal("6")))])
    # Another unit, no bounds and a trailing zero: the same simple value.
    probe = m.ValueSnak(P[1], m.Quantity(Decimal("5.0")))
    got = _assert_indexed_equals_scan(store, m.FilterPattern(m.SnakFp(probe)))
    assert {stmt.subject for stmt in got} == {Q[1]} and len(got) == 2


def test_value_only_patterns_are_answered():
    pairs = [_value(Q[1], P[1], Q[5]), _value(Q[2], P[2], Q[5]),
             _value(Q[5], P[3], m.StringValue("x")), _value(Q[3], P[1], Q[6])]
    store = MemoryStore(pairs)
    by_entity = m.FilterPattern(value=m.EntityFp(Q[5]))
    assert {s.subject for s in _assert_indexed_equals_scan(store, by_entity)} == {Q[1], Q[2]}
    by_snak = m.FilterPattern(value=m.SnakFp(m.ValueSnak(P[3], m.StringValue("x"))))
    assert {s.subject for s in _assert_indexed_equals_scan(store, by_snak)} == {Q[1], Q[2]}


def test_statements_of_many_fingerprint_owners_come_in_canonical_order():
    shared = m.ValueSnak(P[1], m.StringValue("shared"))
    pairs = [(m.Statement(q, shared), m.AnnotationRecord()) for q in Q[1:16]]
    pairs += [_value(q, P[2], Q[0]) for q in Q[1:16]]
    store = MemoryStore(pairs)
    got = _assert_indexed_equals_scan(store, m.FilterPattern(m.SnakFp(shared)))
    assert got == sorted(got, key=m.canonical_key) and len(got) == 30
