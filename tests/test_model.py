import random
from decimal import Decimal

import pytest

from kif import model as m
from kif import sexpr
from kif.namespaces import XSD_DATE_TIME, XSD_DECIMAL
from kif.rdf.terms import IriTerm, Literal

from randgen import WD, ModelGen


def test_item_and_property_with_same_iri_are_distinct():
    assert m.Item(WD + "Q1") != m.Property(WD + "Q1")
    assert m.Item(WD + "Q1") == m.Item(WD + "Q1")


def test_iri_validation():
    with pytest.raises(m.ModelError):
        m.Iri("")
    with pytest.raises(m.ModelError):
        m.Iri("no-scheme-here")
    with pytest.raises(m.ModelError):
        m.Iri(" http://x.org/a")
    with pytest.raises(m.ModelError):
        m.Iri("http://x.org/a b")


def test_text_value_normalizes_language():
    assert m.TextValue("x", "EN").language == "en"
    assert m.TextValue("x").language == "en"
    with pytest.raises(m.ModelError):
        m.TextValue("x", "")


def test_quantity_bounds_enforced():
    m.Quantity(5, None, 4, 6)
    with pytest.raises(m.ModelError):
        m.Quantity(5, None, 6, None)
    with pytest.raises(m.ModelError):
        m.Quantity(5, None, None, 4)
    with pytest.raises(m.ModelError):
        m.Quantity(0.07)  # binary floats are rejected


def test_quantity_preserves_exact_decimal():
    q = m.Quantity("78.0469970703125")
    assert m.decimal_lexical(q.amount) == "78.0469970703125"
    assert sexpr.parse(sexpr.dumps(q)) == q
    assert "78.0469970703125" in sexpr.dumps(q)


def test_decimal_lexical_is_canonical():
    assert m.decimal_lexical(Decimal("0.070")) == "0.07"
    assert m.decimal_lexical(Decimal("35339")) == "35339"
    assert m.decimal_lexical(Decimal("-0.0")) == "0"
    assert m.decimal_lexical(Decimal("3.5E+2")) == "350"


def test_time_value_zero_fills_by_precision():
    t = m.TimeValue(m.Timestamp(1903, 5, 20, 7, 8, 9), m.PRECISION_YEAR)
    assert t.timestamp == m.Timestamp(1903, 1, 1)
    day = m.TimeValue(m.Timestamp(2015, 8, 3, 11, 0, 0), m.PRECISION_DAY)
    assert day.timestamp == m.Timestamp(2015, 8, 3)
    with pytest.raises(m.ModelError):
        m.TimeValue(m.Timestamp(2000), 15)


def test_statement_equality_is_structural():
    gen = ModelGen(7)
    for _ in range(200):
        stmt = gen.statement()
        rebuilt = m.Statement(stmt.subject, stmt.snak)
        assert rebuilt == stmt and hash(rebuilt) == hash(stmt)
        other = gen.statement()
        assert (stmt == other) == (
            (stmt.subject, stmt.snak) == (other.subject, other.snak))


def test_reference_record_canonical_and_non_empty():
    gen = ModelGen(3)
    snaks = [gen.snak() for _ in range(4)]
    ref = m.ReferenceRecord(snaks + snaks)
    assert len(ref.snaks) == len({m.canonical_key(s) for s in snaks})
    assert list(ref.snaks) == sorted(ref.snaks, key=m.canonical_key)
    assert m.ReferenceRecord(reversed(snaks)) == m.ReferenceRecord(snaks)
    with pytest.raises(m.ModelError):
        m.ReferenceRecord([])


def test_descriptor_alias_dedup():
    a = m.TextValue("x", "en")
    d = m.Descriptor(aliases=(a, m.TextValue("x", "en"), m.TextValue("x", "fr")))
    assert d.aliases == (a, m.TextValue("x", "fr"))


def test_rank_total_order():
    assert m.Rank.PREFERRED.priority > m.Rank.NORMAL.priority
    assert m.Rank.NORMAL.priority > m.Rank.DEPRECATED.priority
    assert not m.Rank.DEPRECATED.priority > m.Rank.PREFERRED.priority
    assert len({r.priority for r in m.Rank}) == 3


# ---------------------------------------------------------------------------
# canonical_key order
# ---------------------------------------------------------------------------

def _compare(a, b) -> int:
    ka, kb = m.canonical_key(a), m.canonical_key(b)
    return (ka > kb) - (ka < kb)


def test_compare_reflexive_and_lexicographic_base():
    x = m.Item(WD + "Q1")
    assert _compare(x, x) == 0
    assert _compare(m.Item(WD + "Q1"), m.Item(WD + "Q2")) == -1
    assert _compare(m.Item(WD + "Q2"), m.Item(WD + "Q1")) == 1


def test_snak_sort_is_deterministic_across_independent_runs():
    # Two generators with the same seed produce equal objects; shuffling each
    # list differently and re-sorting must give identical sequences.
    snaks_a = [ModelGen(11).snak() for _ in range(1)]  # warm-up shape check
    gen_a, gen_b = ModelGen(42), ModelGen(42)
    snaks_a = [gen_a.snak() for _ in range(1000)]
    snaks_b = [gen_b.snak() for _ in range(1000)]
    random.Random(1).shuffle(snaks_a)
    random.Random(2).shuffle(snaks_b)
    sorted_a = sorted(snaks_a, key=m.canonical_key)
    sorted_b = sorted(snaks_b, key=m.canonical_key)
    assert sorted_a == sorted_b


def test_compare_is_a_total_order_consistent_with_equality():
    gen = ModelGen(13)
    objects = [gen.any_object() for _ in range(1000)]
    rng = random.Random(99)
    for _ in range(3000):
        a, b, c = rng.choice(objects), rng.choice(objects), rng.choice(objects)
        ab, ba = _compare(a, b), _compare(b, a)
        assert ab == -ba  # antisymmetry + totality
        assert (ab == 0) == (a == b or m.canonical_key(a) == m.canonical_key(b))
        if ab == 0 and type(a) is type(b):
            assert a == b  # consistent with equality
        if _compare(a, b) <= 0 and _compare(b, c) <= 0:
            assert _compare(a, c) <= 0  # transitivity


# ---------------------------------------------------------------------------
# content_digest
# ---------------------------------------------------------------------------

def test_digest_round_trip_identity():
    gen = ModelGen(17)
    for _ in range(100):
        stmt = gen.statement()
        again = sexpr.parse(sexpr.dumps(stmt))
        assert m.content_digest(stmt) == m.content_digest(again)


def test_digest_of_structurally_equal_reconstruction():
    q = m.Quantity("0.07", m.Item(WD + "Q21127659"), "0.06", "0.08")
    stmt1 = m.Statement(m.Item(WD + "Q2270"),
                        m.ValueSnak(m.Property(WD + "P2177"), q))
    stmt2 = m.Statement(
        m.Item(WD + "Q2270"),
        m.ValueSnak(m.Property(WD + "P2177"),
                    m.Quantity(Decimal("0.07"), m.Item(WD + "Q21127659"),
                               Decimal("0.06"), Decimal("0.08"))))
    assert stmt1 == stmt2
    assert m.content_digest(stmt1) == m.content_digest(stmt2)


def test_digest_ignores_annotations():
    # Rank and the rest of the annotation are not part of statement identity.
    gen = ModelGen(29)
    stmt = gen.statement()
    ann1 = m.AnnotationRecord(rank=m.Rank.NORMAL)
    ann2 = m.AnnotationRecord(rank=m.Rank.PREFERRED)
    assert m.content_digest(stmt) == m.content_digest(stmt)
    assert m.content_digest(ann1) != m.content_digest(ann2)


def test_digest_shape():
    d = m.content_digest(m.Statement(m.Item(WD + "Q1"),
                                     m.NoValueSnak(m.Property(WD + "P1"))))
    assert len(d) == 64 and set(d) <= set("0123456789abcdef")


# ---------------------------------------------------------------------------
# simple_value / is_deep
# ---------------------------------------------------------------------------

def test_simple_value_of_quantity_is_decimal_literal():
    q = m.Quantity(35339, m.Item(WD + "Q122922"))
    assert m.simple_value(q) == Literal("35339", XSD_DECIMAL)


def test_simple_value_of_time_is_zero_filled_timestamp():
    t = m.TimeValue(m.Timestamp(1903, 1, 1), m.PRECISION_YEAR, 0,
                    m.Item(WD + "Q1985727"))
    assert m.simple_value(t) == Literal("1903-01-01T00:00:00Z", XSD_DATE_TIME)


def test_simple_value_of_entity_is_its_iri():
    assert m.simple_value(m.Item(WD + "Q38104")) == IriTerm(WD + "Q38104")
    assert m.simple_value(m.Iri("http://x.org/a")) == IriTerm("http://x.org/a")


def test_simple_value_of_text_and_string():
    assert m.simple_value(m.TextValue("hi", "en")) == Literal("hi", language="en")
    lit = m.simple_value(m.StringValue("0049"))
    assert lit.lexical == "0049" and lit.language is None


def test_is_deep():
    assert m.is_deep(m.Quantity(1))
    assert m.is_deep(m.TimeValue(m.Timestamp(2000)))
    assert not m.is_deep(m.StringValue("0049"))
    assert not m.is_deep(m.Item(WD + "Q1"))
    assert not m.is_deep(m.Iri("http://x.org/"))
    assert not m.is_deep(m.TextValue("x"))


# ---------------------------------------------------------------------------
# FilterPattern
# ---------------------------------------------------------------------------

def test_filter_pattern_value_fp_forces_value_mask():
    fp = m.FilterPattern(value=m.EntityFp(m.Item(WD + "Q1")))
    assert fp.snak_kinds == {m.SnakKind.VALUE}
    with pytest.raises(m.ModelError):
        m.FilterPattern(value=m.EntityFp(m.Item(WD + "Q1")),
                        snak_kinds=frozenset({m.SnakKind.NO_VALUE}))


def test_filter_pattern_rejects_snak_property_fingerprints():
    snak = m.ValueSnak(m.Property(WD + "P1"), m.StringValue("x"))
    with pytest.raises(m.FingerprintError):
        m.FilterPattern(property=m.SnakFp(snak))
    with pytest.raises(m.FingerprintError):
        m.FilterPattern(property=m.EntityFp(m.Item(WD + "Q1")))


def test_filter_pattern_rejects_non_value_fingerprint_snaks():
    with pytest.raises(m.FingerprintError):
        m.FilterPattern(subject=m.SnakFp(m.SomeValueSnak(m.Property(WD + "P1"))))
    with pytest.raises(m.FingerprintError):
        m.FilterPattern(value=m.SnakFp(m.NoValueSnak(m.Property(WD + "P1"))))


def test_filter_pattern_mask_validation():
    with pytest.raises(m.ModelError):
        m.FilterPattern(snak_kinds=frozenset())
    wildcard = m.FilterPattern()
    assert wildcard.is_wildcard()


def test_snak_set_fingerprint_non_empty_and_canonical():
    gen = ModelGen(5)
    snaks = [m.ValueSnak(gen.property(), gen.string()) for _ in range(3)]
    fp = m.SnakSetFp(list(reversed(snaks)))
    assert fp == m.SnakSetFp(snaks)
    with pytest.raises(m.ModelError):
        m.SnakSetFp([])
