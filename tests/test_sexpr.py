import random

import pytest

from kif import model as m
from kif import sexpr

from randgen import WD, ModelGen


NOBEL_TEXT = (
    '(Statement (Item (IRI "http://www.wikidata.org/entity/Q7286")) '
    '(ValueSnak (Property (IRI "http://www.wikidata.org/entity/P166")) '
    '(Item (IRI "http://www.wikidata.org/entity/Q38104"))))')


def test_parse_nobel_prize_statement():
    stmt = sexpr.parse(NOBEL_TEXT)
    assert stmt == m.Statement(
        m.Item(WD + "Q7286"),
        m.ValueSnak(m.Property(WD + "P166"), m.Item(WD + "Q38104")))


def test_parse_quantity_with_unit_and_bounds():
    q = sexpr.parse("(Quantity 0.07 wd:Q21127659 0.06 0.08)")
    assert q == m.Quantity("0.07", m.Item(WD + "Q21127659"), "0.06", "0.08")


def test_parse_no_value_snak():
    snak = sexpr.parse('(NoValueSnak (Property (IRI "%sP166")))' % WD)
    assert snak == m.NoValueSnak(m.Property(WD + "P166"))


def test_parse_compact_prefixed_entities():
    assert sexpr.parse("wd:Q2270") == m.Item(WD + "Q2270")
    assert sexpr.parse("wd:P166") == m.Property(WD + "P166")
    assert sexpr.parse("(ValueSnak wd:P31 wd:Q5)") == m.ValueSnak(
        m.Property(WD + "P31"), m.Item(WD + "Q5"))
    # Non-entity prefixed tokens denote plain IRIs.
    assert sexpr.parse("(ValueSnak wd:P31 xsd:decimal)") == m.ValueSnak(
        m.Property(WD + "P31"),
        m.Iri("http://www.w3.org/2001/XMLSchema#decimal"))


def test_annotation_record_prints_with_nested_sets_and_rank():
    ann = m.AnnotationRecord(
        qualifiers=[m.ValueSnak(m.Property(WD + "P2076"),
                                m.Quantity(68, m.Item(WD + "Q42289"), 67, 69)),
                    m.ValueSnak(m.Property(WD + "P2178"), m.Item(WD + "Q283"))],
        references=[m.ReferenceRecord([m.ValueSnak(m.Property(WD + "P1931"),
                                                   m.StringValue("0049"))])])
    out = sexpr.dumps(ann, compact=True)
    assert out.startswith("(AnnotationRecord (SnakSet ")
    assert "(ReferenceRecordSet (ReferenceRecord " in out
    assert out.endswith(" NormalRank)")
    assert '(String "0049")' in out
    assert sexpr.parse(out) == ann


def test_rank_prints_as_normal_rank_symbol():
    assert sexpr.dumps(m.Rank.NORMAL) == "NormalRank"
    assert sexpr.dumps(m.Rank.PREFERRED) == "PreferredRank"
    # Both the bare and the suffixed symbol parse.
    assert sexpr.parse("Normal") is m.Rank.NORMAL
    assert sexpr.parse("NormalRank") is m.Rank.NORMAL
    assert sexpr.parse("Deprecated") is m.Rank.DEPRECATED


def test_timestamp_display_forms():
    t9 = m.TimeValue("1903-01-01", 9, 0, m.Item(WD + "Q1985727"))
    out = sexpr.dumps(t9, compact=True)
    assert out == "(Time 1903-01-01 9 0 wd:Q1985727)"
    assert sexpr.parse(out) == t9
    t14 = m.TimeValue(m.Timestamp(2015, 8, 3, 11, 22, 33), 14)
    out14 = sexpr.dumps(t14)
    assert "2015-08-03T11:22:33Z" in out14
    assert sexpr.parse(out14) == t14
    # The parser accepts both display forms at any precision.
    assert sexpr.parse("(Time 2015-08-03 14 0)") == m.TimeValue(
        m.Timestamp(2015, 8, 3), 14)


@pytest.mark.parametrize("text, position", [
    ("(ValueSnak wd:P1 2001-02-03T04:05:06Z)", (1, 18)),
    ("(String 1903-01-01)", (1, 9)),
    ('(Text "a" 1903-01-01)', (1, 11)),
    ("(Time 1903-01-01 1903-01-01)", (1, 18)),
    ("(Statement wd:Q1\n  (ValueSnak wd:P1 2001-02-03))", (2, 20)),
], ids=["value-snak", "string", "text-language", "time-second-argument", "nested"])
def test_a_timestamp_symbol_is_only_the_first_argument_of_time(text, position):
    with pytest.raises(sexpr.SexprError) as err:
        sexpr.parse(text)
    assert (err.value.line, err.value.column) == position
    assert "timestamp" in str(err.value)


def test_a_time_form_still_reads_a_timestamp_symbol():
    assert sexpr.parse("(Time 2001-02-03T04:05:06Z)") == m.TimeValue(
        m.Timestamp(2001, 2, 3, 4, 5, 6), m.PRECISION_DAY)
    assert sexpr.parse('(ValueSnak wd:P1 "2001-02-03")') == m.ValueSnak(
        m.Property(WD + "P1"), m.StringValue("2001-02-03"))


def test_quantity_placeholder_slots():
    upper_only = m.Quantity(5, None, None, 9)
    assert sexpr.dumps(upper_only) == "(Quantity 5 * * 9)"
    assert sexpr.parse("(Quantity 5 * * 9)") == upper_only
    lower_only = m.Quantity(5, None, 3, None)
    assert sexpr.dumps(lower_only) == "(Quantity 5 3)"
    assert sexpr.parse("(Quantity 5 3)") == lower_only
    assert sexpr.parse("(Quantity 5 3 9)") == m.Quantity(5, None, 3, 9)


def test_round_trip_randomized_both_modes():
    gen = ModelGen(23)
    for _ in range(1000):
        obj = gen.any_object()
        for compact in (False, True):
            text = sexpr.dumps(obj, compact=compact)
            again = sexpr.parse(text)
            assert again == obj, text
            # Canonical form: printing the re-parse reproduces the text.
            assert sexpr.dumps(again, compact=compact) == text


def test_round_trip_fingerprints_and_patterns():
    gen = ModelGen(31)
    pairs, _ = gen.dataset(30)
    for _ in range(100):
        pattern = gen.pattern_for(pairs)
        text = sexpr.dumps(pattern, compact=True)
        assert sexpr.parse(text) == pattern


def test_parse_many_fixture_stream():
    text = """
    (Statement wd:Q1 (ValueSnak wd:P1 (String "a")))
    (AnnotatedStatement (Statement wd:Q1 (ValueSnak wd:P1 (String "b")))
      (AnnotationRecord (SnakSet) (ReferenceRecordSet) PreferredRank))
    (EntityDescriptor wd:Q1 (Descriptor (Text "one" "en") * (Text "uno" "es")))
    """
    objs = sexpr.parse_many(text)
    assert isinstance(objs[0], m.Statement)
    assert isinstance(objs[1], m.AnnotatedStatement)
    assert objs[1].annotations[0].rank is m.Rank.PREFERRED
    assert isinstance(objs[2], m.EntityDescriptor)
    assert objs[2].descriptor.label == m.TextValue("one", "en")
    assert objs[2].descriptor.description is None


def test_string_escapes_round_trip():
    tricky = m.StringValue('a"b\\c\nd\te')
    text = sexpr.dumps(tricky)
    assert sexpr.parse(text) == tricky


def test_every_ascii_and_a_non_bmp_character_round_trip():
    value = m.StringValue("".join(map(chr, range(0x80))) + "\U0001F600")
    text = sexpr.dumps(value)
    # Statement-node IRIs hash this text, so its escapes must not change.
    assert "\\u001f" in text and "\\t" in text
    assert sexpr.parse(text) == value


# ---------------------------------------------------------------------------
# Errors and positions
# ---------------------------------------------------------------------------

def test_arity_error_positions_at_form():
    with pytest.raises(sexpr.SexprError) as err:
        sexpr.parse("(Quantity)")
    # The position points at the head symbol of the offending form.
    assert err.value.line == 1 and err.value.column == 2
    assert "argument" in str(err.value)


def test_unknown_head_position():
    with pytest.raises(sexpr.SexprError) as err:
        sexpr.parse("  (Nonsense 1)")
    assert err.value.line == 1 and err.value.column == 4
    assert "Nonsense" in str(err.value)


def test_top_level_star_position():
    with pytest.raises(sexpr.SexprError) as err:
        sexpr.parse_many("wd:Q1\n\n  *")
    assert str(err.value) == "3:3: * is not an object"
    assert (err.value.line, err.value.column) == (3, 3)


@pytest.mark.parametrize("text, message", [
    ("ValueSnak", "1:1: ValueSnak is not an object"),
    ("\n (SnakMask ValueSnak NoValueSnak)",
     "2:2: (SnakMask NoValueSnak ValueSnak) is not an object"),
    ("wd:Q1 1903-01-01", "1:7: 1903-01-01 is not an object"),
    ("  (SnakSet)", "1:3: snak set fingerprint must be non-empty"),
], ids=["kind", "mask", "timestamp", "empty-snak-set"])
def test_parse_gives_a_model_object_or_a_positioned_error(text, message):
    with pytest.raises(sexpr.SexprError) as err:
        sexpr.parse_many(text)
    assert str(err.value) == message


def test_unbalanced_and_stray_tokens():
    with pytest.raises(sexpr.SexprError) as err:
        sexpr.parse("(Quantity 1")
    assert "missing )" in str(err.value)
    with pytest.raises(sexpr.SexprError) as err:
        sexpr.parse(")")
    assert err.value.column == 1
    with pytest.raises(sexpr.SexprError):
        sexpr.parse("(Quantity 1) extra")


def test_unknown_prefix_reported():
    with pytest.raises(sexpr.SexprError) as err:
        sexpr.parse("unknown:Q1")
    assert "prefix" in str(err.value)


def test_unterminated_string_points_at_opening_quote():
    with pytest.raises(sexpr.SexprError) as err:
        sexpr.parse('(String "abc)')
    assert err.value.line == 1 and err.value.column == 9


def test_a_newline_inside_a_string_counts_for_later_positions():
    with pytest.raises(sexpr.SexprError) as err:
        sexpr.parse_many('(String "one\ntwo") bad:Q1')
    assert (err.value.line, err.value.column) == (2, 7)
    assert "prefix" in str(err.value)


@pytest.mark.parametrize("text, message", [
    ("(FilterPattern (SnakMask ValueSnak NoValueSnak) * *)",
     "1:16: expected a fingerprint or *, got (SnakMask NoValueSnak ValueSnak)"),
    ("(Statement wd:Q1 (Item (IRI \"http://example.org/x\")))",
     '1:18: expected a snak, got (Item (IRI "http://example.org/x"))'),
], ids=["mask", "statement"])
def test_a_wrong_argument_is_shown_as_its_s_expression(text, message):
    # The same text under every string hash seed: a mask prints its kinds
    # in the printer's order, not in the order of a set.
    with pytest.raises(sexpr.SexprError) as err:
        sexpr.parse(text)
    assert str(err.value) == message


def _offset_of(text: str, line: int, column: int) -> int:
    lines = text.split("\n")
    assert 1 <= line <= len(lines)
    return sum(len(l) + 1 for l in lines[:line - 1]) + column - 1


def test_single_character_corruption_yields_positioned_errors():
    gen = ModelGen(37)
    rng = random.Random(4)
    alphabet = '()" abcQP0.5x'
    for _ in range(60):
        text = sexpr.dumps(gen.any_object(), compact=rng.random() < 0.5)
        pos = rng.randrange(len(text))
        replacement = rng.choice(alphabet)
        if replacement == text[pos]:
            continue
        corrupted = text[:pos] + replacement + text[pos + 1:]
        try:
            sexpr.parse(corrupted)
        except sexpr.SexprError as e:
            offset = _offset_of(corrupted, e.line, e.column)
            assert 0 <= offset <= len(corrupted)
        # A corruption may still parse (e.g. a digit change); that is fine.
