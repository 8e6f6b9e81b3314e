"""Immutable value types of the Wikibase-style statement model.

Everything here is a frozen dataclass: values, snaks, statements, and the
metadata records around them. Identity is structural - a statement is its
(subject, snak) content, never an opaque id - and every composite keeps its
member sets in a canonical order so that equal content always serializes,
compares, and digests identically.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Iterable

from .namespaces import RDF_LANG_STRING, WD_UNIT_ONE, XSD_DATE_TIME, XSD_DECIMAL, XSD_STRING
from .rdf.terms import IriTerm, Literal, Term


class ModelError(ValueError):
    """Raised when a model object is constructed with invalid content."""


class FingerprintError(ModelError):
    """Raised for fingerprints outside the supported forms."""


_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
_WS_RE = re.compile(r"\s")


def _to_decimal(x: Decimal | int | str, what: str) -> Decimal:
    if isinstance(x, float):
        raise ModelError(f"{what} must be an exact decimal (str, int, or Decimal), not float")
    if isinstance(x, Decimal):
        d = x
    else:
        try:
            d = Decimal(str(x))
        except InvalidOperation:
            raise ModelError(f"invalid decimal for {what}: {x!r}") from None
    if not d.is_finite():
        raise ModelError(f"{what} must be finite, got {x!r}")
    return d


def decimal_lexical(d: Decimal) -> str:
    """Canonical plain decimal form: no exponent, no trailing fraction zeros."""
    s = format(d, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    if s in ("", "-", "-0"):
        s = "0"
    return s


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class Value:
    """Base of all value variants (entities and data values)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Iri(Value):
    value: str

    def __post_init__(self) -> None:
        v = self.value
        if not v:
            raise ModelError("IRI must be non-empty")
        if _WS_RE.search(v):
            raise ModelError(f"IRI must not contain whitespace: {v!r}")
        if not _SCHEME_RE.match(v):
            raise ModelError(f"IRI must be absolute (scheme missing): {v!r}")


class Entity(Value):
    """Base of Item and Property. Same-IRI Item and Property stay distinct."""

    __slots__ = ()
    iri: Iri


def _coerce_iri(x: Iri | str) -> Iri:
    return x if isinstance(x, Iri) else Iri(x)


@dataclass(frozen=True, slots=True)
class Item(Entity):
    iri: Iri

    def __post_init__(self) -> None:
        object.__setattr__(self, "iri", _coerce_iri(self.iri))


@dataclass(frozen=True, slots=True)
class Property(Entity):
    iri: Iri

    def __post_init__(self) -> None:
        object.__setattr__(self, "iri", _coerce_iri(self.iri))


@dataclass(frozen=True, slots=True)
class TextValue(Value):
    content: str
    language: str = "en"

    def __post_init__(self) -> None:
        if not self.language:
            raise ModelError("language tag must be non-empty")
        object.__setattr__(self, "language", self.language.lower())


@dataclass(frozen=True, slots=True)
class StringValue(Value):
    content: str


@dataclass(frozen=True, slots=True)
class Quantity(Value):
    """Exact-decimal amount with optional unit item and bounds; unit wd:Q199 is none."""

    amount: Decimal
    unit: Item | None = None
    lower: Decimal | None = None
    upper: Decimal | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "amount", _to_decimal(self.amount, "amount"))
        if self.unit is not None:
            if not isinstance(self.unit, Item):
                raise ModelError(f"quantity unit must be an Item, got {self.unit!r}")
            if self.unit.iri.value == WD_UNIT_ONE:
                object.__setattr__(self, "unit", None)
        if self.lower is not None:
            object.__setattr__(self, "lower", _to_decimal(self.lower, "lower bound"))
            if self.lower > self.amount:
                raise ModelError(f"lower bound {self.lower} exceeds amount {self.amount}")
        if self.upper is not None:
            object.__setattr__(self, "upper", _to_decimal(self.upper, "upper bound"))
            if self.amount > self.upper:
                raise ModelError(f"amount {self.amount} exceeds upper bound {self.upper}")


_TS_RE = re.compile(
    r"^(?P<y>[+-]?\d{1,16})-(?P<mo>\d{2})-(?P<d>\d{2})"
    r"(?:T(?P<h>\d{2}):(?P<mi>\d{2}):(?P<s>\d{2})Z?)?$"
)


@dataclass(frozen=True, slots=True)
class Timestamp:
    """Proleptic date-time; the year may be negative and is not range-limited."""

    year: int
    month: int = 1
    day: int = 1
    hour: int = 0
    minute: int = 0
    second: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.month <= 12:
            raise ModelError(f"month out of range: {self.month}")
        if not 1 <= self.day <= 31:
            raise ModelError(f"day out of range: {self.day}")
        if not (0 <= self.hour <= 23 and 0 <= self.minute <= 59 and 0 <= self.second <= 59):
            raise ModelError("time component out of range")

    @classmethod
    def parse(cls, text: str) -> "Timestamp":
        m = _TS_RE.match(text)
        if not m:
            raise ModelError(f"not a timestamp: {text!r}")
        return cls(
            year=int(m.group("y")),
            month=int(m.group("mo")),
            day=int(m.group("d")),
            hour=int(m.group("h") or 0),
            minute=int(m.group("mi") or 0),
            second=int(m.group("s") or 0),
        )

    def _year_lexical(self) -> str:
        if self.year < 0:
            return f"-{-self.year:04d}"
        return f"{self.year:04d}"

    def date_lexical(self) -> str:
        return f"{self._year_lexical()}-{self.month:02d}-{self.day:02d}"

    def lexical(self) -> str:
        """Full xsd:dateTime form, always with a Z suffix."""
        return (f"{self.date_lexical()}T{self.hour:02d}:{self.minute:02d}"
                f":{self.second:02d}Z")


#: Wikibase precision codes: 9 = year, 10 = month, 11 = day, 12..14 = h/m/s.
PRECISION_YEAR = 9
PRECISION_MONTH = 10
PRECISION_DAY = 11
PRECISION_SECOND = 14


def _zero_fill(ts: Timestamp, precision: int) -> Timestamp:
    """Clear components finer than *precision* (year precision -> Jan 1, midnight)."""
    month, day, hour, minute, second = ts.month, ts.day, ts.hour, ts.minute, ts.second
    if precision <= PRECISION_YEAR:
        month = day = 1
        hour = minute = second = 0
    elif precision == PRECISION_MONTH:
        day = 1
        hour = minute = second = 0
    elif precision == PRECISION_DAY:
        hour = minute = second = 0
    elif precision == 12:
        minute = second = 0
    elif precision == 13:
        second = 0
    return Timestamp(ts.year, month, day, hour, minute, second)


@dataclass(frozen=True, slots=True)
class TimeValue(Value):
    timestamp: Timestamp
    precision: int = PRECISION_DAY
    timezone: int = 0
    calendar: Item | None = None

    def __post_init__(self) -> None:
        ts = self.timestamp
        if isinstance(ts, str):
            ts = Timestamp.parse(ts)
        if not isinstance(ts, Timestamp):
            raise ModelError(f"timestamp must be a Timestamp or string, got {ts!r}")
        if not 0 <= self.precision <= 14:
            raise ModelError(f"precision out of range [0,14]: {self.precision}")
        if self.calendar is not None and not isinstance(self.calendar, Item):
            raise ModelError(f"calendar must be an Item, got {self.calendar!r}")
        object.__setattr__(self, "timestamp", _zero_fill(ts, self.precision))


# ---------------------------------------------------------------------------
# Snaks and statements
# ---------------------------------------------------------------------------

class Snak:
    """Base of the three snak variants; the variant kind is part of equality."""

    __slots__ = ()
    property: Property


def _check_property(p: object) -> None:
    if not isinstance(p, Property):
        raise ModelError(f"snak property must be a Property, got {p!r}")


@dataclass(frozen=True, slots=True)
class ValueSnak(Snak):
    property: Property
    value: Value

    def __post_init__(self) -> None:
        _check_property(self.property)
        if not isinstance(self.value, Value):
            raise ModelError(f"snak value must be a Value, got {self.value!r}")


@dataclass(frozen=True, slots=True)
class SomeValueSnak(Snak):
    property: Property

    def __post_init__(self) -> None:
        _check_property(self.property)


@dataclass(frozen=True, slots=True)
class NoValueSnak(Snak):
    property: Property

    def __post_init__(self) -> None:
        _check_property(self.property)


class SnakKind(enum.Enum):
    VALUE = "value"
    SOME_VALUE = "some-value"
    NO_VALUE = "no-value"


ALL_SNAK_KINDS = frozenset(SnakKind)


def snak_kind(snak: Snak) -> SnakKind:
    if isinstance(snak, ValueSnak):
        return SnakKind.VALUE
    if isinstance(snak, SomeValueSnak):
        return SnakKind.SOME_VALUE
    return SnakKind.NO_VALUE


@dataclass(frozen=True, slots=True)
class Statement:
    """An entity plus a claim about it; equality is content equality."""

    subject: Entity
    snak: Snak

    def __post_init__(self) -> None:
        if not isinstance(self.subject, Entity):
            raise ModelError(f"statement subject must be an entity, got {self.subject!r}")
        if not isinstance(self.snak, Snak):
            raise ModelError(f"statement snak must be a Snak, got {self.snak!r}")


class Rank(enum.Enum):
    PREFERRED = "preferred"
    NORMAL = "normal"
    DEPRECATED = "deprecated"

    @property
    def priority(self) -> int:
        return {Rank.PREFERRED: 2, Rank.NORMAL: 1, Rank.DEPRECATED: 0}[self]


def _canonical_tuple(items: Iterable, what: str, typ: type) -> tuple:
    out = []
    for x in items:
        if not isinstance(x, typ):
            raise ModelError(f"{what} must contain {typ.__name__} elements, got {x!r}")
        out.append(x)
    dedup = {canonical_key(x): x for x in out}
    return tuple(dedup[k] for k in sorted(dedup))


@dataclass(frozen=True, slots=True)
class ReferenceRecord:
    """A non-empty canonical set of snaks recording provenance."""

    snaks: tuple[Snak, ...]

    def __init__(self, snaks: Iterable[Snak]) -> None:
        canon = _canonical_tuple(snaks, "reference record", Snak)
        if not canon:
            raise ModelError("reference record must contain at least one snak")
        object.__setattr__(self, "snaks", canon)


@dataclass(frozen=True, slots=True)
class AnnotationRecord:
    """Qualifiers, references, and rank; kept apart from statement identity."""

    qualifiers: tuple[Snak, ...] = ()
    references: tuple[ReferenceRecord, ...] = ()
    rank: Rank = Rank.NORMAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "qualifiers",
                           _canonical_tuple(self.qualifiers, "qualifiers", Snak))
        object.__setattr__(self, "references",
                           _canonical_tuple(self.references, "references", ReferenceRecord))
        if not isinstance(self.rank, Rank):
            raise ModelError(f"rank must be a Rank, got {self.rank!r}")

    def with_extra_references(self, extra: Iterable[ReferenceRecord]) -> "AnnotationRecord":
        return AnnotationRecord(self.qualifiers, self.references + tuple(extra), self.rank)


@dataclass(frozen=True, slots=True)
class Descriptor:
    """Label, description, and aliases of an entity."""

    label: TextValue | None = None
    description: TextValue | None = None
    aliases: tuple[TextValue, ...] = ()

    def __post_init__(self) -> None:
        seen: set[tuple[str, str]] = set()
        out = []
        for a in self.aliases:
            if not isinstance(a, TextValue):
                raise ModelError(f"alias must be a TextValue, got {a!r}")
            key = (a.content, a.language)
            if key not in seen:
                seen.add(key)
                out.append(a)
        object.__setattr__(self, "aliases", tuple(out))

    def is_empty(self) -> bool:
        return self.label is None and self.description is None and not self.aliases

    def restricted_to(self, language: str) -> "Descriptor":
        """Fields in *language* only; aliases come back canonically ordered
        (the triple encoding keeps no list order to preserve)."""
        lang = language.lower()
        return Descriptor(
            label=self.label if self.label and self.label.language == lang else None,
            description=(self.description
                         if self.description and self.description.language == lang else None),
            aliases=tuple(sorted((a for a in self.aliases if a.language == lang),
                                 key=canonical_key)),
        )


# ---------------------------------------------------------------------------
# Fingerprints and filter patterns
# ---------------------------------------------------------------------------

class Fingerprint:
    """Something that identifies an entity: itself, a snak, or a snak set."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class EntityFp(Fingerprint):
    entity: Entity

    def __post_init__(self) -> None:
        if not isinstance(self.entity, Entity):
            raise ModelError(f"entity fingerprint needs an entity, got {self.entity!r}")


@dataclass(frozen=True, slots=True)
class SnakFp(Fingerprint):
    snak: Snak

    def __post_init__(self) -> None:
        if not isinstance(self.snak, Snak):
            raise ModelError(f"snak fingerprint needs a snak, got {self.snak!r}")

    @property
    def snaks(self) -> tuple[Snak, ...]:
        """The fingerprint's one snak, read the way SnakSetFp.snaks is."""
        return (self.snak,)


@dataclass(frozen=True, slots=True)
class SnakSetFp(Fingerprint):
    snaks: tuple[Snak, ...]

    def __init__(self, snaks: Iterable[Snak]) -> None:
        canon = _canonical_tuple(snaks, "snak set fingerprint", Snak)
        if not canon:
            raise ModelError("snak set fingerprint must be non-empty")
        object.__setattr__(self, "snaks", canon)


def _check_entity_side_fp(fp: Fingerprint | None, slot: str) -> None:
    if fp is None or isinstance(fp, EntityFp):
        return
    if not isinstance(fp, (SnakFp, SnakSetFp)):
        raise FingerprintError(f"{slot} fingerprint has unsupported type {type(fp).__name__}")
    for s in fp.snaks:
        if not isinstance(s, ValueSnak):
            raise FingerprintError(
                f"{slot} fingerprint snaks must be value snaks "
                f"(got {type(s).__name__}); some/no-value snaks cannot identify an entity")


@dataclass(frozen=True, slots=True)
class FilterPattern:
    """The query language of stores: optional fingerprints plus a snak-kind mask.

    The all-absent pattern is legal and matches everything. A value
    fingerprint forces the mask to {value}. Property fingerprints must name
    the property directly (EntityFp); identifying properties through snaks
    is not supported and is rejected here. This is the one check: the codec,
    the mapper and the stores rely on it and do not repeat it.
    """

    subject: Fingerprint | None = None
    property: Fingerprint | None = None
    value: Fingerprint | None = None
    snak_kinds: frozenset[SnakKind] = ALL_SNAK_KINDS

    def __post_init__(self) -> None:
        _check_entity_side_fp(self.subject, "subject")
        _check_entity_side_fp(self.value, "value")
        if self.property is not None:
            if not isinstance(self.property, EntityFp):
                raise FingerprintError(
                    "property fingerprints are restricted to direct entities "
                    "(EntityFp); snak-based property identification is unsupported")
            if not isinstance(self.property.entity, Property):
                raise FingerprintError("property fingerprint must hold a Property entity")
        kinds = frozenset(self.snak_kinds)
        if not kinds:
            raise ModelError("snak-kind mask must be non-empty")
        if not kinds <= ALL_SNAK_KINDS:
            raise ModelError(f"invalid snak-kind mask: {self.snak_kinds!r}")
        if self.value is not None:
            if kinds == ALL_SNAK_KINDS:
                kinds = frozenset({SnakKind.VALUE})
            elif kinds != {SnakKind.VALUE}:
                raise ModelError("a value fingerprint restricts the mask to {value}")
        object.__setattr__(self, "snak_kinds", kinds)

    def is_wildcard(self) -> bool:
        return (self.subject is None and self.property is None
                and self.value is None and self.snak_kinds == ALL_SNAK_KINDS)


# ---------------------------------------------------------------------------
# Canonical ordering and digests
# ---------------------------------------------------------------------------

def _opt(key: tuple | None) -> tuple:
    return (0,) if key is None else (1, key)


def canonical_key(x: object) -> tuple:
    """Recursive sort key; a total order over IRIs, entities, values, snaks,
    statements, records, ranks and descriptors, consistent with structural
    equality and stable across processes."""
    if isinstance(x, Iri):
        return (0, x.value)
    if isinstance(x, Item):
        return (1, x.iri.value)
    if isinstance(x, Property):
        return (2, x.iri.value)
    if isinstance(x, TextValue):
        return (3, x.language, x.content)
    if isinstance(x, StringValue):
        return (4, x.content)
    if isinstance(x, Quantity):
        return (5, x.amount,
                _opt(canonical_key(x.unit) if x.unit else None),
                _opt((x.lower,) if x.lower is not None else None),
                _opt((x.upper,) if x.upper is not None else None))
    if isinstance(x, TimeValue):
        ts = x.timestamp
        return (6, ts.year, ts.month, ts.day, ts.hour, ts.minute, ts.second,
                x.precision, x.timezone,
                _opt(canonical_key(x.calendar) if x.calendar else None))
    if isinstance(x, ValueSnak):
        return (7, canonical_key(x.property), canonical_key(x.value))
    if isinstance(x, SomeValueSnak):
        return (8, canonical_key(x.property))
    if isinstance(x, NoValueSnak):
        return (9, canonical_key(x.property))
    if isinstance(x, Statement):
        return (10, canonical_key(x.subject), canonical_key(x.snak))
    if isinstance(x, ReferenceRecord):
        return (11, tuple(canonical_key(s) for s in x.snaks))
    if isinstance(x, Rank):
        return (12, -x.priority)
    if isinstance(x, AnnotationRecord):
        return (13, tuple(canonical_key(q) for q in x.qualifiers),
                tuple(canonical_key(r) for r in x.references),
                canonical_key(x.rank))
    if isinstance(x, Descriptor):
        return (14, _opt(canonical_key(x.label) if x.label else None),
                _opt(canonical_key(x.description) if x.description else None),
                tuple(canonical_key(a) for a in x.aliases))
    raise ModelError(f"object has no canonical order: {x!r}")


def content_digest(x: object) -> str:
    """256-bit hex digest of the canonical serialization of *x*, which
    names the nodes of the RDF encoding (see codec).

    Equal content gives equal digests; annotations never leak into a
    statement's digest because they are not part of the statement.
    """
    return hashlib.sha256(sexpr.dumps(x).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Simple values
# ---------------------------------------------------------------------------

def is_deep(v: Value) -> bool:
    """True for values whose full content needs a reified node (quantity, time)."""
    return isinstance(v, (Quantity, TimeValue))


def simple_value(v: Value) -> Term:
    """The one-term summary of a value: a literal, or the IRI itself."""
    if isinstance(v, Quantity):
        return Literal(decimal_lexical(v.amount), XSD_DECIMAL)
    if isinstance(v, TimeValue):
        return Literal(v.timestamp.lexical(), XSD_DATE_TIME)
    if isinstance(v, TextValue):
        return Literal(v.content, RDF_LANG_STRING, v.language)
    if isinstance(v, StringValue):
        return Literal(v.content, XSD_STRING)
    if isinstance(v, Entity):
        return IriTerm(v.iri.value)
    if isinstance(v, Iri):
        return IriTerm(v.value)
    raise ModelError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# Fixture pairing forms (used by the S-expression fixture files)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class AnnotatedStatement:
    """A statement bundled with one or more annotation records."""

    statement: Statement
    annotations: tuple[AnnotationRecord, ...]

    def __init__(self, statement: Statement,
                 annotations: Iterable[AnnotationRecord] = ()) -> None:
        object.__setattr__(self, "statement", statement)
        object.__setattr__(
            self, "annotations",
            _canonical_tuple(annotations, "annotations", AnnotationRecord))


@dataclass(frozen=True, slots=True)
class EntityDescriptor:
    """An entity bound to its descriptor (fixture form)."""

    entity: Entity
    descriptor: Descriptor


# Imported last: sexpr builds on the classes above, and content_digest
# prints through it.
from . import sexpr  # noqa: E402
