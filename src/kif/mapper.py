"""Query-time vocabulary mapping over non-Wikidata-shaped SPARQL sources.

A MappingSpec declares how source entities and predicates correspond to
target (Wikidata-style) entities and properties. The mapper store rewrites
filter patterns source-ward, runs them against the raw source, and rewrites
the results target-ward, so the source looks like one more statement store.
Source queries take the same paging and page-cache path as the RdfStore and
SparqlStore queries (PagedStore.select_all), so a filter reads only the
pages its limit needs. Patterns that mention unmapped properties, and
patterns with a value fingerprint, are unsupported and yield empty results
without touching the source. Descriptors take PagedStore's read, with the
label predicate as the one descriptor predicate.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from functools import cached_property
from typing import Iterable, Iterator

from . import model as m
from .codec import property_local, select_query
from .namespaces import XSD_DECIMAL
from .rdf.sparql import SelectQuery, TriplePattern, ValuesBlock, Var
from .rdf.terms import Graph, IriTerm, Literal, Term
from .stores.backed import PagedStore, Row
from .stores.base import StoreOptions

logger = logging.getLogger(__name__)


class MappingError(ValueError):
    pass


_CAPTURE = "{n}"


@dataclass(frozen=True)
class EntityRule:
    """Bijective IRI rewrite between one source and one target template.

    Each template contains exactly one ``{n}`` capture.
    """

    source_template: str
    target_template: str

    def __post_init__(self) -> None:
        for tpl in (self.source_template, self.target_template):
            if tpl.count(_CAPTURE) != 1:
                raise MappingError(f"template needs exactly one {{n}} capture: {tpl!r}")

    @staticmethod
    def _compile(tpl: str) -> re.Pattern:
        head, tail = tpl.split(_CAPTURE)
        return re.compile(re.escape(head) + "(.+)" + re.escape(tail) + "$")

    # Compiled once per rule: the results of every source query are
    # rewritten through them, one row at a time.
    @cached_property
    def _source_re(self) -> re.Pattern:
        return self._compile(self.source_template)

    @cached_property
    def _target_re(self) -> re.Pattern:
        return self._compile(self.target_template)

    @staticmethod
    def _rewrite(iri: str, src: re.Pattern, dst: str) -> str | None:
        match = src.match(iri)
        if not match:
            return None
        return dst.replace(_CAPTURE, match.group(1))

    def to_source(self, iri: str) -> str | None:
        return self._rewrite(iri, self._target_re, self.source_template)

    def to_target(self, iri: str) -> str | None:
        return self._rewrite(iri, self._source_re, self.target_template)


class ValueCodec:
    """Closed family of literal<->value transcoders used by property rules."""

    kind: str

    def encode(self, value: m.Value) -> Term | None:
        raise NotImplementedError

    def decode(self, term: Term) -> m.Value | None:
        raise NotImplementedError

    def spec(self) -> dict:
        return {"kind": self.kind}


@dataclass(frozen=True)
class StringCodec(ValueCodec):
    kind = "string"

    def encode(self, value: m.Value) -> Term | None:
        if isinstance(value, m.StringValue):
            return Literal(value.content)
        return None

    def decode(self, term: Term) -> m.Value | None:
        if isinstance(term, Literal) and not term.language:
            return m.StringValue(term.lexical)
        return None


@dataclass(frozen=True)
class IriCodec(ValueCodec):
    kind = "iri"

    def encode(self, value: m.Value) -> Term | None:
        if isinstance(value, m.Iri):
            return IriTerm(value.value)
        return None

    def decode(self, term: Term) -> m.Value | None:
        if isinstance(term, IriTerm):
            return m.Iri(term.value)
        return None


@dataclass(frozen=True)
class DecimalQuantityCodec(ValueCodec):
    unit: m.Item | None = None
    kind = "decimal-quantity"

    def encode(self, value: m.Value) -> Term | None:
        # The quantity this codec would decode from its amount: its unit
        # and no bounds, so a codec of wd:Q199 takes unitless amounts.
        if isinstance(value, m.Quantity) and value == m.Quantity(value.amount, self.unit):
            return Literal(m.decimal_lexical(value.amount), XSD_DECIMAL)
        return None

    def decode(self, term: Term) -> m.Value | None:
        if not isinstance(term, Literal) or term.language:
            return None
        try:
            return m.Quantity(Decimal(term.lexical), self.unit)
        except (InvalidOperation, m.ModelError, ValueError):
            return None

    def spec(self) -> dict:
        out = {"kind": self.kind}
        if self.unit is not None:
            out["unit"] = self.unit.iri.value
        return out


@dataclass(frozen=True)
class TextCodec(ValueCodec):
    language: str = "en"
    kind = "text"

    def encode(self, value: m.Value) -> Term | None:
        if isinstance(value, m.TextValue) and value.language == self.language:
            return Literal(value.content, language=value.language)
        return None

    def decode(self, term: Term) -> m.Value | None:
        if isinstance(term, Literal):
            return m.TextValue(term.lexical, term.language or self.language)
        return None

    def spec(self) -> dict:
        return {"kind": self.kind, "language": self.language}


_JSON_TYPES = {str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()


def _member(obj: dict, key: str, typ: type, where: str, default=_REQUIRED):
    """The *key* member of *obj*, which *where* names: a *typ*, or *default*
    when absent or null. No default makes the member required."""
    val = obj.get(key)
    if val is None and default is not _REQUIRED:
        return default
    if not isinstance(val, typ):
        raise MappingError(f"{where} has no {key!r}" if val is None else
                           f"{where}: {key!r} must be {_JSON_TYPES[typ]}, got {val!r}")
    return val


def _rules(data: dict, key: str) -> Iterator[tuple[str, dict]]:
    """Each object of the *key* list of a mapping document, with its name."""
    for i, rule in enumerate(_member(data, key, list, "the mapping document", [])):
        if not isinstance(rule, dict):
            raise MappingError(f"{key}[{i}] must be an object, got {rule!r}")
        yield f"{key}[{i}]", rule


def _codec_from_spec(spec: dict, where: str) -> ValueCodec:
    kind = spec.get("kind")
    if kind == "string":
        return StringCodec()
    if kind == "iri":
        return IriCodec()
    if kind == "decimal-quantity":
        unit = _member(spec, "unit", str, where, None)
        return DecimalQuantityCodec(m.Item(unit) if unit else None)
    if kind == "text":
        return TextCodec(_member(spec, "language", str, where, "en"))
    raise MappingError(f"unknown value codec kind {kind!r}")


@dataclass(frozen=True)
class PropertyRule:
    property: m.Property
    source_predicate: str
    codec: ValueCodec

    def __post_init__(self) -> None:
        property_local(self.property)  # must be an encodable target property


@dataclass(frozen=True)
class MappingSpec:
    name: str
    entity_rules: tuple[EntityRule, ...] = ()
    property_rules: tuple[PropertyRule, ...] = ()
    label_predicate: str | None = None

    def __post_init__(self) -> None:
        seen = set()
        for rule in self.property_rules:
            key = rule.property.iri.value
            if key in seen:
                raise MappingError(f"duplicate rule for target property {key}")
            seen.add(key)

    def rule_for(self, prop: m.Property) -> PropertyRule | None:
        for rule in self.property_rules:
            if rule.property == prop:
                return rule
        return None

    def rule_for_predicate(self, predicate: str) -> PropertyRule | None:
        for rule in self.property_rules:
            if rule.source_predicate == predicate:
                return rule
        return None

    def entity_to_source(self, iri: str) -> str | None:
        for rule in self.entity_rules:
            out = rule.to_source(iri)
            if out is not None:
                return out
        return None

    def entity_to_target(self, iri: str) -> str:
        for rule in self.entity_rules:
            out = rule.to_target(iri)
            if out is not None:
                return out
        return iri

    # -- JSON form ------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "MappingSpec":
        """The spec of a mapping document; one of the wrong shape raises
        MappingError naming its bad member."""
        if not isinstance(data, dict):
            raise MappingError(f"a mapping document must be an object, got {data!r}")
        entity_rules = tuple(
            EntityRule(_member(r, "source", str, at), _member(r, "target", str, at))
            for at, r in _rules(data, "entity_rules"))
        property_rules = tuple(
            PropertyRule(m.Property(_member(r, "property", str, at)),
                         _member(r, "source_predicate", str, at),
                         _codec_from_spec(_member(r, "codec", dict, at, {"kind": "string"}),
                                          f"{at}.codec"))
            for at, r in _rules(data, "property_rules"))
        where = "the mapping document"
        return cls(_member(data, "name", str, where, "mapping"), entity_rules, property_rules,
                   _member(data, "label_predicate", str, where, None))

    @classmethod
    def load(cls, path: str) -> "MappingSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        out: dict = {
            "name": self.name,
            "entity_rules": [{"source": r.source_template, "target": r.target_template}
                             for r in self.entity_rules],
            "property_rules": [{"property": r.property.iri.value,
                                "source_predicate": r.source_predicate,
                                "codec": r.codec.spec()}
                               for r in self.property_rules],
        }
        if self.label_predicate:
            out["label_predicate"] = self.label_predicate
        return out


# ---------------------------------------------------------------------------
# Pattern translation
# ---------------------------------------------------------------------------

_SUBJECT = Var("s")
_PREDICATE = Var("p")
_OBJECT = Var("v")


def _subject_patterns(spec: MappingSpec, fp: m.Fingerprint) -> list[TriplePattern] | None:
    """Source patterns expressing the subject fingerprint *fp* on ?s; None
    if unmappable."""
    patterns = []
    for snak in fp.snaks:
        rule = spec.rule_for(snak.property)
        encoded = rule.codec.encode(snak.value) if rule is not None else None
        if encoded is None:
            return None
        patterns.append(TriplePattern(_SUBJECT, IriTerm(rule.source_predicate), encoded))
    return patterns


def translate_pattern(spec: MappingSpec,
                      pattern: m.FilterPattern) -> SelectQuery | None:
    """Compile *pattern* to one source query, or None when unsupported.

    The query's first pattern is the claim pattern, ``S P ?v``, with the
    subject S and predicate P constant where *pattern* fixes them. A value
    fingerprint is unsupported: every fingerprint names an entity, and no
    value codec decodes to one.
    """
    if m.SnakKind.VALUE not in pattern.snak_kinds or pattern.value is not None:
        return None  # plain sources carry value claims only, of no entity value

    patterns: list[TriplePattern] | None = []
    subject_slot: IriTerm | Var = _SUBJECT
    if isinstance(pattern.subject, m.EntityFp):
        source = spec.entity_to_source(pattern.subject.entity.iri.value)
        if source is None:
            return None
        subject_slot = IriTerm(source)
    elif pattern.subject is not None:
        patterns = _subject_patterns(spec, pattern.subject)
        if patterns is None:
            return None

    values: tuple[ValuesBlock, ...] = ()
    if pattern.property is not None:
        rule = spec.rule_for(pattern.property.entity)
        if rule is None:
            return None
        predicate_slot: IriTerm | Var = IriTerm(rule.source_predicate)
    else:
        if not spec.property_rules:
            return None
        predicate_slot = _PREDICATE
        preds = sorted(r.source_predicate for r in spec.property_rules)
        values = (ValuesBlock("p", tuple(IriTerm(p) for p in preds)),)

    slots = (subject_slot, predicate_slot, _OBJECT)
    return select_query([TriplePattern(*slots), *patterns],
                        [slot if isinstance(slot, Var) else None for slot in slots],
                        None, values=values)


def translate_results(spec: MappingSpec, rows: Iterable[Row],
                      fixed_subject: IriTerm | None = None,
                      fixed_rule: PropertyRule | None = None) -> Iterator[m.Statement]:
    """Rewrite source rows to target statements; malformed rows are skipped.

    Slots that were compiled to constants do not come back in the bindings,
    so the caller passes them in as fixed values.
    """
    for row in rows:
        subject_term = fixed_subject if fixed_subject is not None else row.get("s")
        if not isinstance(subject_term, IriTerm):
            continue
        if fixed_rule is not None:
            rule = fixed_rule
        else:
            pred = row.get("p")
            rule = (spec.rule_for_predicate(pred.value)
                    if isinstance(pred, IriTerm) else None)
            if rule is None:
                continue
        obj = row.get("v")
        if obj is None:
            continue
        value = rule.codec.decode(obj)
        if value is None:
            logger.warning("mapping %s: cannot decode %r via %s codec; row skipped",
                           spec.name, obj, rule.codec.kind)
            continue
        subject = m.Item(spec.entity_to_target(subject_term.value))
        yield m.Statement(subject, m.ValueSnak(rule.property, value))


class MapperStore(PagedStore):
    """Present a raw SPARQL source as a Wikidata-shaped store via a mapping.

    The source is a Graph, an N-Triples file path, or an http(s) endpoint URL.
    """

    def __init__(self, source: Graph | str, spec: MappingSpec,
                 options: StoreOptions | None = None) -> None:
        super().__init__(source, options, spec.entity_to_source,
                         {spec.label_predicate: "label"} if spec.label_predicate else {})
        self.spec = spec

    def _filter(self, pattern: m.FilterPattern,
                limit: int | None) -> Iterator[m.Statement]:
        query = translate_pattern(self.spec, pattern)
        if query is None:
            return
        claim = query.patterns[0]
        fixed_subject = claim.subject if isinstance(claim.subject, IriTerm) else None
        fixed_rule = (self.spec.rule_for_predicate(claim.predicate.value)
                      if isinstance(claim.predicate, IriTerm) else None)
        yield from translate_results(self.spec, self.select_all(query),
                                     fixed_subject, fixed_rule)

    def _annotations(self, stmts):
        for stmt in stmts:
            if self._contains(stmt):
                yield stmt, frozenset({m.AnnotationRecord()})
            else:
                yield stmt, frozenset()
