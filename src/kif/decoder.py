"""Translate shallow SPARQL SELECT queries into filter patterns.

``decode`` accepts the truthy (direct-property) claim shape by these rules,
applied in order, and rejects by name whatever breaks one:

1. No VALUES, FILTER or OFFSET.
2. The claim pattern is the one with a variable object, or the only one.
3. Each variable of the claim pattern names one slot.
4. Every other pattern is auxiliary, ``?x wdt:P c``, with ``?x`` the
   claim's subject or value variable, a direct property and a constant.
5. A subject or value IRI is an entity (a ``wd:`` one as value), a literal
   value is refused, a variable takes its auxiliary patterns' fingerprint.
6. The claim predicate is a direct property or a variable.

``answer`` evaluates the decoded pattern on a store and serializes the rows
exactly as the original query over the store's truthy encoding would.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import codec
from . import model as m
from . import namespaces as ns
from .rdf.bgp import solution_rows
from .rdf.server import results_to_json
from .rdf.sparql import PatternTerm, Var, parse_query
from .rdf.terms import IriTerm, Literal
from .stores.base import Store


class DecoderError(ValueError):
    """Query is outside the filter-decodable subset."""


#: Claims visible at the truthy level.
_TRUTHY_KINDS = frozenset({m.SnakKind.VALUE, m.SnakKind.SOME_VALUE})


@dataclass(frozen=True)
class DecodedQuery:
    pattern: m.FilterPattern
    variables: tuple[str, ...]
    roles: dict[str, str]  # variable name -> subject | property | value
    limit: int | None
    distinct: bool


def _direct_property(term: IriTerm, what: str) -> m.Property:
    local = ns.WIKIDATA.local(term.value, "wdt")
    if not local:
        raise DecoderError(
            f"{what} predicate <{term.value}> is not a direct property")
    return m.Property(ns.WD + local)


def _slot(term: PatternTerm, slot: str,
          fp_snaks: dict[str, list[m.Snak]]) -> m.Fingerprint | None:
    """Fingerprint of the claim's subject or value slot."""
    if isinstance(term, Var):
        snaks = fp_snaks.get(term.name)
        if not snaks:
            return None
        return m.SnakFp(snaks[0]) if len(snaks) == 1 else m.SnakSetFp(snaks)
    if isinstance(term, Literal):  # a literal subject does not parse
        raise DecoderError(
            "literal object constants are unsupported; use a variable with "
            "an auxiliary pattern")
    if slot == "value" and codec.wd_kind(term.value) is None:
        raise DecoderError(
            f"object constant <{term.value}> is not an entity; literal and "
            f"plain-IRI value constraints are unsupported")
    return m.EntityFp(codec.entity_from_iri(term.value))


def decode(text: str) -> DecodedQuery:
    """Decode a SPARQL SELECT into a filter pattern and projection map."""
    query = parse_query(text)
    if query.values:
        raise DecoderError("VALUES is unsupported in filter queries")
    if query.filters:
        raise DecoderError("FILTER is unsupported in filter queries")
    if query.offset is not None:
        raise DecoderError("OFFSET is unsupported in filter queries")

    # A projected variable occurs in some pattern, so there is at least one.
    claims = [p for p in query.patterns if isinstance(p.object, Var)]
    if len(claims) > 1:
        raise DecoderError(
            "more than one pattern has a variable object; the filter model "
            "is single-claim")
    if not claims and len(query.patterns) > 1:
        raise DecoderError(
            "several constant-object patterns but no claim pattern to "
            "attach them to")
    main = claims[0] if claims else query.patterns[0]

    roles: dict[str, str] = {}
    for term, role in ((main.subject, "subject"), (main.predicate, "property"),
                       (main.object, "value")):
        if isinstance(term, Var):
            if term.name in roles:
                raise DecoderError("claim pattern reuses one variable for two slots")
            roles[term.name] = role

    # Snaks per shared variable; only the claim pattern has a variable object.
    fp_snaks: dict[str, list[m.Snak]] = {}
    for p in query.patterns:
        if p is main:
            continue
        if not isinstance(p.subject, Var) \
                or roles.get(p.subject.name) not in ("subject", "value"):
            raise DecoderError(
                "auxiliary pattern must constrain the claim's subject or "
                "value variable")
        if not isinstance(p.predicate, IriTerm):
            raise DecoderError("auxiliary pattern needs a constant predicate")
        prop = _direct_property(p.predicate, "auxiliary")
        fp_snaks.setdefault(p.subject.name, []).append(
            m.ValueSnak(prop, codec.lift_value(p.object)))

    subject_fp = _slot(main.subject, "subject", fp_snaks)
    property_fp = (m.EntityFp(_direct_property(main.predicate, "claim"))
                   if isinstance(main.predicate, IriTerm) else None)
    value_fp = _slot(main.object, "value", fp_snaks)
    kinds = _TRUTHY_KINDS if value_fp is None else frozenset({m.SnakKind.VALUE})
    pattern = m.FilterPattern(subject_fp, property_fp, value_fp, kinds)
    return DecodedQuery(pattern, query.variables, roles, query.limit,
                        query.distinct)


def answer(store: Store, text: str) -> dict:
    """Evaluate a decodable query on *store*; returns SPARQL results JSON."""
    decoded = decode(text)
    statements = list(store.filter(decoded.pattern))
    rows = []
    for stmt, records in store.get_annotations(statements):
        # The truthy level only shows claims with at least one non-deprecated
        # record, so deprecated-only statements are dropped.
        if records and all(r.rank is m.Rank.DEPRECATED for r in records):
            continue
        try:
            local = codec.property_local(stmt.snak.property)
        except codec.CodecError:
            continue  # no truthy rendering for this claim
        terms = {"subject": IriTerm(stmt.subject.iri.value),
                 "property": IriTerm(ns.WDT + local),
                 "value": codec.statement_object(stmt)}
        rows.append({var: terms[role] for var, role in decoded.roles.items()})
    projected = solution_rows(rows, decoded.variables, decoded.distinct,
                              limit=decoded.limit)
    return results_to_json(decoded.variables, projected)
