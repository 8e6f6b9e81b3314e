"""Translate shallow SPARQL SELECT queries into filter patterns.

The accepted shape is one claim pattern over the direct-property (truthy)
vocabulary - subject/object constants or variables, predicate a direct
property or a variable - plus auxiliary constant-object patterns that turn
shared variables into fingerprints, and an optional LIMIT. Everything else
is rejected by name, never silently mis-answered.

``answer`` evaluates the decoded pattern on a store and serializes the rows
exactly as evaluating the original query over the store's truthy encoding
would.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import codec
from . import model as m
from . import namespaces as ns
from .namespaces import WIKIDATA
from .rdf.bgp import solution_rows
from .rdf.server import results_to_json
from .rdf.sparql import Var, parse_query
from .rdf.terms import IriTerm, Literal, Term
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


def _entity_constant(term: IriTerm, slot: str) -> m.Entity:
    if slot == "value" and codec.wd_kind(term.value) is None:
        raise DecoderError(
            f"object constant <{term.value}> is not an entity; literal and "
            f"plain-IRI value constraints are unsupported")
    return codec.entity_from_iri(term.value)


def decode(text: str) -> DecodedQuery:
    """Decode a SPARQL SELECT into a filter pattern and projection map."""
    query = parse_query(text)
    if query.values:
        raise DecoderError("VALUES is unsupported in filter queries")
    if query.filters:
        raise DecoderError("FILTER is unsupported in filter queries")
    if query.offset is not None:
        raise DecoderError("OFFSET is unsupported in filter queries")
    if not query.patterns:
        raise DecoderError("query has no triple pattern")

    with_var_object = [p for p in query.patterns if isinstance(p.object, Var)]
    if len(with_var_object) > 1:
        raise DecoderError(
            "more than one pattern has a variable object; the filter model "
            "is single-claim")
    if with_var_object:
        main = with_var_object[0]
    elif len(query.patterns) == 1:
        main = query.patterns[0]
    else:
        raise DecoderError(
            "several constant-object patterns but no claim pattern to "
            "attach them to")

    aux = [p for p in query.patterns if p is not main]

    roles: dict[str, str] = {}
    if isinstance(main.subject, Var):
        roles[main.subject.name] = "subject"
    if isinstance(main.predicate, Var):
        roles[main.predicate.name] = "property"
    if isinstance(main.object, Var):
        if main.object.name in roles:
            raise DecoderError("claim pattern reuses one variable for two slots")
        roles[main.object.name] = "value"
    if isinstance(main.predicate, Var) and isinstance(main.subject, Var) \
            and main.predicate.name == main.subject.name:
        raise DecoderError("claim pattern reuses one variable for two slots")

    # Fingerprint snaks per shared variable.
    fp_snaks: dict[str, list[m.Snak]] = {}
    for p in aux:
        if not isinstance(p.subject, Var) or p.subject.name not in roles \
                or roles[p.subject.name] == "property":
            raise DecoderError(
                "auxiliary pattern must constrain the claim's subject or "
                "value variable")
        if not isinstance(p.predicate, IriTerm):
            raise DecoderError("auxiliary pattern needs a constant predicate")
        local = WIKIDATA.local(p.predicate.value, "wdt")
        if not local:
            raise DecoderError(
                f"auxiliary predicate <{p.predicate.value}> is not a direct "
                f"property")
        if isinstance(p.object, Var):
            raise DecoderError("auxiliary pattern needs a constant object")
        value = codec.lift_value(p.object)
        fp_snaks.setdefault(p.subject.name, []).append(
            m.ValueSnak(m.Property(ns.WD + local), value))

    def fingerprint_for(var_name: str) -> m.Fingerprint | None:
        snaks = fp_snaks.get(var_name)
        if not snaks:
            return None
        if len(snaks) == 1:
            return m.SnakFp(snaks[0])
        return m.SnakSetFp(snaks)

    if isinstance(main.subject, IriTerm):
        subject_fp: m.Fingerprint | None = m.EntityFp(
            _entity_constant(main.subject, "subject"))
    else:
        subject_fp = fingerprint_for(main.subject.name)

    if isinstance(main.predicate, IriTerm):
        local = WIKIDATA.local(main.predicate.value, "wdt")
        if not local:
            raise DecoderError(
                f"claim predicate <{main.predicate.value}> is not a direct "
                f"property")
        property_fp: m.Fingerprint | None = m.EntityFp(m.Property(ns.WD + local))
    else:
        property_fp = None

    value_fp: m.Fingerprint | None = None
    kinds = _TRUTHY_KINDS
    if isinstance(main.object, IriTerm):
        value_fp = m.EntityFp(_entity_constant(main.object, "value"))
        kinds = frozenset({m.SnakKind.VALUE})
    elif isinstance(main.object, Literal):
        raise DecoderError(
            "literal object constants are unsupported; use a variable with "
            "an auxiliary pattern")
    else:
        value_fp = fingerprint_for(main.object.name)
        if value_fp is not None:
            kinds = frozenset({m.SnakKind.VALUE})

    pattern = m.FilterPattern(subject_fp, property_fp, value_fp, kinds)
    return DecodedQuery(pattern, query.variables, roles, query.limit,
                        query.distinct)


def _statement_row(stmt: m.Statement, decoded: DecodedQuery) -> dict[str, Term]:
    row: dict[str, Term] = {}
    local = codec.property_local(stmt.snak.property)
    for var, role in decoded.roles.items():
        if role == "subject":
            row[var] = IriTerm(stmt.subject.iri.value)
        elif role == "property":
            row[var] = IriTerm(ns.WDT + local)
        elif role == "value":
            row[var] = codec.statement_object(stmt)
    return row


def answer(store: Store, text: str) -> dict:
    """Evaluate a decodable query on *store*; returns SPARQL results JSON."""
    decoded = decode(text)
    statements = list(store.filter(decoded.pattern))
    # The truthy level only shows claims with at least one non-deprecated
    # record, so deprecated-only statements are dropped.
    visible = []
    for stmt, records in store.get_annotations(statements):
        if records and all(r.rank is m.Rank.DEPRECATED for r in records):
            continue
        visible.append(stmt)
    rows = []
    for stmt in visible:
        try:
            rows.append(_statement_row(stmt, decoded))
        except codec.CodecError:
            continue  # no truthy rendering for this claim
    projected = solution_rows(rows, decoded.variables, decoded.distinct,
                              limit=decoded.limit)
    return results_to_json(decoded.variables, projected)
