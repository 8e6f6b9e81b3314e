"""Bidirectional codec between statements and the Wikidata RDF dialect.

Encoding emits the two-level representation: a shallow truthy triple per
non-deprecated statement, and a reified statement node carrying the full
content (deep values, qualifiers, references, rank, best-rank marker).
Reified node IRIs are content digests, so encoding is deterministic and
stable across runs.

The module also compiles filter patterns and the annotation/descriptor
protocols into the SPARQL subset understood by the embedded evaluator and
by Wikidata-compatible endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from . import model as m
from . import namespaces as ns
from .namespaces import WIKIDATA
from .rdf.sparql import SelectQuery, TriplePattern, ValuesBlock, Var
from .rdf.terms import Graph, IriTerm, Literal, Term, Triple, term_key


class CodecError(ValueError):
    pass


# ---------------------------------------------------------------------------
# IRI helpers
# ---------------------------------------------------------------------------

_WD_KINDS = {"Q": m.Item, "P": m.Property}


def wd_kind(iri: str) -> type[m.Entity] | None:
    """Item for a ``wd:Q…`` IRI, Property for a ``wd:P…`` IRI, None for any
    other IRI."""
    local = WIKIDATA.local(iri, "wd")
    return _WD_KINDS.get(local[0]) if local else None


def property_local(prop: m.Property) -> str:
    """Local name of a property under the entity namespace (e.g. 'P166')."""
    if wd_kind(prop.iri.value) is not m.Property:
        raise CodecError(
            f"property {prop.iri.value!r} cannot be encoded: property IRIs must "
            f"live in the wd: namespace with a local name starting with 'P'")
    return prop.iri.value[len(ns.WD):]


def entity_from_iri(iri: str) -> m.Entity:
    """Entity for an IRI occurring in subject position."""
    return m.Property(iri) if wd_kind(iri) is m.Property else m.Item(iri)


def lift_value(term: Term) -> m.Value:
    """Lift a simple RDF term to a value (the documented lifting table).

    Decimal/integer literals become unit-less quantities; dateTime literals
    become day-precision times (second precision when a time of day is
    present, so that re-simplifying is idempotent); language-tagged literals
    become texts; anything else becomes a string.
    """
    if isinstance(term, IriTerm):
        return (wd_kind(term.value) or m.Iri)(term.value)
    if term.language:
        return m.TextValue(term.lexical, term.language)
    if term.datatype in (ns.XSD_DECIMAL, ns.XSD_INTEGER):
        try:
            return m.Quantity(Decimal(term.lexical))
        except Exception:
            return m.StringValue(term.lexical)
    if term.datatype == ns.XSD_DATE_TIME:
        try:
            ts = m.Timestamp.parse(term.lexical)
        except m.ModelError:
            return m.StringValue(term.lexical)
        precision = (m.PRECISION_SECOND if (ts.hour, ts.minute, ts.second) != (0, 0, 0)
                     else m.PRECISION_DAY)
        return m.TimeValue(ts, precision, 0, None)
    return m.StringValue(term.lexical)


def canonical_object_term(term: Term) -> Term:
    """Canonicalize a value-slot term so equivalent lexical forms compare equal."""
    if isinstance(term, IriTerm):
        return term
    if term.datatype in (ns.XSD_DECIMAL, ns.XSD_INTEGER):
        try:
            return Literal(m.decimal_lexical(Decimal(term.lexical)), ns.XSD_DECIMAL)
        except Exception:
            return term
    if term.datatype == ns.XSD_DATE_TIME:
        try:
            return Literal(m.Timestamp.parse(term.lexical).lexical(), ns.XSD_DATE_TIME)
        except m.ModelError:
            return term
    return term


def statement_object(stmt: m.Statement) -> Term | None:
    """Object of the ``ps:`` and ``wdt:`` triples of *stmt*: the simple value
    of a value snak, a deterministic unknown-value node for a some-value
    snak, and None for a no-value snak."""
    if isinstance(stmt.snak, m.ValueSnak):
        return m.simple_value(stmt.snak.value)
    if isinstance(stmt.snak, m.SomeValueSnak):
        return IriTerm(ns.WDGENID + m.content_digest(stmt))
    return None


def _object_key(obj: Term) -> tuple:
    """Sort key of *obj*'s canonical term: equal for equivalent lexical
    forms."""
    return term_key(canonical_object_term(obj))


def claim_key(subject_iri: str, plocal: str, obj: Term) -> tuple:
    """Key of the claim ``subject wdt:plocal obj``, equal for equivalent
    lexical forms of *obj*."""
    return subject_iri, plocal, _object_key(obj)


def _snak_genid(snak: m.Snak) -> IriTerm:
    return IriTerm(ns.WDGENID + m.content_digest(snak))


def statement_node(stmt: m.Statement, ann: m.AnnotationRecord) -> IriTerm:
    return IriTerm(ns.WDS + m.content_digest(m.AnnotatedStatement(stmt, (ann,))))


def value_node(value: m.Value) -> IriTerm:
    return IriTerm(ns.WDV + m.content_digest(value))


def reference_node(ref: m.ReferenceRecord) -> IriTerm:
    return IriTerm(ns.WDREF + m.content_digest(ref))


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class EncodedStatement:
    """A statement with one annotation record and its best-rank flag."""

    statement: m.Statement
    annotation: m.AnnotationRecord = field(default_factory=m.AnnotationRecord)
    best: bool = True


_RESERVED_VALUE_BASES = (ns.WDGENID, ns.WDNO)


def _check_value_encodable(v: m.Value) -> None:
    if isinstance(v, m.Entity):
        if wd_kind(v.iri.value) is not type(v):
            want = "Q" if isinstance(v, m.Item) else "P"
            raise CodecError(
                f"entity value {v.iri.value!r} cannot be encoded: entity values "
                f"must live in the wd: namespace with a local name starting "
                f"with {want!r}")
    elif isinstance(v, m.Iri):
        for base in _RESERVED_VALUE_BASES:
            if v.value.startswith(base):
                raise CodecError(f"IRI value {v.value!r} is in a reserved namespace")
        if wd_kind(v.value) is not None:
            raise CodecError(
                f"IRI value {v.value!r} is ambiguous with an entity; use an "
                f"Item or Property value instead")


def _check_subject_encodable(e: m.Entity) -> None:
    if WIKIDATA.local(e.iri.value, "wd"):
        if wd_kind(e.iri.value) is not type(e):
            want = "Q" if isinstance(e, m.Item) else "P"
            raise CodecError(
                f"subject {e.iri.value!r} conflicts with its entity kind; "
                f"wd-namespace locals must start with {want!r}")
    elif not isinstance(e, m.Item):
        raise CodecError(
            f"property subject {e.iri.value!r} must live in the wd: namespace")


def _deep_value_triples(node: IriTerm, v: m.Quantity | m.TimeValue) -> list:
    out = []
    if isinstance(v, m.Quantity):
        out.append(Triple(node, IriTerm(ns.WIKIBASE_QUANTITY_AMOUNT),
                          Literal(m.decimal_lexical(v.amount), ns.XSD_DECIMAL)))
        if v.unit is not None:
            out.append(Triple(node, IriTerm(ns.WIKIBASE_QUANTITY_UNIT),
                              IriTerm(v.unit.iri.value)))
        if v.lower is not None:
            out.append(Triple(node, IriTerm(ns.WIKIBASE_QUANTITY_LOWER),
                              Literal(m.decimal_lexical(v.lower), ns.XSD_DECIMAL)))
        if v.upper is not None:
            out.append(Triple(node, IriTerm(ns.WIKIBASE_QUANTITY_UPPER),
                              Literal(m.decimal_lexical(v.upper), ns.XSD_DECIMAL)))
    else:
        out.append(Triple(node, IriTerm(ns.WIKIBASE_TIME_VALUE),
                          Literal(v.timestamp.lexical(), ns.XSD_DATE_TIME)))
        out.append(Triple(node, IriTerm(ns.WIKIBASE_TIME_PRECISION),
                          Literal(str(v.precision), ns.XSD_INTEGER)))
        out.append(Triple(node, IriTerm(ns.WIKIBASE_TIME_TIMEZONE),
                          Literal(str(v.timezone), ns.XSD_INTEGER)))
        if v.calendar is not None:
            out.append(Triple(node, IriTerm(ns.WIKIBASE_TIME_CALENDAR),
                              IriTerm(v.calendar.iri.value)))
    return out


_RANK_IRI = {
    m.Rank.PREFERRED: ns.WIKIBASE_PREFERRED_RANK,
    m.Rank.NORMAL: ns.WIKIBASE_NORMAL_RANK,
    m.Rank.DEPRECATED: ns.WIKIBASE_DEPRECATED_RANK,
}
_IRI_RANK = {v: k for k, v in _RANK_IRI.items()}


def _encode_snak_at(subject: IriTerm, snak: m.Snak, simple_base: str, deep_base: str,
                    triples: list, genid: IriTerm | None = None) -> Term:
    """Emit *snak* on *subject* under one predicate family (``ps:``/``psv:``,
    ``pq:``/``pqv:`` or ``pr:``/``prv:``), checking that it is encodable as
    it is written; return the object of its simple triple. A some-value
    snak's object is *genid*, by default the snak's own ``wdgenid:`` node."""
    local = property_local(snak.property)
    if isinstance(snak, m.ValueSnak):
        _check_value_encodable(snak.value)
        obj = m.simple_value(snak.value)
    elif isinstance(snak, m.SomeValueSnak):
        obj = genid or _snak_genid(snak)
    else:
        obj = IriTerm(ns.WDNO + local)
    triples.append(Triple(subject, IriTerm(simple_base + local), obj))
    if isinstance(snak, m.ValueSnak) and m.is_deep(snak.value):
        node = value_node(snak.value)
        triples.append(Triple(subject, IriTerm(deep_base + local), node))
        triples.extend(_deep_value_triples(node, snak.value))
    return obj


def encode(es: EncodedStatement) -> set:
    """Encode one statement (with its annotation) into RDF triples."""
    return set(_statement_triples(es))


def _statement_triples(es: EncodedStatement) -> list:
    """The triples of one statement, the one place that decides them."""
    stmt, ann = es.statement, es.annotation
    _check_subject_encodable(stmt.subject)
    subj = IriTerm(stmt.subject.iri.value)
    local = property_local(stmt.snak.property)
    wds = statement_node(stmt, ann)
    triples: list = [Triple(subj, IriTerm(ns.P + local), wds)]

    if isinstance(stmt.snak, m.NoValueSnak):
        triples.append(Triple(wds, IriTerm(ns.RDF_TYPE), IriTerm(ns.WDNO + local)))
    else:
        genid = statement_object(stmt) if isinstance(stmt.snak, m.SomeValueSnak) else None
        obj = _encode_snak_at(wds, stmt.snak, ns.PS, ns.PSV, triples, genid)
        if ann.rank is not m.Rank.DEPRECATED:
            triples.append(Triple(subj, IriTerm(ns.WDT + local), obj))

    for q in ann.qualifiers:
        _encode_snak_at(wds, q, ns.PQ, ns.PQV, triples)
    for ref in ann.references:
        node = reference_node(ref)
        triples.append(Triple(wds, IriTerm(ns.PROV_WAS_DERIVED_FROM), node))
        for s in ref.snaks:
            _encode_snak_at(node, s, ns.PR, ns.PRV, triples)

    triples.append(Triple(wds, IriTerm(ns.WIKIBASE_RANK), IriTerm(_RANK_IRI[ann.rank])))
    if es.best:
        if ann.rank is m.Rank.DEPRECATED:
            raise CodecError("a deprecated statement cannot carry the best-rank marker")
        triples.append(Triple(wds, IriTerm(ns.RDF_TYPE), IriTerm(ns.WIKIBASE_BEST_RANK)))
    return triples


Pair = tuple[m.Statement, m.AnnotationRecord]


def best_flags(pairs: Iterable[Pair]) -> list[EncodedStatement]:
    """Attach best-rank flags: a statement is best when it is not deprecated
    and no co-(subject, property) statement in the batch outranks it."""
    keyed = [((stmt.subject, stmt.snak.property), stmt, ann) for stmt, ann in pairs]
    top: dict[tuple[m.Entity, m.Property], int] = {}
    for key, _, ann in keyed:
        top[key] = max(top.get(key, -1), ann.rank.priority)
    return [EncodedStatement(stmt, ann, ann.rank is not m.Rank.DEPRECATED
                             and ann.rank.priority >= top[key])
            for key, stmt, ann in keyed]


def encode_statements(pairs: Iterable[Pair]) -> Graph:
    graph = Graph()
    for es in best_flags(pairs):
        graph.update(_statement_triples(es))
    return graph


def _descriptor_triples(descriptors: Mapping[m.Entity, m.Descriptor]) -> Iterator:
    for entity, desc in descriptors.items():
        subj = IriTerm(entity.iri.value)
        texts = {"label": (desc.label,), "description": (desc.description,),
                 "alias": desc.aliases}
        for predicate, kind in DESCRIPTOR_KINDS.items():
            for text in texts[kind]:
                if text is not None:
                    yield Triple(subj, IriTerm(predicate),
                                 Literal(text.content, language=text.language))


def encode_dataset(pairs: Iterable[Pair],
                   descriptors: Mapping[m.Entity, m.Descriptor] | None = None) -> Graph:
    graph = encode_statements(pairs)
    if descriptors:
        graph.update(_descriptor_triples(descriptors))
    return graph


def truthy_graph(pairs: Iterable[Pair]) -> Graph:
    """Only the shallow level: the ``wdt:`` triples of the full encoding."""
    return Graph(t for es in best_flags(pairs) for t in _statement_triples(es)
                 if t.predicate.value.startswith(ns.WDT))


# ---------------------------------------------------------------------------
# Decoding (assembly shared by decode() and the query-backed stores)
# ---------------------------------------------------------------------------

# The fixed predicates that assembly reads, each built once.
_RDF_TYPE = IriTerm(ns.RDF_TYPE)
_QUANTITY_AMOUNT = IriTerm(ns.WIKIBASE_QUANTITY_AMOUNT)
_QUANTITY_UNIT = IriTerm(ns.WIKIBASE_QUANTITY_UNIT)
_QUANTITY_LOWER = IriTerm(ns.WIKIBASE_QUANTITY_LOWER)
_QUANTITY_UPPER = IriTerm(ns.WIKIBASE_QUANTITY_UPPER)
_TIME_VALUE = IriTerm(ns.WIKIBASE_TIME_VALUE)
_TIME_PRECISION = IriTerm(ns.WIKIBASE_TIME_PRECISION)
_TIME_TIMEZONE = IriTerm(ns.WIKIBASE_TIME_TIMEZONE)
_TIME_CALENDAR = IriTerm(ns.WIKIBASE_TIME_CALENDAR)
_WAS_DERIVED_FROM = IriTerm(ns.PROV_WAS_DERIVED_FROM)
_RANK = IriTerm(ns.WIKIBASE_RANK)


def _least_object(g: Graph, node: IriTerm, predicate: IriTerm) -> Term | None:
    """The canonically least object of *node*'s *predicate* triples, so a
    repeated component reads the same whatever the triple order."""
    return min(g.objects(node, predicate), key=term_key, default=None)


def read_deep_value(g: Graph, node: IriTerm, diagnostics: list[str]) -> m.Value | None:
    amounts = g.objects(node, _QUANTITY_AMOUNT)
    times = g.objects(node, _TIME_VALUE)
    try:
        if amounts:
            lex = min((a for a in amounts if isinstance(a, Literal)),
                      key=term_key, default=None)
            if lex is None:
                raise m.ModelError("quantity amount is not a literal")
            unit_t = _least_object(g, node, _QUANTITY_UNIT)
            lower_t = _least_object(g, node, _QUANTITY_LOWER)
            upper_t = _least_object(g, node, _QUANTITY_UPPER)
            return m.Quantity(
                Decimal(lex.lexical),
                m.Item(unit_t.value) if isinstance(unit_t, IriTerm) else None,
                Decimal(lower_t.lexical) if isinstance(lower_t, Literal) else None,
                Decimal(upper_t.lexical) if isinstance(upper_t, Literal) else None)
        if times:
            lex = min((t for t in times if isinstance(t, Literal)),
                      key=term_key, default=None)
            if lex is None:
                raise m.ModelError("time value is not a literal")
            prec_t = _least_object(g, node, _TIME_PRECISION)
            tz_t = _least_object(g, node, _TIME_TIMEZONE)
            cal_t = _least_object(g, node, _TIME_CALENDAR)
            return m.TimeValue(
                m.Timestamp.parse(lex.lexical),
                int(prec_t.lexical) if isinstance(prec_t, Literal) else m.PRECISION_DAY,
                int(tz_t.lexical) if isinstance(tz_t, Literal) else 0,
                m.Item(cal_t.value) if isinstance(cal_t, IriTerm) else None)
    except (m.ModelError, ValueError, ArithmeticError) as e:
        diagnostics.append(f"malformed deep value node {node.value}: {e}")
        return None
    diagnostics.append(f"deep value node {node.value} has no amount or time value")
    return None


def truthy_snak(prop: m.Property, obj: Term) -> m.Snak:
    """Snak of a direct-property triple's object: a some-value or no-value
    snak for the marker IRIs, otherwise the lifted simple value."""
    if isinstance(obj, IriTerm):
        if obj.value.startswith(ns.WDGENID):
            return m.SomeValueSnak(prop)
        if obj.value.startswith(ns.WDNO):
            return m.NoValueSnak(prop)
    return m.ValueSnak(prop, lift_value(obj))


def _claim_snak(prop: m.Property, obj: Term, owner: str,
                diagnostics: list[str]) -> m.Snak | None:
    """truthy_snak of the ``ps:`` or ``wdt:`` object of a claim of *owner*, a
    statement node or a subject; but None for a ``wdno:`` object, since a
    no-value claim is the ``wdno:`` type of its node."""
    if isinstance(obj, IriTerm) and obj.value.startswith(ns.WDNO):
        diagnostics.append(f"a claim of {owner} has the object {obj.value}; skipped")
        return None
    return truthy_snak(prop, obj)


def _assemble_snak_family(g: Graph, node: IriTerm, simple_base: str, deep_base: str,
                          diagnostics: list[str]) -> list[m.Snak]:
    simple: dict[str, list[Term]] = {}
    deep: dict[str, list[IriTerm]] = {}
    for t in g.match(s=node):
        pred = t.predicate.value
        if pred.startswith(deep_base):
            local = pred[len(deep_base):]
            if local and "/" not in local and isinstance(t.object, IriTerm):
                deep.setdefault(local, []).append(t.object)
        elif pred.startswith(simple_base):
            local = pred[len(simple_base):]
            if local and "/" not in local:
                simple.setdefault(local, []).append(t.object)
    snaks: list[m.Snak] = []
    for local in sorted(set(simple) | set(deep)):
        prop = m.Property(ns.WD + local)
        covered: set[tuple] = set()
        for node_t in sorted(deep.get(local, []), key=term_key):
            value = read_deep_value(g, node_t, diagnostics)
            if value is None:
                continue
            covered.add(term_key(m.simple_value(value)))
            snaks.append(m.ValueSnak(prop, value))
        for obj in sorted(simple.get(local, []), key=term_key):
            if _object_key(obj) not in covered:
                snaks.append(truthy_snak(prop, obj))
    return snaks


# The predicates of a statement node's triples that assemble_main_snak
# reads, by prefix: ``ps:`` and ``psv:`` (one base, ``prop/statement/``)
# and ``rdf:type`` (``wdno:P``).
MAIN_SNAK_PREFIXES = (ns.PS, ns.RDF_TYPE)


def links_context(predicate: str, deep_only: bool) -> bool:
    """Whether a statement-context fetch follows *predicate* to its object:
    a ``psv:`` link to a deep value node always; unless *deep_only*, also a
    ``pqv:``, ``prv:`` or ``prov:wasDerivedFrom`` link to a qualifier value,
    reference value or reference node."""
    if WIKIDATA.local(predicate, "psv"):
        return True
    return not deep_only and (predicate == ns.PROV_WAS_DERIVED_FROM
                              or bool(WIKIDATA.local(predicate, "pqv")
                                      or WIKIDATA.local(predicate, "prv")))


class _ClaimTerms(NamedTuple):
    """The property of the claims under a property local, and the IRIs
    that assembly reads them by."""

    local: str
    prop: m.Property
    ps: IriTerm
    psv: IriTerm
    wdno: IriTerm


def _claim_terms(plocal: str) -> _ClaimTerms:
    return _ClaimTerms(plocal, m.Property(ns.WD + plocal), IriTerm(ns.PS + plocal),
                       IriTerm(ns.PSV + plocal), IriTerm(ns.WDNO + plocal))


class _Table(dict):
    """A dict that builds the value of a missing key from the key, once.
    read_statements keeps its tables for one call."""

    __slots__ = ("_build",)

    def __init__(self, build: Callable) -> None:
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


def assemble_main_snak(g: Graph, wds: IriTerm, claim: _ClaimTerms,
                       diagnostics: list[str]) -> m.Snak | None:
    """Main snak of *wds*, linked to its subject by the ``p:`` property of
    *claim*, or None for a malformed node. A ``psv:`` deep value must agree
    with the least ``ps:`` object, which the plans match. It reads only the
    node triples whose predicate is under one of MAIN_SNAK_PREFIXES."""
    plocal, prop = claim.local, claim.prop
    if claim.wdno in g.objects(wds, _RDF_TYPE):
        return m.NoValueSnak(prop)
    ps_objects = sorted(g.objects(wds, claim.ps), key=term_key)
    if not ps_objects:
        diagnostics.append(
            f"statement node {wds.value} has a p:{plocal} link but no ps:{plocal} value")
        return None
    if len(ps_objects) > 1:
        diagnostics.append(f"statement node {wds.value} has multiple ps:{plocal} values")
    obj = ps_objects[0]
    deep_nodes = [o for o in g.objects(wds, claim.psv)
                  if isinstance(o, IriTerm)]
    if not deep_nodes or (isinstance(obj, IriTerm)
                          and obj.value.startswith((ns.WDGENID, ns.WDNO))):
        return _claim_snak(prop, obj, wds.value, diagnostics)
    value = read_deep_value(g, min(deep_nodes, key=term_key), diagnostics)
    if value is None:
        return None
    if m.simple_value(value) != canonical_object_term(obj):
        diagnostics.append(f"statement node {wds.value}: its ps:{plocal} value and "
                           f"its psv:{plocal} value disagree; skipped")
        return None
    return m.ValueSnak(prop, value)


def assemble_annotation(g: Graph, wds: IriTerm,
                        diagnostics: list[str]) -> m.AnnotationRecord:
    qualifiers = _assemble_snak_family(g, wds, ns.PQ, ns.PQV, diagnostics)
    references = []
    for obj in sorted(g.objects(wds, _WAS_DERIVED_FROM), key=term_key):
        if not isinstance(obj, IriTerm):
            diagnostics.append(f"reference of {wds.value} is not a node: {obj!r}")
            continue
        snaks = _assemble_snak_family(g, obj, ns.PR, ns.PRV, diagnostics)
        if not snaks:
            diagnostics.append(f"reference node {obj.value} is empty; skipped")
            continue
        references.append(m.ReferenceRecord(snaks))
    # The least known rank; a node with none reads as Normal.
    rank = min((obj.value for obj in g.objects(wds, _RANK)
                if isinstance(obj, IriTerm) and obj.value in _IRI_RANK), default=None)
    return m.AnnotationRecord(qualifiers, references, _IRI_RANK.get(rank, m.Rank.NORMAL))


def is_best(g: Graph, wds: IriTerm) -> bool:
    return any(isinstance(o, IriTerm) and o.value == ns.WIKIBASE_BEST_RANK
               for o in g.objects(wds, _RDF_TYPE))


def read_statements(batches: Iterable[tuple[Graph, Iterable[tuple[IriTerm, IriTerm, str]]]],
                    truthy: Callable[[set[tuple]], Iterable[tuple[IriTerm, str, Term]]],
                    diagnostics: list[str]
                    ) -> Iterator[tuple[m.Statement, Graph | None, IriTerm | None]]:
    """Every statement that *batches* and *truthy* carry, as (statement,
    graph, statement node): first those of the nodes that each batch's
    (subject, statement node, property local) links reach on its graph;
    then, with graph and node None, each (subject, property local, object)
    of ``truthy(covered)`` that no node covers, that is, has as a ``ps:``
    value (*covered* holds their claim_key); then the nodes' no-value
    statements.

    Each property's terms, each subject's entity and each object's
    canonical key are built once per call, in tables that the call drops."""
    claims = _Table(_claim_terms)
    entities = _Table(entity_from_iri)
    object_keys = _Table(_object_key)
    covered: set[tuple] = set()
    no_values = []
    for g, links in batches:
        for subject, wds, plocal in links:
            claim = claims[plocal]
            snak = assemble_main_snak(g, wds, claim, diagnostics)
            if snak is None:
                continue
            stmt = m.Statement(entities[subject.value], snak)
            if isinstance(snak, m.NoValueSnak):
                no_values.append((stmt, g, wds))
                continue
            for obj in g.objects(wds, claim.ps):
                covered.add((subject.value, plocal, object_keys[obj]))
            yield stmt, g, wds
    for subject, plocal, obj in truthy(covered):
        if (subject.value, plocal, object_keys[obj]) not in covered:
            snak = _claim_snak(claims[plocal].prop, obj, subject.value, diagnostics)
            if snak is not None:
                yield m.Statement(entities[subject.value], snak), None, None
    yield from no_values


@dataclass
class DecodeResult:
    statements: list[EncodedStatement]
    descriptors: dict[m.Entity, m.Descriptor]
    diagnostics: list[str] = field(default_factory=list)


def decode(g: Graph) -> DecodeResult:
    """Inverse of encoding on well-formed graphs.

    Statements carried only by a truthy triple decode with a default-Normal
    annotation; malformed reification fragments are skipped and reported in
    the diagnostics.
    """
    diagnostics: list[str] = []
    links = [(t.subject, t.object, plocal) for t in g
             if (plocal := WIKIDATA.local(t.predicate.value, "p"))
             and isinstance(t.object, IriTerm)]
    direct = [(t.subject, plocal, t.object) for t in g
              if (plocal := WIKIDATA.local(t.predicate.value, "wdt"))]
    statements = [
        EncodedStatement(stmt) if wds is None
        else EncodedStatement(stmt, assemble_annotation(g, wds, diagnostics), is_best(g, wds))
        for stmt, _, wds in read_statements([(g, links)], lambda covered: direct, diagnostics)]
    statements.sort(key=lambda es: (m.canonical_key(es.statement),
                                    m.canonical_key(es.annotation)))

    texts = descriptor_texts((t.subject, t.predicate, t.object) for t in g)
    descriptors = {entity_from_iri(iri): descriptor_from_texts(texts[iri])
                   for iri in sorted(texts)}
    return DecodeResult(statements, descriptors, diagnostics)


# ---------------------------------------------------------------------------
# Query compilation
# ---------------------------------------------------------------------------

def _aux_patterns(fp: m.SnakFp | m.SnakSetFp, var: Var,
                  values: list[ValuesBlock]) -> list[TriplePattern]:
    """Fingerprint snaks become truthy-level auxiliary patterns on *var*.
    A non-negative amount matches both lexical forms that are written for
    it, kif's canonical one and Wikibase's signed one (``"+180.16"``): its
    object is a variable of its own, bound by a VALUES block added to
    *values*."""
    patterns = []
    for i, snak in enumerate(fp.snaks):
        obj = m.simple_value(snak.value)
        if isinstance(snak.value, m.Quantity) and not obj.lexical.startswith("-"):
            signed = Literal("+" + obj.lexical, ns.XSD_DECIMAL)
            values.append(ValuesBlock(f"{var.name}{i}", (obj, signed)))
            obj = Var(f"{var.name}{i}")
        patterns.append(TriplePattern(var, IriTerm(ns.WDT + property_local(snak.property)), obj))
    return patterns


@dataclass(frozen=True)
class FilterPlan:
    """One compiled query plus how to read its rows.

    shape: 'full' rows carry statement nodes whose value matches; 'node'
    rows carry links to statement nodes, value and no-value nodes alike,
    whose value is not yet checked; 'truthy' rows carry direct triples.

    folded: the rows also carry the triples of their statement nodes, one
    per row, as ``?w ?q ?o``.
    """

    shape: str
    query: SelectQuery
    subject_term: IriTerm | None
    property_local: str | None
    object_term: Term | None = None
    folded: bool = False


def _slot(fp: m.Fingerprint | None, name: str, patterns: list, values: list):
    if isinstance(fp, m.EntityFp):
        return IriTerm(fp.entity.iri.value), None
    var = Var(name)
    if fp is not None:
        patterns.extend(_aux_patterns(fp, var, values))
    return None, var


def _property_local_of(pattern: m.FilterPattern) -> str | None:
    if pattern.property is None:
        return None
    return property_local(pattern.property.entity)


def select_query(patterns: list[TriplePattern], projected: list[Var | None],
                 subject_const: IriTerm | None,
                 filters: tuple[tuple[str, str], ...] = (),
                 values: tuple[ValuesBlock, ...] = ()) -> SelectQuery:
    """SELECT of the distinct variables in *projected* (None entries are
    constant slots) over *patterns*."""
    names = []
    seen = set()
    for var in projected:
        if var is not None and var.name not in seen:
            names.append(var.name)
            seen.add(var.name)
    if not names:
        # All slots constant: bind the subject through VALUES so the
        # projection is non-empty and the row count signals presence.
        values = (ValuesBlock("s", (subject_const,)),)
        names = ["s"]
    return SelectQuery(tuple(names), tuple(patterns), values=values, filters=filters)


def compile_truthy_plan(pattern: m.FilterPattern) -> FilterPlan:
    """Query for the truthy triples ``S wdt:X V`` of *pattern*; with the
    property unbound, ``S ?p V`` and the filter ``STRSTARTS(STR(?p), wdt:)``,
    which keeps only the truthy predicates. A some-value-only mask keeps the
    ``wdgenid:`` objects of ``?v``."""
    patterns: list[TriplePattern] = []
    values: list[ValuesBlock] = []
    s_const, s_var = _slot(pattern.subject, "s", patterns, values)
    o_const, o_var = _slot(pattern.value, "v", patterns, values)
    plocal = _property_local_of(pattern)
    p_slot = IriTerm(ns.WDT + plocal) if plocal else Var("p")
    main = TriplePattern(s_const or s_var, p_slot, o_const if o_const is not None else o_var)
    patterns.insert(0, main)
    p_var = None if plocal else Var("p")
    filters = (("p", ns.WDT),) if plocal is None else ()
    if o_var is not None and pattern.snak_kinds == {m.SnakKind.SOME_VALUE}:
        filters += (("v", ns.WDGENID),)
    query = select_query(patterns, [s_var, p_var, o_var], s_const, filters, tuple(values))
    return FilterPlan("truthy", query, s_const, plocal, o_const)


def compile_full_plan(pattern: m.FilterPattern) -> FilterPlan:
    """Query for the statement nodes that may carry statements of *pattern*,
    in one of two forms (S is the subject slot, V the value slot):

    - value free ('node' shape): ``S p:X ?w``, one row per link to a
      statement node, value and no-value nodes alike. With the property
      unbound it is ``S ?p ?w`` and the filter ``STRSTARTS(STR(?p), p:P)``,
      which keeps exactly the ``p:`` links: ``wdt:``, ``ps:`` and the other
      property namespaces continue ``prop/`` with a lowercase word. The
      reader checks that the node has a value or the no-value type of the
      link's property. A no-value-only mask gives compile_novalue_plan's
      query;
    - value constrained ('full' shape): ``S p:X ?w . ?w ps:X V``; with the
      property unbound, ``S ?p ?w . ?w ?q V``, whose rows count only where
      ``?p`` and ``?q`` name the same property (that rejects a qualifier
      holding the value). A some-value-only mask takes this form with V
      the variable ``?v`` and the filter ``STRSTARTS(STR(?v), wdgenid:)``,
      so it finds unknown values by kind, whatever their IRIs.

    With an entity subject, the node shape and the property-bound full
    shape are folded: they also project the triples of each statement node
    (``?w ?q ?o``), so the reader needs no query to fetch them. Scans (any
    other subject) keep the plain forms, where the node triples would cost
    more pages than the node fetches they save.
    """
    return _statement_plan(pattern, pattern.snak_kinds == {m.SnakKind.NO_VALUE})


def compile_novalue_plan(pattern: m.FilterPattern) -> FilterPlan:
    """compile_full_plan's node shape for the no-value statements of
    *pattern*: ``S p:X ?w . ?w rdf:type wdno:X``; with the property unbound,
    ``S ?p ?w . ?w rdf:type ?n`` and, besides the ``p:P`` filter on ``?p``,
    ``STRSTARTS(STR(?n), wdno:)``."""
    return _statement_plan(pattern, True)


def _statement_plan(pattern: m.FilterPattern, no_value: bool) -> FilterPlan:
    some_value = not no_value and pattern.snak_kinds == {m.SnakKind.SOME_VALUE}
    patterns: list[TriplePattern] = []
    values: list[ValuesBlock] = []
    s_const, s_var = _slot(pattern.subject, "s", patterns, values)
    plocal = _property_local_of(pattern)
    wvar = Var("w")
    p_var = None if plocal else Var("p")
    link = TriplePattern(s_const or s_var, IriTerm(ns.P + plocal) if plocal else p_var, wvar)
    filters: tuple[tuple[str, str], ...] = ()
    o_const = None
    if pattern.value is None and not some_value:
        shape = "node"
        patterns.insert(0, link)
        if no_value:
            patterns.insert(1, TriplePattern(wvar, IriTerm(ns.RDF_TYPE),
                                             IriTerm(ns.WDNO + plocal) if plocal else Var("n")))
        if not plocal:
            filters = (("p", ns.P + "P"), ("n", ns.WDNO)) if no_value else (("p", ns.P + "P"),)
        projected = [s_var, p_var, wvar]
    else:
        shape = "full"
        o_const, o_var = _slot(pattern.value, "v", patterns, values)
        if some_value and o_var is not None:
            filters = (("v", ns.WDGENID),)
        q_var = None if plocal else Var("q")
        patterns[:0] = [link, TriplePattern(wvar, IriTerm(ns.PS + plocal) if plocal else q_var,
                                            o_const if o_const is not None else o_var)]
        projected = [s_var, p_var, wvar, q_var, o_var]
    folded = s_const is not None and (plocal is not None or shape == "node")
    if folded:
        patterns.append(TriplePattern(wvar, Var("q"), Var("o")))
        projected += [Var("q"), Var("o")]
    query = select_query(patterns, projected, s_const, filters, tuple(values))
    return FilterPlan(shape, query, s_const, plocal, o_const, folded)


def node_fetch_query(nodes: Iterable[IriTerm], main_snak: bool = False) -> SelectQuery:
    """Fetch the triples of the given nodes in one query via VALUES: all of
    them, or with *main_snak* only those assemble_main_snak reads, kept by
    one OR filter on ``?p`` over MAIN_SNAK_PREFIXES."""
    terms = tuple(sorted(nodes, key=term_key))
    return SelectQuery(
        ("w", "p", "o"),
        (TriplePattern(Var("w"), Var("p"), Var("o")),),
        values=(ValuesBlock("w", terms),),
        filters=(("p", MAIN_SNAK_PREFIXES),) if main_snak else ())


DESCRIPTOR_KINDS = {
    ns.RDFS_LABEL: "label",
    ns.SCHEMA_DESCRIPTION: "description",
    ns.SKOS_ALT_LABEL: "alias",
}


def descriptor_query(iris: Iterable[str],
                     kinds: Mapping[str, str] = DESCRIPTOR_KINDS) -> SelectQuery:
    """The descriptor texts of the entities named *iris* in one query: a
    row binds an entity ?e, a predicate ?d (a key of *kinds*, which maps
    each predicate to the kind of text it holds) and its text ?x."""
    return SelectQuery(
        ("e", "d", "x"),
        (TriplePattern(Var("e"), Var("d"), Var("x")),),
        values=(ValuesBlock("e", tuple(map(IriTerm, iris))),
                ValuesBlock("d", tuple(map(IriTerm, kinds)))))


def descriptor_texts(rows: Iterable[tuple[Term | None, Term | None, Term | None]],
                     kinds: Mapping[str, str] = DESCRIPTOR_KINDS
                     ) -> dict[str, dict[str, list[m.TextValue]]]:
    """Texts of (entity, predicate, text) rows, by entity IRI and by the
    kind *kinds* gives the predicate; an untagged text counts as English.
    Rows of any other shape are skipped."""
    texts: dict[str, dict[str, list[m.TextValue]]] = {}
    for e, d, x in rows:
        which = kinds.get(d.value) if isinstance(d, IriTerm) else None
        if which is None or not isinstance(e, IriTerm) or not isinstance(x, Literal):
            continue
        text = m.TextValue(x.lexical, x.language or "en")
        texts.setdefault(e.value, {}).setdefault(which, []).append(text)
    return texts


def descriptor_from_texts(texts: Mapping[str, Iterable[m.TextValue]]) -> m.Descriptor:
    """Descriptor of one entity from its texts, keyed by the values of
    DESCRIPTOR_KINDS: the canonically least label and description, and
    every alias in canonical order."""
    return m.Descriptor(
        label=min(texts.get("label", ()), key=m.canonical_key, default=None),
        description=min(texts.get("description", ()), key=m.canonical_key, default=None),
        aliases=tuple(sorted(texts.get("alias", ()), key=m.canonical_key)))
