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
from typing import Iterable, Iterator, Mapping

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


def claim_key(subject_iri: str, plocal: str, obj: Term) -> tuple:
    """Key of the claim ``subject wdt:plocal obj``, equal for equivalent
    lexical forms of *obj*."""
    return subject_iri, plocal, term_key(canonical_object_term(obj))


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


def _check_snak_encodable(snak: m.Snak) -> None:
    property_local(snak.property)
    if isinstance(snak, m.ValueSnak):
        _check_value_encodable(snak.value)


def _deep_value_triples(node: IriTerm, v: m.Value) -> list:
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
    elif isinstance(v, m.TimeValue):
        out.append(Triple(node, IriTerm(ns.WIKIBASE_TIME_VALUE),
                          Literal(v.timestamp.lexical(), ns.XSD_DATE_TIME)))
        out.append(Triple(node, IriTerm(ns.WIKIBASE_TIME_PRECISION),
                          Literal(str(v.precision), ns.XSD_INTEGER)))
        out.append(Triple(node, IriTerm(ns.WIKIBASE_TIME_TIMEZONE),
                          Literal(str(v.timezone), ns.XSD_INTEGER)))
        if v.calendar is not None:
            out.append(Triple(node, IriTerm(ns.WIKIBASE_TIME_CALENDAR),
                              IriTerm(v.calendar.iri.value)))
    else:
        raise CodecError(f"not a deep value: {v!r}")
    return out


_RANK_IRI = {
    m.Rank.PREFERRED: ns.WIKIBASE_PREFERRED_RANK,
    m.Rank.NORMAL: ns.WIKIBASE_NORMAL_RANK,
    m.Rank.DEPRECATED: ns.WIKIBASE_DEPRECATED_RANK,
}
_IRI_RANK = {v: k for k, v in _RANK_IRI.items()}


def _encode_snak_at(subject: IriTerm, snak: m.Snak, simple_base: str,
                    deep_base: str, triples: list) -> None:
    """Emit *snak* on *subject* using a qualifier/reference predicate family."""
    local = property_local(snak.property)
    pred = IriTerm(simple_base + local)
    if isinstance(snak, m.ValueSnak):
        triples.append(Triple(subject, pred, m.simple_value(snak.value)))
        if m.is_deep(snak.value):
            node = value_node(snak.value)
            triples.append(Triple(subject, IriTerm(deep_base + local), node))
            triples.extend(_deep_value_triples(node, snak.value))
    elif isinstance(snak, m.SomeValueSnak):
        triples.append(Triple(subject, pred, _snak_genid(snak)))
    else:
        triples.append(Triple(subject, pred, IriTerm(ns.WDNO + local)))


def encode(es: EncodedStatement) -> set:
    """Encode one statement (with its annotation) into RDF triples."""
    return set(_statement_triples(es))


def _statement_triples(es: EncodedStatement) -> list:
    stmt, ann = es.statement, es.annotation
    _check_subject_encodable(stmt.subject)
    _check_snak_encodable(stmt.snak)
    for q in ann.qualifiers:
        _check_snak_encodable(q)
    for ref in ann.references:
        for s in ref.snaks:
            _check_snak_encodable(s)

    subj = IriTerm(stmt.subject.iri.value)
    local = property_local(stmt.snak.property)
    wds = statement_node(stmt, ann)
    triples: list = [Triple(subj, IriTerm(ns.P + local), wds)]

    obj = statement_object(stmt)
    if obj is None:
        triples.append(Triple(wds, IriTerm(ns.RDF_TYPE), IriTerm(ns.WDNO + local)))
    else:
        triples.append(Triple(wds, IriTerm(ns.PS + local), obj))
        if ann.rank is not m.Rank.DEPRECATED:
            triples.append(Triple(subj, IriTerm(ns.WDT + local), obj))
        if isinstance(stmt.snak, m.ValueSnak) and m.is_deep(stmt.snak.value):
            node = value_node(stmt.snak.value)
            triples.append(Triple(wds, IriTerm(ns.PSV + local), node))
            triples.extend(_deep_value_triples(node, stmt.snak.value))

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
    keyed = [((m.canonical_key(stmt.subject), m.canonical_key(stmt.snak.property)),
              stmt, ann) for stmt, ann in pairs]
    top: dict[tuple, int] = {}
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
    label, description, alt_label = (IriTerm(ns.RDFS_LABEL), IriTerm(ns.SCHEMA_DESCRIPTION),
                                     IriTerm(ns.SKOS_ALT_LABEL))
    for entity, desc in descriptors.items():
        subj = IriTerm(entity.iri.value)
        if desc.label is not None:
            yield Triple(subj, label, Literal(desc.label.content, language=desc.label.language))
        if desc.description is not None:
            yield Triple(subj, description, Literal(desc.description.content,
                                                    language=desc.description.language))
        for alias in desc.aliases:
            yield Triple(subj, alt_label, Literal(alias.content, language=alias.language))


def encode_dataset(pairs: Iterable[Pair],
                   descriptors: Mapping[m.Entity, m.Descriptor] | None = None) -> Graph:
    graph = encode_statements(pairs)
    if descriptors:
        graph.update(_descriptor_triples(descriptors))
    return graph


def truthy_graph(pairs: Iterable[Pair]) -> Graph:
    """Only the shallow level: one direct-property triple per visible claim."""
    graph = Graph()
    for stmt, ann in pairs:
        if ann.rank is m.Rank.DEPRECATED:
            continue
        local = property_local(stmt.snak.property)
        obj = statement_object(stmt)
        if obj is not None:
            graph.add(Triple(IriTerm(stmt.subject.iri.value), IriTerm(ns.WDT + local), obj))
    return graph


# ---------------------------------------------------------------------------
# Decoding (assembly shared by decode() and the query-backed stores)
# ---------------------------------------------------------------------------

def read_deep_value(g: Graph, node: IriTerm, diagnostics: list[str]) -> m.Value | None:
    amounts = g.objects(node, IriTerm(ns.WIKIBASE_QUANTITY_AMOUNT))
    times = g.objects(node, IriTerm(ns.WIKIBASE_TIME_VALUE))
    try:
        if amounts:
            lex = min((a for a in amounts if isinstance(a, Literal)),
                      key=term_key, default=None)
            if lex is None:
                raise m.ModelError("quantity amount is not a literal")
            unit_t = next(iter(g.objects(node, IriTerm(ns.WIKIBASE_QUANTITY_UNIT))), None)
            lower_t = next(iter(g.objects(node, IriTerm(ns.WIKIBASE_QUANTITY_LOWER))), None)
            upper_t = next(iter(g.objects(node, IriTerm(ns.WIKIBASE_QUANTITY_UPPER))), None)
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
            prec_t = next(iter(g.objects(node, IriTerm(ns.WIKIBASE_TIME_PRECISION))), None)
            tz_t = next(iter(g.objects(node, IriTerm(ns.WIKIBASE_TIME_TIMEZONE))), None)
            cal_t = next(iter(g.objects(node, IriTerm(ns.WIKIBASE_TIME_CALENDAR))), None)
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
            if term_key(canonical_object_term(obj)) not in covered:
                snaks.append(truthy_snak(prop, obj))
    return snaks


def assemble_main_snak(g: Graph, wds: IriTerm, plocal: str,
                       diagnostics: list[str]) -> m.Snak | None:
    prop = m.Property(ns.WD + plocal)
    if IriTerm(ns.WDNO + plocal) in g.objects(wds, IriTerm(ns.RDF_TYPE)):
        return m.NoValueSnak(prop)
    ps_objects = sorted(g.objects(wds, IriTerm(ns.PS + plocal)), key=term_key)
    if not ps_objects:
        diagnostics.append(
            f"statement node {wds.value} has a p:{plocal} link but no ps:{plocal} value")
        return None
    if len(ps_objects) > 1:
        diagnostics.append(f"statement node {wds.value} has multiple ps:{plocal} values")
    obj = ps_objects[0]
    deep_nodes = [o for o in g.objects(wds, IriTerm(ns.PSV + plocal))
                  if isinstance(o, IriTerm)]
    if not deep_nodes or (isinstance(obj, IriTerm)
                          and obj.value.startswith((ns.WDGENID, ns.WDNO))):
        return truthy_snak(prop, obj)
    value = read_deep_value(g, min(deep_nodes, key=term_key), diagnostics)
    return None if value is None else m.ValueSnak(prop, value)


def assemble_annotation(g: Graph, wds: IriTerm,
                        diagnostics: list[str]) -> m.AnnotationRecord:
    qualifiers = _assemble_snak_family(g, wds, ns.PQ, ns.PQV, diagnostics)
    references = []
    for obj in sorted(g.objects(wds, IriTerm(ns.PROV_WAS_DERIVED_FROM)), key=term_key):
        if not isinstance(obj, IriTerm):
            diagnostics.append(f"reference of {wds.value} is not a node: {obj!r}")
            continue
        snaks = _assemble_snak_family(g, obj, ns.PR, ns.PRV, diagnostics)
        if not snaks:
            diagnostics.append(f"reference node {obj.value} is empty; skipped")
            continue
        references.append(m.ReferenceRecord(snaks))
    rank = m.Rank.NORMAL
    for obj in g.objects(wds, IriTerm(ns.WIKIBASE_RANK)):
        if isinstance(obj, IriTerm) and obj.value in _IRI_RANK:
            rank = _IRI_RANK[obj.value]
            break
    return m.AnnotationRecord(qualifiers, references, rank)


def is_best(g: Graph, wds: IriTerm) -> bool:
    return any(isinstance(o, IriTerm) and o.value == ns.WIKIBASE_BEST_RANK
               for o in g.objects(wds, IriTerm(ns.RDF_TYPE)))


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
    statements: list[EncodedStatement] = []
    covered_truthy: set[tuple] = set()

    for t in g:
        plocal = WIKIDATA.local(t.predicate.value, "p")
        if plocal is None or not isinstance(t.object, IriTerm):
            continue
        wds = t.object
        snak = assemble_main_snak(g, wds, plocal, diagnostics)
        if snak is None:
            continue
        subject = entity_from_iri(t.subject.value)
        stmt = m.Statement(subject, snak)
        ann = assemble_annotation(g, wds, diagnostics)
        statements.append(EncodedStatement(stmt, ann, is_best(g, wds)))
        for obj in g.objects(wds, IriTerm(ns.PS + plocal)):
            covered_truthy.add(claim_key(t.subject.value, plocal, obj))

    for t in g:
        plocal = WIKIDATA.local(t.predicate.value, "wdt")
        if plocal is None:
            continue
        if claim_key(t.subject.value, plocal, t.object) in covered_truthy:
            continue
        snak = truthy_snak(m.Property(ns.WD + plocal), t.object)
        stmt = m.Statement(entity_from_iri(t.subject.value), snak)
        statements.append(EncodedStatement(stmt, m.AnnotationRecord(), True))

    statements.sort(key=lambda es: (m.canonical_key(es.statement),
                                    m.canonical_key(es.annotation)))

    texts = descriptor_texts((t.subject, t.predicate, t.object) for t in g)
    descriptors = {entity_from_iri(iri): descriptor_from_texts(texts[iri])
                   for iri in sorted(texts)}
    return DecodeResult(statements, descriptors, diagnostics)


# ---------------------------------------------------------------------------
# Query compilation
# ---------------------------------------------------------------------------

def _aux_patterns(fp: m.SnakFp | m.SnakSetFp, var: Var) -> list[TriplePattern]:
    """Fingerprint snaks become truthy-level auxiliary patterns on *var*."""
    patterns = []
    for snak in fp.snaks:
        if not isinstance(snak, m.ValueSnak):
            raise m.FingerprintError(
                "fingerprint snaks must be value snaks; cannot compile "
                f"{type(snak).__name__}")
        local = property_local(snak.property)
        patterns.append(TriplePattern(var, IriTerm(ns.WDT + local),
                                      m.simple_value(snak.value)))
    return patterns


@dataclass(frozen=True)
class FilterPlan:
    """One compiled query plus how to read its rows.

    shape: 'full' rows carry statement nodes; 'node' rows carry links to
    statement nodes whose value is not yet checked; 'novalue' rows carry
    no-value statement nodes; 'truthy' rows carry direct triples.

    folded: the rows also carry the triples of their statement nodes, one
    per row, as ``?w ?q ?o``.
    """

    shape: str
    query: SelectQuery
    subject_term: IriTerm | None
    property_local: str | None
    object_term: Term | None = None
    folded: bool = False


def _subject_slot(pattern: m.FilterPattern, patterns: list):
    if isinstance(pattern.subject, m.EntityFp):
        return IriTerm(pattern.subject.entity.iri.value), None
    svar = Var("s")
    if pattern.subject is not None:
        patterns.extend(_aux_patterns(pattern.subject, svar))
    return None, svar


def _value_slot(pattern: m.FilterPattern, patterns: list, object_term: Term | None):
    if object_term is not None:
        return object_term, None
    if isinstance(pattern.value, m.EntityFp):
        return IriTerm(pattern.value.entity.iri.value), None
    vvar = Var("v")
    if pattern.value is not None:
        patterns.extend(_aux_patterns(pattern.value, vvar))
    return None, vvar


def _property_local_of(pattern: m.FilterPattern) -> str | None:
    if pattern.property is None:
        return None
    assert isinstance(pattern.property, m.EntityFp)
    entity = pattern.property.entity
    if not isinstance(entity, m.Property):
        raise m.FingerprintError("property fingerprint must hold a Property entity")
    return property_local(entity)


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


def _scan_filter(pattern: m.FilterPattern, plocal: str | None, var: str,
                 prefix: str) -> tuple[tuple[str, str], ...]:
    """A prefix filter on *var* for a scan that leaves the property unbound
    and the subject absent, where the pattern alone would read every
    predicate; other plans already start from their subject or property."""
    if plocal is None and pattern.subject is None:
        return ((var, prefix),)
    return ()


def compile_truthy_plan(pattern: m.FilterPattern,
                        object_term: Term | None = None) -> FilterPlan:
    """Query for the truthy triples ``S wdt:X V`` of *pattern*; with the
    property unbound, ``S ?p V``, and in a scan with no subject the filter
    ``STRSTARTS(STR(?p), wdt:)`` keeps only the truthy predicates."""
    patterns: list[TriplePattern] = []
    s_const, s_var = _subject_slot(pattern, patterns)
    o_const, o_var = _value_slot(pattern, patterns, object_term)
    plocal = _property_local_of(pattern)
    p_slot = IriTerm(ns.WDT + plocal) if plocal else Var("p")
    main = TriplePattern(s_const or s_var, p_slot, o_const if o_const is not None else o_var)
    patterns.insert(0, main)
    p_var = None if plocal else Var("p")
    query = select_query(patterns, [s_var, p_var, o_var], s_const,
                         _scan_filter(pattern, plocal, "p", ns.WDT))
    return FilterPlan("truthy", query, s_const, plocal, o_const)


def compile_full_plan(pattern: m.FilterPattern,
                      object_term: Term | None = None) -> FilterPlan:
    """Query for the statement nodes that may carry statements of *pattern*,
    in one of three forms (S is the subject slot, V the value slot):

    - property bound: ``S p:X ?w . ?w ps:X V``;
    - property unbound, value constrained or subject a snak fingerprint:
      ``S ?p ?w . ?w ?q V``, whose rows count only where ``?p`` and ``?q``
      name the same property (that rejects a qualifier holding the value);
    - property unbound, value unconstrained, subject absent or an entity:
      ``S ?p ?w . ?w wikibase:rank ?r`` ('node' shape). Every statement node
      carries one rank, so this is one row per link to a statement node;
      the reader checks that the node has a value of the link's property.

    With an entity subject, the first and the last form are folded: they
    also project the triples of each statement node (``?w ?q ?o``), so the
    reader needs no query to fetch them. The folded property-bound form
    keeps ``?w ps:X V`` only where the value is constrained; without it,
    the plan reads every node the ``p:X`` links reach, no-value nodes too,
    unless the mask is no-value only: then ``?w rdf:type wdno:X`` keeps
    just the no-value nodes (the annotation query of a no-value statement).
    Scans (any other subject) keep the plain forms, where the node triples
    would cost more pages than the node fetches they save.
    """
    patterns: list[TriplePattern] = []
    s_const, s_var = _subject_slot(pattern, patterns)
    plocal = _property_local_of(pattern)
    wvar = Var("w")
    p_var = None if plocal else Var("p")
    link = TriplePattern(s_const or s_var, IriTerm(ns.P + plocal) if plocal else p_var, wvar)
    value_free = object_term is None and pattern.value is None
    o_const = None
    if plocal is None and value_free and (pattern.subject is None or s_const is not None):
        shape = "node"
        patterns[:0] = [link, TriplePattern(wvar, IriTerm(ns.WIKIBASE_RANK), Var("r"))]
        projected = [s_var, p_var, wvar]
    elif plocal and s_const is not None and value_free:
        shape = "full"
        patterns.insert(0, link)
        if pattern.snak_kinds == {m.SnakKind.NO_VALUE}:
            patterns.insert(1, TriplePattern(wvar, IriTerm(ns.RDF_TYPE),
                                             IriTerm(ns.WDNO + plocal)))
        projected = [wvar]
    else:
        shape = "full"
        o_const, o_var = _value_slot(pattern, patterns, object_term)
        q_var = None if plocal else Var("q")
        patterns[:0] = [link, TriplePattern(wvar, IriTerm(ns.PS + plocal) if plocal else q_var,
                                            o_const if o_const is not None else o_var)]
        projected = [s_var, p_var, wvar, q_var, o_var]
    folded = s_const is not None and (plocal is not None or shape == "node")
    if folded:
        patterns.append(TriplePattern(wvar, Var("q"), Var("o")))
        projected += [Var("q"), Var("o")]
    query = select_query(patterns, projected, s_const)
    return FilterPlan(shape, query, s_const, plocal, o_const, folded)


def compile_novalue_plan(pattern: m.FilterPattern) -> FilterPlan:
    """Query for the no-value statement nodes of *pattern*:
    ``S p:X ?w . ?w rdf:type wdno:X``; with the property unbound,
    ``S ?p ?w . ?w rdf:type ?n``, and in a scan with no subject the filter
    ``STRSTARTS(STR(?n), wdno:)`` keeps only the no-value types."""
    patterns: list[TriplePattern] = []
    s_const, s_var = _subject_slot(pattern, patterns)
    plocal = _property_local_of(pattern)
    wvar = Var("w")
    link = IriTerm(ns.P + plocal) if plocal else Var("p")
    marker = IriTerm(ns.WDNO + plocal) if plocal else Var("n")
    patterns.insert(0, TriplePattern(wvar, IriTerm(ns.RDF_TYPE), marker))
    patterns.insert(0, TriplePattern(s_const or s_var, link, wvar))
    p_var = None if plocal else Var("p")
    n_var = None if plocal else Var("n")
    query = select_query(patterns, [s_var, p_var, wvar, n_var], s_const,
                         _scan_filter(pattern, plocal, "n", ns.WDNO))
    return FilterPlan("novalue", query, s_const, plocal)


def node_fetch_query(nodes: Iterable[IriTerm]) -> SelectQuery:
    """Fetch all triples of the given nodes in one query via VALUES."""
    terms = tuple(sorted(nodes, key=term_key))
    return SelectQuery(
        ("w", "p", "o"),
        (TriplePattern(Var("w"), Var("p"), Var("o")),),
        values=(ValuesBlock("w", terms),))


_DESCRIPTOR_PREDICATES = {
    "label": ns.RDFS_LABEL,
    "description": ns.SCHEMA_DESCRIPTION,
    "alias": ns.SKOS_ALT_LABEL,
}
DESCRIPTOR_KINDS = {pred: which for which, pred in _DESCRIPTOR_PREDICATES.items()}


def descriptor_query(entities: Iterable[m.Entity]) -> SelectQuery:
    """Labels, descriptions and aliases of *entities* in one query: a row
    binds an entity ?e, a descriptor predicate ?d (a key of
    DESCRIPTOR_KINDS) and its text ?x."""
    terms = tuple(IriTerm(e.iri.value) for e in entities)
    predicates = tuple(IriTerm(pred) for pred in _DESCRIPTOR_PREDICATES.values())
    return SelectQuery(
        ("e", "d", "x"),
        (TriplePattern(Var("e"), Var("d"), Var("x")),),
        values=(ValuesBlock("e", terms), ValuesBlock("d", predicates)))


def descriptor_texts(rows: Iterable[tuple[Term | None, Term | None, Term | None]]
                     ) -> dict[str, dict[str, list[m.TextValue]]]:
    """Texts of (entity, descriptor predicate, text) rows, by entity IRI and
    by the kind DESCRIPTOR_KINDS gives the predicate; an untagged text
    counts as English. Rows of any other shape are skipped."""
    texts: dict[str, dict[str, list[m.TextValue]]] = {}
    for e, d, x in rows:
        which = DESCRIPTOR_KINDS.get(d.value) if isinstance(d, IriTerm) else None
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
