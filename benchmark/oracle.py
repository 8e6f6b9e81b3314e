"""Expected answers, computed from the generated records alone.

Nothing here asks a store: the truth of every operation comes from the
statement/annotation pairs and descriptors the generator produced, so a
fault shared by every backend still shows as a failed operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from kif import model as m


class Truth:
    """Indexes over generated pairs and descriptors."""

    def __init__(self, pairs, descriptors) -> None:
        self.records: dict[m.Statement, set[m.AnnotationRecord]] = {}
        for stmt, ann in pairs:
            self.records.setdefault(stmt, set()).add(ann)
        self.statements = frozenset(self.records)
        self.by_subject: dict[m.Entity, set[m.Statement]] = {}
        self.by_property: dict[m.Property, set[m.Statement]] = {}
        self.by_value: dict[m.Value, set[m.Statement]] = {}
        # A claim identifies its subject when one of its records is not
        # deprecated (the truthy level of the Wikidata dialect).
        self.claims: dict[tuple[m.Property, m.Value], set[m.Entity]] = {}
        for stmt, records in self.records.items():
            self.by_subject.setdefault(stmt.subject, set()).add(stmt)
            self.by_property.setdefault(stmt.snak.property, set()).add(stmt)
            if isinstance(stmt.snak, m.ValueSnak):
                self.by_value.setdefault(stmt.snak.value, set()).add(stmt)
                if any(r.rank is not m.Rank.DEPRECATED for r in records):
                    self.claims.setdefault((stmt.snak.property, stmt.snak.value),
                                           set()).add(stmt.subject)
        self.descriptors = dict(descriptors)

    def identified(self, snak: m.ValueSnak) -> set[m.Entity]:
        """Entities a snak fingerprint resolves to.

        Generated fingerprints use item and string values only, whose
        one-term summaries are equal exactly when the values are equal.
        """
        return self.claims.get((snak.property, snak.value), set())

    def matching(self, subject: m.Entity | None = None,
                 snak: m.ValueSnak | None = None,
                 prop: m.Property | None = None,
                 value: m.Value | None = None) -> frozenset[m.Statement]:
        """Statements of a subject constant or a subject snak fingerprint,
        restricted to a property and/or an entity value."""
        if subject is not None:
            found = set(self.by_subject.get(subject, ()))
        elif snak is not None:
            found = set()
            for entity in self.identified(snak):
                found |= self.by_subject[entity]
        elif prop is not None:
            found = set(self.by_property.get(prop, ()))
        elif value is not None:
            found = set(self.by_value.get(value, ()))
        else:
            found = set(self.statements)
        if prop is not None:
            found = {s for s in found if s.snak.property == prop}
        if value is not None:
            found = {s for s in found
                     if isinstance(s.snak, m.ValueSnak) and s.snak.value == value}
        return frozenset(found)

    def annotations(self, stmt: m.Statement) -> frozenset[m.AnnotationRecord]:
        return frozenset(self.records.get(stmt, ()))

    def descriptor(self, entity: m.Entity, language: str) -> tuple:
        return restricted(self.descriptors.get(entity), language)


def restricted(desc: m.Descriptor | None, language: str) -> tuple:
    """(label, description, aliases) of a descriptor in one language."""
    if desc is None:
        return (None, None, ())
    label = desc.label if desc.label and desc.label.language == language else None
    description = (desc.description if desc.description
                   and desc.description.language == language else None)
    aliases = tuple(sorted({(a.language, a.content) for a in desc.aliases
                            if a.language == language}))
    return (label, description, aliases)


def descriptor_tuple(desc: m.Descriptor) -> tuple:
    return (desc.label, desc.description,
            tuple((a.language, a.content) for a in desc.aliases))


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One store call of a round with its expected answer.

    kind is filter, count, contains, annotations, descriptor or answer;
    *arg* is the pattern, statement, batch or query text; *expected* is
    the full answer (for a limited filter, the answer without the limit).
    """

    kind: str
    arg: object
    expected: object
    limit: int | None = None
    language: str = "en"


def execute(store, op: Op):
    """Run *op* on *store* and materialize the answer."""
    if op.kind == "filter":
        return list(store.filter(op.arg, op.limit))
    if op.kind == "count":
        return store.count(op.arg)
    if op.kind == "contains":
        return store.contains(op.arg)
    if op.kind == "annotations":
        return list(store.get_annotations(op.arg))
    if op.kind == "descriptor":
        return list(store.get_descriptor(op.arg, op.language))
    if op.kind == "answer":
        from kif import decoder
        return decoder.answer(store, op.arg)
    raise ValueError(f"unknown operation kind {op.kind!r}")


def size(op: Op, result) -> int:
    """Statements an answer delivers (filter rows, or the count)."""
    if op.kind == "filter":
        return len(result)
    if op.kind == "count":
        return result
    return 0


def binding_rows(payload: dict) -> list[tuple]:
    """SPARQL results JSON as comparable rows, in answer order."""
    variables = payload["head"]["vars"]
    return [tuple((v,) + tuple(sorted(b[v].items())) if v in b else (v,)
                  for v in variables)
            for b in payload["results"]["bindings"]]


def check(op: Op, result) -> bool:
    """Whether *result* is a correct answer to *op*."""
    if op.kind == "filter":
        got = set(result)
        if len(got) != len(result) or not got <= op.expected:
            return False
        if op.limit is None:
            return got == op.expected
        return len(got) == min(op.limit, len(op.expected))
    if op.kind in ("count", "contains"):
        return result == op.expected
    if op.kind == "annotations":
        return [s for s, _ in result] == list(op.arg) and \
            [frozenset(r) for _, r in result] == list(op.expected)
    if op.kind == "descriptor":
        return [e for e, _ in result] == list(op.arg) and \
            [descriptor_tuple(d) for _, d in result] == list(op.expected)
    if op.kind == "answer":
        return sorted(binding_rows(result)) == sorted(op.expected)
    raise ValueError(f"unknown operation kind {op.kind!r}")

