"""In-memory store over native statements; the reference backend.

The store keeps its statements in canonical order and two indexes built
in the same pass: subject -> positions, and (property, simple value) ->
the subjects that own that claim through a non-deprecated record. A
filter with an entity subject reads that subject's positions; one with a
fingerprint subject reads the positions of the subjects its snaks share.
Any other pattern, such as a wildcard, a property-only or a value-only
one, scans every statement. The indexes only prune: _matches is the one
check every candidate passes, and the full scan stays as the oracle the
indexes are tested against. This store is in turn the oracle the
query-compiling backends are tested against.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .. import model as m
from ..rdf.terms import term_key
from .base import Store, StoreOptions

Pair = tuple[m.Statement, m.AnnotationRecord]


class MemoryStore(Store):
    def __init__(self, pairs: Iterable[Pair] = (),
                 descriptors: Mapping[m.Entity, m.Descriptor] | None = None,
                 options: StoreOptions | None = None) -> None:
        super().__init__(options)
        self._descriptor_map = dict(descriptors or {})
        self._annotations_by_stmt: dict[m.Statement, set[m.AnnotationRecord]] = {}
        for stmt, ann in pairs:
            if not isinstance(stmt, m.Statement) or not isinstance(ann, m.AnnotationRecord):
                raise m.ModelError(f"expected (Statement, AnnotationRecord), got {(stmt, ann)!r}")
            self._annotations_by_stmt.setdefault(stmt, set()).add(ann)
        ordered = sorted(self._annotations_by_stmt.items(),
                         key=lambda item: m.canonical_key(item[0]))
        self._statements = [stmt for stmt, _ in ordered]
        self._by_subject: dict[m.Entity, list[int]] = {}
        # Truthy-visible claims: the subjects of value snaks carried by at
        # least one non-deprecated record, by (property, simple value).
        # _matches resolves fingerprints against this map, mirroring
        # direct-property semantics.
        self._owners: dict[tuple, set[m.Entity]] = {}
        for i, (stmt, anns) in enumerate(ordered):
            self._by_subject.setdefault(stmt.subject, []).append(i)
            if isinstance(stmt.snak, m.ValueSnak) and any(
                    a.rank is not m.Rank.DEPRECATED for a in anns):
                self._owners.setdefault(self._snak_key(stmt.snak), set()).add(stmt.subject)

    @staticmethod
    def _snak_key(snak: m.ValueSnak) -> tuple:
        return (m.canonical_key(snak.property),
                term_key(m.simple_value(snak.value)))

    # -- pattern matching -----------------------------------------------------

    def _entity_matches(self, fp: m.Fingerprint | None, entity: m.Entity) -> bool:
        if fp is None:
            return True
        if isinstance(fp, m.EntityFp):
            return fp.entity == entity
        return all(entity in self._owners.get(self._snak_key(s), ())
                   for s in fp.snaks)

    def _matches(self, pattern: m.FilterPattern, stmt: m.Statement) -> bool:
        if m.snak_kind(stmt.snak) not in pattern.snak_kinds:
            return False
        if not self._entity_matches(pattern.subject, stmt.subject):
            return False
        if pattern.property is not None:
            if stmt.snak.property != pattern.property.entity:
                return False
        if pattern.value is not None:
            if not isinstance(stmt.snak, m.ValueSnak):
                return False
            value = stmt.snak.value
            if isinstance(pattern.value, m.EntityFp):
                if value != pattern.value.entity:
                    return False
            else:
                if not isinstance(value, m.Entity):
                    return False
                if not self._entity_matches(pattern.value, value):
                    return False
        return True

    def _scan(self, pattern: m.FilterPattern) -> Iterator[m.Statement]:
        """Every matching statement, by testing each one: the oracle of
        the indexed path."""
        return (stmt for stmt in self._statements if self._matches(pattern, stmt))

    # -- indexes ----------------------------------------------------------------

    def _owned_positions(self, fp: m.SnakFp | m.SnakSetFp) -> list[int]:
        """Positions of the statements of every subject that owns all the
        fingerprint's snaks, in canonical order."""
        owners = set.intersection(
            *(self._owners.get(self._snak_key(s), set()) for s in fp.snaks))
        return sorted(i for owner in owners for i in self._by_subject[owner])

    def _candidates(self, pattern: m.FilterPattern) -> Sequence[int] | None:
        """The positions of the statements the pattern's subject allows,
        or None when it has no subject."""
        if isinstance(pattern.subject, m.EntityFp):
            return self._by_subject.get(pattern.subject.entity, ())
        if pattern.subject is not None:
            return self._owned_positions(pattern.subject)
        return None

    # -- store hooks ------------------------------------------------------------

    def _filter(self, pattern: m.FilterPattern,
                limit: int | None) -> Iterator[m.Statement]:
        positions = self._candidates(pattern)
        if positions is None:
            return self._scan(pattern)
        return (stmt for stmt in map(self._statements.__getitem__, positions)
                if self._matches(pattern, stmt))

    def _contains(self, stmt: m.Statement) -> bool:
        return stmt in self._annotations_by_stmt

    def _annotations(self, stmts):
        for stmt in stmts:
            records = self._annotations_by_stmt.get(stmt, set())
            yield stmt, frozenset(records)

    def _descriptors(self, entities, language):
        for entity in entities:
            desc = self._descriptor_map.get(entity, m.Descriptor())
            yield entity, desc.restricted_to(language)
