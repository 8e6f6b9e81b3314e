"""In-memory store over native statements; the reference backend.

Everything is answered by direct scans over the loaded pairs, which makes
this store the oracle the query-compiling backends are tested against.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .. import model as m
from ..rdf.terms import term_key
from .base import Store, StoreOptions

Pair = tuple[m.Statement, m.AnnotationRecord]


class MemoryStore(Store):
    def __init__(self, pairs: Iterable[Pair] = (),
                 descriptors: Mapping[m.Entity, m.Descriptor] | None = None,
                 options: StoreOptions | None = None) -> None:
        super().__init__(options)
        self._pairs: list[Pair] = []
        for stmt, ann in pairs:
            if not isinstance(stmt, m.Statement) or not isinstance(ann, m.AnnotationRecord):
                raise m.ModelError(f"expected (Statement, AnnotationRecord), got {(stmt, ann)!r}")
            self._pairs.append((stmt, ann))
        self._descriptor_map = dict(descriptors or {})
        self._annotations_by_stmt: dict[m.Statement, set[m.AnnotationRecord]] = {}
        for stmt, ann in self._pairs:
            self._annotations_by_stmt.setdefault(stmt, set()).add(ann)
        self._statements = sorted(self._annotations_by_stmt, key=m.canonical_key)
        # Truthy-visible claims: (subject, property, simple value) of value
        # snaks carried by at least one non-deprecated record. Fingerprints
        # resolve against this set, mirroring direct-property semantics.
        self._visible: set[tuple] = set()
        for stmt, anns in self._annotations_by_stmt.items():
            if isinstance(stmt.snak, m.ValueSnak) and any(
                    a.rank is not m.Rank.DEPRECATED for a in anns):
                self._visible.add(self._claim_key(stmt.subject, stmt.snak))

    @staticmethod
    def _claim_key(entity: m.Entity, snak: m.ValueSnak) -> tuple:
        return (m.canonical_key(entity), m.canonical_key(snak.property),
                term_key(m.simple_value(snak.value)))

    @property
    def pairs(self) -> list[Pair]:
        return list(self._pairs)

    # -- pattern matching -----------------------------------------------------

    def _entity_matches(self, fp: m.Fingerprint | None, entity: m.Entity) -> bool:
        if fp is None:
            return True
        if isinstance(fp, m.EntityFp):
            return fp.entity == entity
        snaks = (fp.snak,) if isinstance(fp, m.SnakFp) else fp.snaks
        return all(
            isinstance(s, m.ValueSnak)
            and self._claim_key(entity, s) in self._visible
            for s in snaks)

    def _matches(self, pattern: m.FilterPattern, stmt: m.Statement) -> bool:
        if m.snak_kind(stmt.snak) not in pattern.snak_kinds:
            return False
        if not self._entity_matches(pattern.subject, stmt.subject):
            return False
        if pattern.property is not None:
            assert isinstance(pattern.property, m.EntityFp)
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

    # -- store hooks ------------------------------------------------------------

    def _filter(self, pattern: m.FilterPattern,
                limit: int | None) -> Iterator[m.Statement]:
        for stmt in self._statements:
            if self._matches(pattern, stmt):
                yield stmt

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
