"""Store interface: the five query operations over a statement repository.

A store handle may be shared across threads; every operation is safe to
call concurrently, and each returned iterator is single-consumer. close()
releases what the handle holds open, such as endpoint connections; a store
is also a context manager that closes it on exit.

Store.filter is the one place that enforces the filter contract, distinct
statements and at most *limit* of them. A backend's _filter hook only
yields candidate statements, lazily and possibly repeated; it reads *limit*
only to pass it on to stores it delegates to.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

from .. import model as m

DEFAULT_PAGE_SIZE = 100
PAGE_SIZE_ENV = "KIF_PAGE_SIZE"


class StoreError(Exception):
    pass


class TransportError(StoreError):
    """Endpoint unreachable or HTTP-level failure."""

    def __init__(self, url: str, detail: str) -> None:
        super().__init__(f"{url}: {detail}")
        self.url = url
        self.detail = detail


def _default_page_size() -> int:
    raw = os.environ.get(PAGE_SIZE_ENV)
    if raw:
        try:
            size = int(raw)
            if size >= 1:
                return size
        except ValueError:
            pass
    return DEFAULT_PAGE_SIZE


@dataclass(frozen=True)
class StoreOptions:
    page_size: int = field(default_factory=_default_page_size)
    cache_enabled: bool = True
    extra_references: tuple[m.ReferenceRecord, ...] = ()
    request_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.page_size < 1:
            raise ValueError("page_size must be at least 1")
        # NaN fails both tests; a socket takes no timeout over TIMEOUT_MAX.
        if not 0 < self.request_timeout <= threading.TIMEOUT_MAX:
            raise ValueError("request_timeout must be positive and at most "
                             f"{threading.TIMEOUT_MAX:g} s")
        object.__setattr__(self, "extra_references",
                           tuple(self.extra_references))


class Store:
    """Base store; backends implement the underscored hooks."""

    def __init__(self, options: StoreOptions | None = None) -> None:
        self.options = options or StoreOptions()

    def close(self) -> None:
        """Release connections and threads; nothing to release by default."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public operations ---------------------------------------------------

    def filter(self, pattern: m.FilterPattern | None = None,
               limit: int | None = None) -> Iterator[m.Statement]:
        """Distinct statements matching *pattern*, at most *limit* of them."""
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative")
        return islice(_first_occurrences(
            self._filter(pattern or m.FilterPattern(), limit)), limit)

    def count(self, pattern: m.FilterPattern | None = None) -> int:
        """Number of distinct statements matching *pattern*."""
        return sum(1 for _ in self.filter(pattern))

    def contains(self, stmt: m.Statement) -> bool:
        """Whether *stmt* occurs in the store (by content)."""
        return self._contains(stmt)

    def get_annotations(
        self, stmts: Iterable[m.Statement],
    ) -> Iterator[tuple[m.Statement, frozenset[m.AnnotationRecord]]]:
        """Annotation record sets, paired with the statements in input order.

        Configured extra references are appended into each record.
        """
        extra = self.options.extra_references
        for stmt, records in self._annotations(list(stmts)):
            if extra:
                records = frozenset(r.with_extra_references(extra) for r in records)
            yield stmt, records

    def get_descriptor(self, entities: Iterable[m.Entity],
                       language: str = "en") -> Iterator[tuple[m.Entity, m.Descriptor]]:
        """Descriptors restricted to *language*, in input order."""
        return self._descriptors(list(entities), language.lower())

    # -- backend hooks ---------------------------------------------------------

    def _filter(self, pattern: m.FilterPattern,
                limit: int | None) -> Iterator[m.Statement]:
        """Candidate statements matching *pattern*; filter() drops repeats
        and stops at *limit*, so a lazy hook does no work past it."""
        raise NotImplementedError

    def _contains(self, stmt: m.Statement) -> bool:
        return any(s == stmt for s in self._filter(claim_pattern(stmt), None))

    def _annotations(
        self, stmts: list[m.Statement],
    ) -> Iterator[tuple[m.Statement, frozenset[m.AnnotationRecord]]]:
        raise NotImplementedError

    def _descriptors(self, entities: list[m.Entity],
                     language: str) -> Iterator[tuple[m.Entity, m.Descriptor]]:
        raise NotImplementedError


def claim_pattern(stmt: m.Statement) -> m.FilterPattern:
    """The pattern of the claims *stmt* can be among: its subject, its
    property and its snak kind."""
    return m.FilterPattern(
        subject=m.EntityFp(stmt.subject),
        property=m.EntityFp(stmt.snak.property),
        snak_kinds=frozenset({m.snak_kind(stmt.snak)}))


def _first_occurrences(stmts: Iterable[m.Statement]) -> Iterator[m.Statement]:
    seen: set[m.Statement] = set()
    for stmt in stmts:
        if stmt not in seen:
            seen.add(stmt)
            yield stmt
