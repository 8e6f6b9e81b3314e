"""Virtual union of stores.

The mixer fans every operation out to its children and merges the results:
filter results are deduplicated by statement content in child order,
annotation sets are unioned per statement, and descriptors come from the
first child that knows the entity. With parallel=True the child calls run
concurrently, on one thread per child owned by the mixer, but the merged
stream is identical to the sequential one.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Iterator, Sequence

from . import model as m
from .stores.base import Store, StoreError, StoreOptions

logger = logging.getLogger(__name__)


class MixerChildError(StoreError):
    """A child store failed; carries the child's index and error."""

    def __init__(self, index: int, error: Exception) -> None:
        super().__init__(f"child store #{index}: {error}")
        self.index = index
        self.error = error


class MixerStore(Store):
    def __init__(self, children: Sequence[Store], parallel: bool = False,
                 lenient: bool = False, options: StoreOptions | None = None) -> None:
        super().__init__(options)
        if not children:
            raise ValueError("a mixer needs at least one child store")
        self.children = list(children)
        self.parallel = parallel
        self.lenient = lenient
        # Pool threads exit on close(), or once the mixer, and with it the
        # pool, is collected.
        self._pool = (ThreadPoolExecutor(max_workers=len(self.children))
                      if parallel and len(self.children) > 1 else None)

    def close(self) -> None:
        """Stop the pool threads; the children stay open, their owner
        closes them."""
        if self._pool is not None:
            self._pool.shutdown()

    # -- child dispatch -------------------------------------------------------

    def _child_results(self, op):
        """Run op(child) for every child, in child order.

        Sequential mode calls children one by one; parallel mode dispatches
        them concurrently and still yields in child order, so both modes
        produce identical streams.
        """
        if self._pool is not None:
            futures = [self._pool.submit(self._guarded, op, i)
                       for i in range(len(self.children))]
            try:
                for future in futures:
                    yield future.result()
            finally:
                # A call returns only after all of its child work is done.
                wait(futures)
        else:
            for i in range(len(self.children)):
                yield self._guarded(op, i)

    def _guarded(self, op, index: int):
        try:
            return op(self.children[index])
        except Exception as e:  # noqa: BLE001 - child failure policy
            if self.lenient:
                logger.warning("mixer: skipping failed child #%d: %s", index, e)
                return None
            raise MixerChildError(index, e) from e

    # -- operations ---------------------------------------------------------------

    def _filter(self, pattern: m.FilterPattern,
                limit: int | None) -> Iterator[m.Statement]:
        # Children resolve fingerprints independently, so each child gets the
        # full pattern; filter() deduplicates the merge by content. Each child
        # yields distinct statements, so the first *limit* merged ones come
        # from child prefixes no longer than *limit*, and the limit passes down.
        for result in self._child_results(lambda c: list(c.filter(pattern, limit))):
            if result is not None:
                yield from result

    def _contains(self, stmt: m.Statement) -> bool:
        return any(self._child_results(lambda c: c.contains(stmt)))

    def _annotations(self, stmts):
        all_results = list(self._child_results(
            lambda c: [records for _, records in c.get_annotations(stmts)]))
        for pos, stmt in enumerate(stmts):
            merged: set[m.AnnotationRecord] = set()
            for child_records in all_results:
                if child_records is not None:
                    merged |= child_records[pos]
            yield stmt, frozenset(merged)

    def _descriptors(self, entities, language):
        all_results = list(self._child_results(
            lambda c: [desc for _, desc in c.get_descriptor(entities, language)]))
        for pos, entity in enumerate(entities):
            chosen = m.Descriptor()
            for child_descriptors in all_results:
                if child_descriptors is None:
                    continue
                if not child_descriptors[pos].is_empty():
                    chosen = child_descriptors[pos]
                    break
            yield entity, chosen
