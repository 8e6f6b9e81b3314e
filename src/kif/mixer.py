"""Virtual union of stores.

The mixer fans every operation out to its children and merges the results:
filter results are deduplicated by statement content in child order,
annotation sets are unioned per statement, and descriptors come from the
first child that knows the entity. The calling thread runs the first
child. With parallel=True the other children run concurrently, on a pool
of one thread per child after the first, owned by the mixer; the merged
stream is identical to the sequential one. A mixer's request counters are
the sums of its children's.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
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
        self.lenient = lenient
        # Pool threads exit on close(), or once the mixer, and with it the
        # pool, is collected.
        self._pool = (ThreadPoolExecutor(max_workers=len(self.children) - 1)
                      if parallel and len(self.children) > 1 else None)

    @property
    def request_count(self) -> int:
        return sum(child.request_count for child in self.children)

    @property
    def request_seconds(self) -> float:
        return sum(child.request_seconds for child in self.children)

    def close(self) -> None:
        """Stop the pool threads; later calls run every child on the
        calling thread. The children stay open, their owner closes them."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    # -- child dispatch -------------------------------------------------------

    def _child_results(self, op):
        """Run op(child) for every child and yield the results in child
        order. The calling thread runs child 0; the others run on the pool,
        if the mixer has one, and on the calling thread otherwise."""
        calls = [partial(self._guarded, op, i) for i in range(len(self.children))]
        pool, futures = self._pool, []
        if pool is not None:
            futures = [pool.submit(call) for call in calls[1:]]
            calls[1:] = [future.result for future in futures]
        try:
            for call in calls:
                yield call()
        finally:
            # A call returns only after all of its child work is done.
            wait(futures)

    def _guarded(self, op, index: int):
        try:
            return op(self.children[index])
        except Exception as e:  # noqa: BLE001 - child failure policy
            if self.lenient:
                logger.warning("mixer: skipping failed child #%d: %s", index, e)
                return None
            raise MixerChildError(index, e) from e

    def _merged(self, items, ask, merge):
        """Each of *items* paired with merge() of the answers, in child
        order, of the children that answered; ask(child) yields the child's
        (item, answer) pairs in input order."""
        answered = [answers for answers in self._child_results(
                        lambda c: [answer for _, answer in ask(c)])
                    if answers is not None]
        for pos, item in enumerate(items):
            yield item, merge(answers[pos] for answers in answered)

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
        return self._merged(stmts, lambda c: c.get_annotations(stmts),
                            lambda found: frozenset().union(*found))

    def _descriptors(self, entities, language):
        return self._merged(entities, lambda c: c.get_descriptor(entities, language),
                            lambda found: next((d for d in found if not d.is_empty()),
                                               m.Descriptor()))
