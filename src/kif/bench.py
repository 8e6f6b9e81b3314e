"""Filter-call overhead benchmark.

Each query line is a set of filter flags; the runner evaluates every query
``runs`` times against the configured store, takes the median total wall
time and the median time spent outside HTTP requests, and reports one CSV
row per query: query_id, total_ms, api_ms, overhead_fraction. A memory
backend spends no time on the network, so its overhead fraction is 1.0 by
construction.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from . import model as m
from .mixer import MixerStore
from .stores.backed import PagedStore
from .stores.base import Store

CSV_HEADER = ("query_id", "total_ms", "api_ms", "overhead_fraction")


@dataclass(frozen=True)
class BenchRow:
    query_id: str
    total_ms: float
    api_ms: float
    overhead_fraction: float

    def as_csv(self) -> tuple[str, str, str, str]:
        return (self.query_id, f"{self.total_ms:.3f}", f"{self.api_ms:.3f}",
                f"{self.overhead_fraction:.4f}")


def _request_seconds(store: Store) -> float:
    """Wall time the endpoint handles of *store*, a mixer's children
    included, have spent in HTTP requests so far."""
    if isinstance(store, MixerStore):
        return sum(_request_seconds(child) for child in store.children)
    return store.request_seconds if isinstance(store, PagedStore) else 0.0


def run_query(store: Store, pattern: m.FilterPattern,
              limit: int | None) -> tuple[float, float]:
    """One evaluation; returns (total_seconds, network_seconds)."""
    before = _request_seconds(store)
    started = time.perf_counter()
    for _ in store.filter(pattern, limit):
        pass
    total = time.perf_counter() - started
    return total, _request_seconds(store) - before


def run_benchmark(store: Store, queries: list[tuple[str, m.FilterPattern, int | None]],
                  runs: int = 30) -> list[BenchRow]:
    rows = []
    for query_id, pattern, limit in queries:
        totals = []
        api_times = []
        for _ in range(runs):
            total, net = run_query(store, pattern, limit)
            totals.append(total)
            api_times.append(max(total - net, 0.0))
        total_ms = statistics.median(totals) * 1000.0
        api_ms = statistics.median(api_times) * 1000.0
        fraction = api_ms / total_ms if total_ms > 0 else 1.0
        rows.append(BenchRow(query_id, total_ms, api_ms, min(fraction, 1.0)))
    return rows


# ---------------------------------------------------------------------------
# Query battery generation
# ---------------------------------------------------------------------------

_LIMIT_VARIANTS = (None, 5, 10, 25)


def generate_battery(pairs: list[tuple[m.Statement, m.AnnotationRecord]],
                     count: int = 53) -> list[str]:
    """Instantiate query-template lines against the entities of a dataset.

    There are 32 templates: 8 pattern shapes crossed with 4 limit variants.
    Queries are generated by cycling through the templates with different
    subject/property/value instantiations until *count* lines exist, so the
    default battery of 53 uses every template at least once.
    """
    from . import sexpr

    subjects: list[m.Entity] = []
    properties: list[m.Property] = []
    claims: list[tuple[m.Entity, m.ValueSnak]] = []
    for stmt, _ in pairs:
        if stmt.subject not in subjects:
            subjects.append(stmt.subject)
        if stmt.snak.property not in properties:
            properties.append(stmt.snak.property)
        if isinstance(stmt.snak, m.ValueSnak):
            claims.append((stmt.subject, stmt.snak))
    if not subjects or not properties:
        raise ValueError("dataset has no statements to build a battery from")
    entity_claims = [c for c in claims if isinstance(c[1].value, m.Entity)]

    def compact(x) -> str:
        return sexpr.dumps(x, compact=True)

    def shape(index: int, pick: int) -> str:
        subject = compact(subjects[pick % len(subjects)])
        prop = compact(properties[pick % len(properties)])
        if index == 0:
            return f"--subject {subject} --property {prop}"
        if index == 1:
            return f"--subject {subject}"
        if index == 2:
            return f"--property {prop}"
        if index == 3:
            if not entity_claims:
                return f"--subject {subject} --property {prop}"
            owner, snak = entity_claims[pick % len(entity_claims)]
            return (f"--subject {compact(owner)} --property {compact(snak.property)} "
                    f"--value {compact(snak.value)}")
        if index == 4 and claims:
            _, snak = claims[pick % len(claims)]
            return f"--subject-snak '{compact(snak)}'"
        if index == 5 and claims:
            _, snak = claims[pick % len(claims)]
            return f"--subject-snak '{compact(snak)}' --property {prop}"
        if index == 6:
            if not entity_claims:
                return f"--property {prop}"
            _, snak = entity_claims[pick % len(entity_claims)]
            return f"--value {compact(snak.value)}"
        # Wildcard, spelled with the explicit full mask so the line is
        # non-empty.
        return "--snak-kinds value,some-value,no-value"

    templates = [(s, lim) for s in range(8) for lim in _LIMIT_VARIANTS]
    lines: list[str] = []
    for j in range(count):
        shape_index, limit = templates[j % len(templates)]
        line = shape(shape_index, j // len(templates))
        if limit is not None:
            line = f"{line} --limit {limit}".strip()
        lines.append(line.strip())
    return lines
