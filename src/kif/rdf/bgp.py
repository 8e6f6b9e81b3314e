"""Basic-graph-pattern evaluation over an indexed graph.

Solutions are projected, deterministically ordered by canonical term order,
then sliced by OFFSET/LIMIT, so paging the same query is stable.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .sparql import SelectQuery, TriplePattern, Var
from .terms import Graph, Term, term_key

Binding = dict[str, Term]


def _resolve(slot, binding: Binding):
    if isinstance(slot, Var):
        return binding.get(slot.name)
    return slot


def _extend(pattern: TriplePattern, binding: Binding, graph: Graph) -> Iterable[Binding]:
    s = _resolve(pattern.subject, binding)
    p = _resolve(pattern.predicate, binding)
    o = _resolve(pattern.object, binding)
    for t in graph.match(s, p, o):
        new = dict(binding)
        ok = True
        for slot, val in ((pattern.subject, t.subject),
                          (pattern.predicate, t.predicate),
                          (pattern.object, t.object)):
            if isinstance(slot, Var):
                bound = new.get(slot.name)
                if bound is None:
                    new[slot.name] = val
                elif bound != val:
                    ok = False
                    break
        if ok:
            yield new


def match_bgp(graph: Graph, query: SelectQuery) -> list[Binding]:
    """Evaluate *query* and return projected bindings as dicts."""
    if query.values is not None:
        bindings: list[Binding] = [{query.values.variable: t} for t in query.values.terms]
        # VALUES joins like any other pattern; duplicate seeds collapse.
        seen_seed = set()
        bindings = [b for b in bindings
                    if (key := term_key(b[query.values.variable])) not in seen_seed
                    and not seen_seed.add(key)]
    else:
        bindings = [{}]
    for pattern in query.patterns:
        next_bindings: list[Binding] = []
        for b in bindings:
            next_bindings.extend(_extend(pattern, b, graph))
        bindings = next_bindings
        if not bindings:
            break
    return solution_rows(bindings, query.variables, query.distinct,
                         query.offset, query.limit)


def solution_rows(bindings: Iterable[Binding], variables: Sequence[str],
                  distinct: bool = False, offset: int | None = None,
                  limit: int | None = None) -> list[Binding]:
    """Apply the solution modifiers: project *bindings* on *variables*,
    drop repeated rows if *distinct*, order canonically, then slice."""
    def key(row: Binding) -> tuple:
        return tuple(term_key(row[v]) for v in variables)

    rows = [{v: b[v] for v in variables} for b in bindings]
    rows.sort(key=key)
    if distinct:
        rows = [row for i, row in enumerate(rows)
                if i == 0 or key(row) != key(rows[i - 1])]
    start = offset or 0
    return rows[start:None if limit is None else start + limit]
