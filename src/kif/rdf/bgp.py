"""Basic-graph-pattern evaluation over an indexed graph.

Join order. Patterns are joined one at a time, greedily: the next one is
the remaining pattern with the most bound slots (constants, the VALUES
variables, and variables bound by the patterns already joined), ties going
to the smaller graph index bucket its constants select
(``Graph.bucket_size``), then to textual order. This follows the
bound-first heuristics of Stocker et al., "SPARQL Basic Graph Pattern
Optimization Using Selectivity Estimation" (WWW 2008). The multiset of
solutions does not depend on the order, only the work does.

Filters. A ``FILTER(STRSTARTS(STR(?v), "prefix"))``, or an OR of such
tests on ?v, is checked as soon as ?v is bound: on the VALUES rows, or on
each triple that the pattern binding ?v first reads, before a binding is
built. STR of an IRI is the IRI and STR of a literal its lexical form
(SPARQL 1.1, section 17.4.2.5). An OR's prefixes are a tuple, which
``str.startswith`` reads as "any of them", so both forms take one test.
A pattern with no bound slot and a filtered predicate variable reads only
the index buckets of the graph's predicates that pass, each through
``Graph.match``, rather than the whole graph.

Solution modifiers. Solutions are projected, deterministically ordered by
canonical term order, then sliced by OFFSET/LIMIT, so paging the same
query is stable.

Evaluate once, then page. A paging client asks for the same query again
and again with a growing OFFSET. The sorted solutions of a paged query are
kept in the graph's memo, keyed by the query without LIMIT and OFFSET,
while a further page may be asked for, that is while each page served is
full: a request with OFFSET > 0 slices them instead of evaluating again,
and the entry is dropped when a short (last) page is served. The memo
holds a few entries (``terms.MEMO_SIZE``), least recently used first out,
and ``Graph.add`` clears it. A first page (no OFFSET, or OFFSET 0) always
evaluates: the memo is a paging device, not a result cache shared across
operations, so a new operation never sees another one's solutions, and a
later page is served only to a client that read the pages before it.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Iterable, Iterator, Sequence

from .sparql import Prefix, SelectQuery, TriplePattern, Var
from .terms import Graph, IriTerm, Term, Triple, term_key

Binding = dict[str, Term]
# (slot index, prefix) of each filter a pattern checks on the triples it reads.
Tests = tuple[tuple[int, Prefix], ...]


def _resolve(slot, binding: Binding):
    if isinstance(slot, Var):
        return binding.get(slot.name)
    return slot


def _str(t: Term) -> str:
    """SPARQL's STR: the IRI of an IRI, the lexical form of a literal."""
    return t.value if isinstance(t, IriTerm) else t.lexical


def _passes(t: Triple, tests: Tests) -> bool:
    terms = (t.subject, t.predicate, t.object)
    for i, prefix in tests:
        if not _str(terms[i]).startswith(prefix):
            return False
    return True


def _filtered_match(graph: Graph, s, p, o, tests: Tests) -> Iterator[Triple]:
    """graph.match(s, p, o) for a pattern with filters; with no slot bound,
    it reads only the predicates that pass the predicate filters."""
    if s is None and p is None and o is None:
        prefixes = [prefix for i, prefix in tests if i == 1]
        if prefixes:
            return chain.from_iterable(
                graph.match(p=q) for q in graph.predicates()
                if all(q.value.startswith(prefix) for prefix in prefixes))
    return graph.match(s, p, o)


def _extend(pattern: TriplePattern, tests: Tests, binding: Binding,
            graph: Graph) -> Iterable[Binding]:
    s = _resolve(pattern.subject, binding)
    p = _resolve(pattern.predicate, binding)
    o = _resolve(pattern.object, binding)
    triples = _filtered_match(graph, s, p, o, tests) if tests else graph.match(s, p, o)
    for t in triples:
        if tests and not _passes(t, tests):
            continue
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


def _constants(pattern: TriplePattern) -> tuple:
    return tuple(None if isinstance(slot, Var) else slot
                 for slot in (pattern.subject, pattern.predicate, pattern.object))


def _unbound(pattern: TriplePattern, bound: set[str]) -> int:
    return sum(1 for slot in (pattern.subject, pattern.predicate, pattern.object)
               if isinstance(slot, Var) and slot.name not in bound)


def _join_order(graph: Graph, query: SelectQuery) -> list[tuple[TriplePattern, Tests]]:
    """The patterns of *query* in the order they are joined, each with the
    filters on the variables it binds first."""
    prefixes: dict[str, list[Prefix]] = {}
    for var, prefix in query.filters:
        prefixes.setdefault(var, []).append(prefix)
    bound = {block.variable for block in query.values}
    # (textual position, pattern, index bucket of its constants)
    remaining = [(i, p, graph.bucket_size(*_constants(p)))
                 for i, p in enumerate(query.patterns)]
    order = []
    while remaining:
        best = min(remaining, key=lambda e: (_unbound(e[1], bound), e[2], e[0]))
        remaining.remove(best)
        pattern = best[1]
        tests = tuple((i, prefix)
                      for i, slot in enumerate((pattern.subject, pattern.predicate,
                                                pattern.object))
                      if isinstance(slot, Var) and slot.name not in bound
                      for prefix in prefixes.get(slot.name, ()))
        order.append((pattern, tests))
        bound |= pattern.variables()
    return order


def _solutions(graph: Graph, query: SelectQuery) -> list[Binding]:
    """Every solution of the patterns and the VALUES blocks, unprojected."""
    # VALUES joins like any other pattern: the seeds are the cross product
    # of the blocks, whose duplicate rows collapse.
    columns = [[(block.variable, t) for t in dict.fromkeys(block.terms)]
               for block in query.values]
    bindings: list[Binding] = [dict(seed) for seed in product(*columns)]
    for var, prefix in query.filters:
        bindings = [b for b in bindings if var not in b or _str(b[var]).startswith(prefix)]
    for pattern, tests in _join_order(graph, query):
        if not bindings:
            break
        next_bindings: list[Binding] = []
        for b in bindings:
            next_bindings.extend(_extend(pattern, tests, b, graph))
        bindings = next_bindings
    return bindings


def match_bgp(graph: Graph, query: SelectQuery) -> list[Binding]:
    """Evaluate *query* and return projected bindings as dicts."""
    key = query.with_page(None, None)
    start = query.offset or 0
    stop = None if query.limit is None else start + query.limit
    rows = graph.memo.get(key) if start else None
    if rows is None:
        rows = solution_rows(_solutions(graph, query), query.variables, query.distinct)
    if query.limit and stop <= len(rows):
        # A full page: the client cannot tell it from the last one and may
        # come back for the next.
        graph.memo.put(key, rows)
    elif start:
        graph.memo.pop(key)
    return rows[start:stop]


def solution_rows(bindings: Iterable[Binding], variables: Sequence[str],
                  distinct: bool = False, limit: int | None = None) -> list[Binding]:
    """Apply the solution modifiers: project *bindings* on *variables*,
    drop repeated rows if *distinct*, order canonically, then keep the
    first *limit*."""
    def key(row: Binding) -> tuple:
        return tuple([term_key(row[v]) for v in variables])

    rows = [{v: b[v] for v in variables} for b in bindings]
    rows.sort(key=key)
    if distinct:
        rows = [row for i, row in enumerate(rows)
                if i == 0 or key(row) != key(rows[i - 1])]
    return rows[:limit]
