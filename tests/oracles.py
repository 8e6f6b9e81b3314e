"""Independent reference implementations used to cross-check the fast paths."""

from __future__ import annotations

import itertools

from kif.rdf.sparql import SelectQuery, Var
from kif.rdf.terms import Graph, IriTerm, term_key


def brute_force_bgp(graph: Graph, query: SelectQuery) -> list[dict]:
    """Try every assignment of graph triples to patterns, no indexes, no
    joins, then keep the solutions that pass every filter."""
    triples = list(graph)
    seeds = [{}]
    for block in query.values:
        distinct = []
        seen = set()
        for t in block.terms:
            key = term_key(t)
            if key not in seen:
                seen.add(key)
                distinct.append(t)
        seeds = [{**seed, block.variable: t} for seed in seeds for t in distinct]

    solutions = []
    for seed in seeds:
        for combo in itertools.product(triples, repeat=len(query.patterns)):
            binding = dict(seed)
            ok = True
            for pattern, triple in zip(query.patterns, combo):
                for slot, actual in ((pattern.subject, triple.subject),
                                     (pattern.predicate, triple.predicate),
                                     (pattern.object, triple.object)):
                    if isinstance(slot, Var):
                        bound = binding.get(slot.name)
                        if bound is None:
                            binding[slot.name] = actual
                        elif bound != actual:
                            ok = False
                            break
                    elif slot != actual:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                solutions.append(binding)
    for var, prefix in query.filters:
        # STR: an IRI's string or a literal's lexical form.
        solutions = [b for b in solutions
                     if (b[var].value if isinstance(b[var], IriTerm)
                         else b[var].lexical).startswith(prefix)]

    unique = {}
    for binding in solutions:
        key = tuple(sorted((name, term_key(value)) for name, value in binding.items()))
        unique.setdefault(key, binding)
    rows = [{v: b[v] for v in query.variables} for b in unique.values()]
    if query.distinct:
        seen_rows = set()
        deduped = []
        for row in rows:
            key = tuple(term_key(row[v]) for v in query.variables)
            if key not in seen_rows:
                seen_rows.add(key)
                deduped.append(row)
        rows = deduped
    rows.sort(key=lambda row: tuple(term_key(row[v]) for v in query.variables))
    if query.offset:
        rows = rows[query.offset:]
    if query.limit is not None:
        rows = rows[:query.limit]
    return rows
