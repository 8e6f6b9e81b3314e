"""RDF term, triple, and indexed graph primitives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from ..lru import Lru
from ..namespaces import RDF_LANG_STRING, XSD_STRING

# Paged queries whose sorted solutions one graph keeps for their next
# OFFSET page (see rdf.bgp).
MEMO_SIZE = 8

_EMPTY: frozenset = frozenset()


@dataclass(frozen=True, slots=True)
class IriTerm:
    value: str

    def __repr__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal with its lexical form preserved verbatim.

    A language tag forces the datatype to rdf:langString.
    """

    lexical: str
    datatype: str = XSD_STRING
    language: str | None = None

    def __post_init__(self) -> None:
        if self.language is not None:
            object.__setattr__(self, "language", self.language.lower())
            object.__setattr__(self, "datatype", RDF_LANG_STRING)

    def __repr__(self) -> str:
        if self.language:
            return f'"{self.lexical}"@{self.language}'
        return f'"{self.lexical}"^^<{self.datatype}>'


Term = Union[IriTerm, Literal]


def term_key(t: Term) -> tuple:
    """Deterministic sort key giving a total order over terms."""
    if isinstance(t, IriTerm):
        return (0, t.value)
    return (1, t.lexical, t.datatype, t.language or "")


@dataclass(frozen=True, slots=True)
class Triple:
    subject: IriTerm
    predicate: IriTerm
    object: Term

    def __post_init__(self) -> None:
        if not isinstance(self.subject, IriTerm):
            raise TypeError(f"triple subject must be an IRI, got {self.subject!r}")
        if not isinstance(self.predicate, IriTerm):
            raise TypeError(f"triple predicate must be an IRI, got {self.predicate!r}")


def triple_key(t: Triple) -> tuple:
    return (term_key(t.subject), term_key(t.predicate), term_key(t.object))


class Graph:
    """A set of triples with (s), (p), (o), (s,p), (p,o) indexes.

    Mutation is only expected during load; concurrent readers are safe once
    loading is done. ``memo`` holds the evaluator's sorted solutions of
    paged queries; adding a triple clears it.
    """

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: set[Triple] = set()
        self._by_s: dict[IriTerm, set[Triple]] = {}
        self._by_p: dict[IriTerm, set[Triple]] = {}
        self._by_o: dict[Term, set[Triple]] = {}
        self._by_sp: dict[tuple[IriTerm, IriTerm], set[Triple]] = {}
        self._by_po: dict[tuple[IriTerm, Term], set[Triple]] = {}
        self.memo = Lru(MEMO_SIZE)
        for t in triples:
            self.add(t)

    def add(self, t: Triple) -> bool:
        if t in self._triples:
            return False
        self._triples.add(t)
        self._by_s.setdefault(t.subject, set()).add(t)
        self._by_p.setdefault(t.predicate, set()).add(t)
        self._by_o.setdefault(t.object, set()).add(t)
        self._by_sp.setdefault((t.subject, t.predicate), set()).add(t)
        self._by_po.setdefault((t.predicate, t.object), set()).add(t)
        self.memo.clear()
        return True

    def update(self, triples: Iterable[Triple]) -> None:
        for t in triples:
            self.add(t)

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def _bucket(self, s: IriTerm | None, p: IriTerm | None,
                o: Term | None) -> Iterable[Triple]:
        """The smallest index bucket holding every triple that matches."""
        if s is not None and p is not None:
            return self._by_sp.get((s, p), _EMPTY)
        if p is not None and o is not None:
            return self._by_po.get((p, o), _EMPTY)
        if s is not None:
            return self._by_s.get(s, _EMPTY)
        if p is not None:
            return self._by_p.get(p, _EMPTY)
        if o is not None:
            return self._by_o.get(o, _EMPTY)
        return self._triples

    def bucket_size(self, s: IriTerm | None = None, p: IriTerm | None = None,
                    o: Term | None = None) -> int:
        """How many triples match() reads for these constants: an upper
        bound on its matches, and what a join order can estimate cost by."""
        return len(self._bucket(s, p, o))

    def match(self, s: IriTerm | None = None, p: IriTerm | None = None,
              o: Term | None = None) -> Iterator[Triple]:
        """Triples matching the given constants (None is a wildcard)."""
        for t in self._bucket(s, p, o):
            if s is not None and t.subject != s:
                continue
            if p is not None and t.predicate != p:
                continue
            if o is not None and t.object != o:
                continue
            yield t

    def objects(self, s: IriTerm, p: IriTerm) -> list[Term]:
        return [t.object for t in self.match(s, p)]
