"""RDF term, triple, and indexed graph primitives.

A graph takes its triples in bulk (a parse, an encoding, a page of node
triples) and is read far less often than it is built, so these classes
keep both the insert and the first lookup cheap:

- Hash once. An ``IriTerm`` hashes as its IRI string, whose hash ``str``
  caches; a ``Literal`` (after lower-casing its language tag) and a
  ``Triple`` compute their hash at construction and keep it in a slot.
  Equality tests identity first, then the class, then the fields, so an
  IRI never equals a literal of the same text.
- Index on demand. ``Graph`` keeps its triples in one insertion-ordered
  dict, which alone decides whether a triple is new, and builds each of
  its five indexes from it the first time a lookup needs it; a graph that
  is only serialized builds none. Later inserts go into the built indexes,
  and each bucket is a list that holds a triple at most once.
- One object per IRI. ``ntriples.parse_ntriples`` builds one ``IriTerm``
  per distinct IRI of a document, and the results decoder
  (``stores.backed.decode_results_json``) one ``IriTerm`` per distinct IRI
  and one ``Literal`` per distinct literal of a response, so the
  dictionary lookups of indexing and matching mostly find the very key
  object and never compare fields. Neither keeps its table past the call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter
from typing import Collection, Iterable, Iterator, Union

from ..lru import Lru
from ..namespaces import RDF_LANG_STRING, XSD_STRING

# Paged queries whose sorted solutions one graph keeps for their next
# OFFSET page (see rdf.bgp).
MEMO_SIZE = 8


class _Hashed:
    """The slot in which a literal or triple keeps its hash, computed once
    by the constructor."""

    __slots__ = ("_hash",)

    def __reduce__(self):
        # A copy or an unpickled object is built by the constructor too: a
        # hash of text differs from process to process.
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, slots=True)
class IriTerm:
    value: str

    # str caches its own hash, so an IRI needs no slot of its own.
    def __hash__(self) -> int:
        return hash(self.value)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    def __repr__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True, slots=True)
class Literal(_Hashed):
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
        # A missing language hashes as "": hash(None) follows the address
        # of None, and a graph's order would change from run to run.
        object.__setattr__(self, "_hash",
                           hash((self.lexical, self.datatype, self.language or "")))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.lexical == other.lexical
                and self.datatype == other.datatype and self.language == other.language)

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
class Triple(_Hashed):
    subject: IriTerm
    predicate: IriTerm
    object: Term

    def __post_init__(self) -> None:
        if not isinstance(self.subject, IriTerm):
            raise TypeError(f"triple subject must be an IRI, got {self.subject!r}")
        if not isinstance(self.predicate, IriTerm):
            raise TypeError(f"triple predicate must be an IRI, got {self.predicate!r}")
        # The same value as hash((subject, predicate, object)), since an IRI
        # hashes as its string, without two calls to IriTerm.__hash__.
        object.__setattr__(self, "_hash", hash((self.subject.value, self.predicate.value,
                                                self.object)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.subject == other.subject
                and self.predicate == other.predicate and self.object == other.object)


def triple_key(t: Triple) -> tuple:
    return (term_key(t.subject), term_key(t.predicate), term_key(t.object))


# The key of a triple in each index of a Graph.
_INDEX_KEYS = {
    "s": attrgetter("subject.value"),
    "p": attrgetter("predicate.value"),
    "o": attrgetter("object"),
    "sp": attrgetter("subject.value", "predicate.value"),
    "po": attrgetter("predicate.value", "object"),
}


class Graph:
    """A set of triples with (s), (p), (o), (s,p) and (p,o) indexes, each
    built on first use.

    The triples are kept in insertion order, in one dict whose insert
    decides whether an added triple is new (its hash was computed when the
    triple was built). An index is built from them the first time
    ``match``, ``bucket_size``, ``predicates`` or ``objects`` needs it, and
    ``update`` adds each new triple to the indexes built so far; so a
    triple sits exactly once in each of its five buckets that is built,
    and a bucket is a list in insertion order. The
    evaluator sorts its solutions, so no query answer depends on that
    order. A graph that is only serialized builds no index, a node graph
    read by subject builds (s) and (s,p), and a served graph's first query
    pays for the indexes it needs. A graph parsed from N-Triples shares
    one IriTerm per IRI, so its index lookups find the key object itself.

    Mutation is only expected during load; concurrent readers are safe once
    loading is done, also while an index is first built: the build fills a
    local dict and publishes it with one assignment, so a reader finds no
    index (and builds its own, equal one) or a full one, never a part.
    ``memo`` holds the evaluator's sorted solutions of paged queries;
    adding a triple clears it.
    """

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: dict[Triple, None] = {}
        # The built indexes by kind. A subject or predicate is keyed by its
        # IRI string, whose equality and cached hash are C code; an object
        # stays a term, since an IRI and a literal of the same text differ.
        self._indexes: dict[str, dict] = {}
        self.memo = Lru(MEMO_SIZE)
        self.update(triples)

    def add(self, t: Triple) -> bool:
        n = len(self._triples)
        self.update((t,))
        return len(self._triples) > n

    def update(self, triples: Iterable[Triple]) -> None:
        all_triples = self._triples
        before = len(all_triples)
        built = [(index, _INDEX_KEYS[kind]) for kind, index in self._indexes.items()]
        try:
            if not built:
                all_triples.update(zip(triples, repeat(None)))
                return
            for t in triples:
                n = len(all_triples)
                all_triples[t] = None
                if len(all_triples) == n:
                    continue
                for index, key in built:
                    index.setdefault(key(t), []).append(t)
        finally:
            if len(all_triples) > before and self.memo:
                self.memo.clear()

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self._triples

    def _index(self, kind: str) -> dict:
        """The *kind* index, built now if this is its first use."""
        index = self._indexes.get(kind)
        if index is None:
            index = {}
            key = _INDEX_KEYS[kind]
            for t in self._triples:
                index.setdefault(key(t), []).append(t)
            self._indexes[kind] = index
        return index

    def _bucket(self, s: IriTerm | None, p: IriTerm | None,
                o: Term | None) -> Collection[Triple]:
        """The smallest index bucket holding every triple that matches."""
        # A variable bound to a literal can reach the subject or predicate
        # slot; no triple has a literal there.
        if (s is not None and not isinstance(s, IriTerm)
                or p is not None and not isinstance(p, IriTerm)):
            return ()
        if s is not None and p is not None:
            return self._index("sp").get((s.value, p.value), ())
        if p is not None and o is not None:
            return self._index("po").get((p.value, o), ())
        if s is not None:
            return self._index("s").get(s.value, ())
        if p is not None:
            return self._index("p").get(p.value, ())
        if o is not None:
            return self._index("o").get(o, ())
        return self._triples.keys()

    def bucket_size(self, s: IriTerm | None = None, p: IriTerm | None = None,
                    o: Term | None = None) -> int:
        """How many triples match() reads for these constants: an upper
        bound on its matches, and what a join order can estimate cost by."""
        return len(self._bucket(s, p, o))

    def match(self, s: IriTerm | None = None, p: IriTerm | None = None,
              o: Term | None = None) -> Iterator[Triple]:
        """Triples matching the given constants (None is a wildcard)."""
        bucket = self._bucket(s, p, o)
        # Every bucket is keyed by all the given constants but the object
        # when a subject is given too.
        if s is not None and o is not None:
            return (t for t in bucket if t.object == o)
        return iter(bucket)

    def predicates(self) -> list[IriTerm]:
        """Every predicate of the graph, once each."""
        return [bucket[0].predicate for bucket in self._index("p").values()]

    def objects(self, s: IriTerm, p: IriTerm) -> list[Term]:
        """The objects of the triples with subject *s* and predicate *p*."""
        if s.__class__ is IriTerm and p.__class__ is IriTerm:
            bucket = self._index("sp").get((s.value, p.value), ())
        else:
            bucket = self._bucket(s, p, None)
        return [t.object for t in bucket]
