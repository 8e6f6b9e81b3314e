"""SELECT query subset: BGP, DISTINCT, VALUES, prefix FILTERs, LIMIT, OFFSET.

This is exactly the query shape the codec generates; anything outside it is
rejected loudly rather than mis-evaluated. A group may hold several VALUES
blocks (SPARQL 1.1, section 10.2), each binding one variable of its own;
their rows join as a cross product. The one FILTER form is
``FILTER(STRSTARTS(STR(?v), "prefix"))`` (SPARQL 1.1, sections 17.4.2.5 and
17.4.3.9): it keeps the solutions whose ?v, an IRI or a literal's lexical
form, starts with the prefix; ?v must occur in a triple pattern, and a
group may hold several such filters. Any other FILTER is rejected.
Prefixed names resolve against the built-in namespace table; there is no
BASE, so an ``<IRI>`` must be absolute (hold a ``:``). String literals use
the N-Triples escapes (``ntriples.unescape``); an invalid one raises
SparqlError at the literal's offset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from ..namespaces import WIKIDATA, XSD_DECIMAL, XSD_INTEGER, NamespaceError
from .ntriples import unescape, write_term
from .terms import IriTerm, Literal, Term


class SparqlError(ValueError):
    """Syntax error or out-of-subset construct, with character position."""

    def __init__(self, message: str, pos: int = 0) -> None:
        super().__init__(f"at offset {pos}: {message}")
        self.pos = pos


_UNSUPPORTED = (
    "PREFIX", "BASE", "ASK", "CONSTRUCT", "DESCRIBE", "OPTIONAL", "FILTER",
    "UNION", "GRAPH", "SERVICE", "BIND", "MINUS", "EXISTS", "ORDER",
    "GROUP", "HAVING", "REDUCED", "FROM", "INSERT", "DELETE", "WITH",
)


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


PatternTerm = Union[Term, Var]


@dataclass(frozen=True, slots=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def __post_init__(self) -> None:
        if isinstance(self.subject, Literal):
            raise SparqlError("literal subjects are not allowed")
        if isinstance(self.predicate, Literal):
            raise SparqlError("literal predicates are not allowed")

    def variables(self) -> set[str]:
        return {t.name for t in (self.subject, self.predicate, self.object)
                if isinstance(t, Var)}


@dataclass(frozen=True, slots=True)
class ValuesBlock:
    variable: str
    terms: tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class SelectQuery:
    variables: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]
    distinct: bool = False
    values: tuple[ValuesBlock, ...] = ()
    limit: int | None = None
    offset: int | None = None
    # (variable, prefix) of each FILTER(STRSTARTS(STR(?variable), "prefix")).
    filters: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.variables:
            raise SparqlError("projection must name at least one variable")
        in_scope: set[str] = set()
        for p in self.patterns:
            in_scope |= p.variables()
        for var, _ in self.filters:
            if var not in in_scope:
                raise SparqlError(
                    f"filtered variable ?{var} does not occur in a triple pattern")
        bound_by_values: set[str] = set()
        for block in self.values:
            if block.variable in bound_by_values:
                raise SparqlError(
                    f"two VALUES blocks bind ?{block.variable}; this subset "
                    f"takes one block per variable")
            bound_by_values.add(block.variable)
        in_scope |= bound_by_values
        missing = [v for v in self.variables if v not in in_scope]
        if missing:
            raise SparqlError(
                f"projected variable ?{missing[0]} does not occur in the pattern")

    def with_page(self, limit: int | None, offset: int | None) -> "SelectQuery":
        return SelectQuery(self.variables, self.patterns, self.distinct,
                           self.values, limit, offset, self.filters)


def _write_pattern_term(t: PatternTerm) -> str:
    if isinstance(t, Var):
        return f"?{t.name}"
    return write_term(t)


def serialize_query(q: SelectQuery) -> str:
    """Render with full IRIs; the output is endpoint-portable SPARQL."""
    parts = ["SELECT"]
    if q.distinct:
        parts.append("DISTINCT")
    parts.extend(f"?{v}" for v in q.variables)
    parts.append("WHERE {")
    for p in q.patterns:
        parts.append(" ".join((_write_pattern_term(p.subject),
                               _write_pattern_term(p.predicate),
                               _write_pattern_term(p.object), ".")))
    for var, prefix in q.filters:
        parts.append(f"FILTER(STRSTARTS(STR(?{var}), {write_term(Literal(prefix))}))")
    for block in q.values:
        terms = " ".join(write_term(t) for t in block.terms)
        parts.append(f"VALUES ?{block.variable} {{ {terms} }}")
    parts.append("}")
    if q.limit is not None:
        parts.append(f"LIMIT {q.limit}")
    if q.offset is not None:
        parts.append(f"OFFSET {q.offset}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Each match skips whitespace and comments, then reads one token, whose
# group names its kind: the end of the text is "eof", and a character that
# starts no token is "error". The one supported FILTER form is a single
# "filter" token, so any other FILTER reads as the unsupported word.
_SKIP = r"(?:\s|\#[^\n]*(?![^\n]))*"
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_FILTER = _SKIP.join((
    r"(?i:FILTER)", r"\(", r"(?i:STRSTARTS)", r"\(", r"(?i:STR)", r"\(",
    r"[?$](?P<fvar>[A-Za-z_][A-Za-z0-9_]*)", r"\)", ",",
    r"(?P<fprefix>" + _STRING + ")", r"\)", r"\)"))
_TOKEN_RE = re.compile(_SKIP + r"""(?:
    (?P<iri><[^<>\s]*>)
  | (?P<var>[?$][A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>""" + _STRING + r""")
  | (?P<number>[+-]?[0-9]+(?:\.[0-9]+)?)
  | (?P<punct>\{|\}|\.|\*|\^\^|@[a-zA-Z]+(?:-[a-zA-Z0-9]+)*)
  | (?P<filter>""" + _FILTER + r""")
  | (?P<name>[A-Za-z_][A-Za-z0-9_-]*(?::[A-Za-z0-9_.-]*)?)
  | (?P<eof>\Z)
  | (?P<error>(?s:.)))""", re.VERBOSE)


_FILTER_RE = re.compile(_FILTER, re.VERBOSE)


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        tok = _Tok(kind, m.group(kind), m.start(kind))
        if kind == "error":
            raise SparqlError(f"unexpected character {tok.text!r}", tok.pos)
        if kind == "name" and ":" not in tok.text and tok.text.upper() in _UNSUPPORTED:
            raise SparqlError(f"{tok.text.upper()} is unsupported in this subset", tok.pos)
        toks.append(tok)
        if kind == "eof":
            return toks
        pos = m.end()


class _QueryParser:
    def __init__(self, text: str) -> None:
        self._toks = _tokenize(text)
        self._i = 0

    def _peek(self) -> _Tok:
        return self._toks[self._i]

    def _next(self) -> _Tok:
        t = self._toks[self._i]
        if t.kind != "eof":
            self._i += 1
        return t

    def _expect_word(self, word: str) -> None:
        t = self._next()
        if t.kind != "name" or t.text.upper() != word:
            raise SparqlError(f"expected {word}, got {t.text!r}", t.pos)

    def _expect_punct(self, punct: str) -> _Tok:
        t = self._next()
        if t.kind != "punct" or t.text != punct:
            raise SparqlError(f"expected {punct!r}, got {t.text!r}", t.pos)
        return t

    def _iri(self, t: _Tok) -> IriTerm:
        if t.kind == "iri":
            if ":" not in t.text:
                raise SparqlError(f"invalid IRI {t.text}: this subset has no BASE, "
                                  f"so an IRI must be absolute", t.pos)
            return IriTerm(t.text[1:-1])
        if t.kind == "name" and ":" in t.text:
            try:
                return IriTerm(WIKIDATA.expand(t.text))
            except NamespaceError as e:
                raise SparqlError(str(e), t.pos) from None
        if t.kind == "name" and t.text == "a":
            return IriTerm("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        raise SparqlError(f"expected an IRI, got {t.text!r}", t.pos)

    @staticmethod
    def _unescape(text: str, pos: int) -> str:
        try:
            return unescape(text[1:-1])
        except ValueError as e:
            raise SparqlError(f"{e} in literal", pos) from None

    def _string_literal(self, t: _Tok) -> Literal:
        lexical = self._unescape(t.text, t.pos)
        nxt = self._peek()
        if nxt.kind == "punct" and nxt.text == "^^":
            self._next()
            dt = self._iri(self._next())
            return Literal(lexical, dt.value)
        if nxt.kind == "punct" and nxt.text.startswith("@"):
            self._next()
            return Literal(lexical, language=nxt.text[1:])
        return Literal(lexical)

    def _term(self, t: _Tok, allow_var: bool = True) -> PatternTerm:
        if t.kind == "var":
            if not allow_var:
                raise SparqlError("variable not allowed here", t.pos)
            return Var(t.text[1:])
        if t.kind == "string":
            return self._string_literal(t)
        if t.kind == "number":
            dt = XSD_DECIMAL if "." in t.text else XSD_INTEGER
            return Literal(t.text, dt)
        return self._iri(t)

    def parse(self) -> SelectQuery:
        self._expect_word("SELECT")
        distinct = False
        t = self._peek()
        if t.kind == "name" and t.text.upper() == "DISTINCT":
            self._next()
            distinct = True
        variables: list[str] = []
        while True:
            t = self._peek()
            if t.kind == "var":
                variables.append(self._next().text[1:])
            elif t.kind == "punct" and t.text == "*":
                raise SparqlError("star projection is unsupported in this subset", t.pos)
            else:
                break
        if not variables:
            raise SparqlError("SELECT needs at least one variable", t.pos)
        self._expect_word("WHERE")
        self._expect_punct("{")
        patterns: list[TriplePattern] = []
        values: list[ValuesBlock] = []
        filters: list[tuple[str, str]] = []
        while True:
            t = self._peek()
            if t.kind == "punct" and t.text == "}":
                self._next()
                break
            if t.kind == "eof":
                raise SparqlError("missing }", t.pos)
            if t.kind == "name" and t.text.upper() == "VALUES":
                values.append(self._parse_values())
                continue
            if t.kind == "filter":
                self._next()
                f = _FILTER_RE.fullmatch(t.text)
                filters.append((f.group("fvar"),
                                self._unescape(f.group("fprefix"), t.pos + f.start("fprefix"))))
                continue
            s = self._term(self._next())
            p = self._term(self._next())
            o = self._term(self._next())
            try:
                patterns.append(TriplePattern(s, p, o))
            except SparqlError as e:
                raise SparqlError(str(e).split(": ", 1)[-1], t.pos) from None
            nxt = self._peek()
            if nxt.kind == "punct" and nxt.text == ".":
                self._next()
        limit = offset = None
        while True:
            t = self._peek()
            if t.kind == "name" and t.text.upper() == "LIMIT":
                self._next()
                limit = self._int()
            elif t.kind == "name" and t.text.upper() == "OFFSET":
                self._next()
                offset = self._int()
            elif t.kind == "eof":
                break
            else:
                raise SparqlError(f"unexpected trailing {t.text!r}", t.pos)
        try:
            return SelectQuery(tuple(variables), tuple(patterns), distinct,
                               tuple(values), limit, offset, tuple(filters))
        except SparqlError as e:
            raise SparqlError(str(e).split(": ", 1)[-1], 0) from None

    def _parse_values(self) -> ValuesBlock:
        self._expect_word("VALUES")
        t = self._next()
        if t.kind != "var":
            raise SparqlError("VALUES supports a single variable in this subset", t.pos)
        var = t.text[1:]
        self._expect_punct("{")
        terms: list[Term] = []
        while True:
            t = self._peek()
            if t.kind == "punct" and t.text == "}":
                self._next()
                break
            if t.kind == "eof":
                raise SparqlError("missing } in VALUES", t.pos)
            term = self._term(self._next(), allow_var=False)
            terms.append(term)  # type: ignore[arg-type]
        return ValuesBlock(var, tuple(terms))

    def _int(self) -> int:
        t = self._next()
        if t.kind != "number" or "." in t.text or t.text.startswith("-"):
            raise SparqlError(f"expected a non-negative integer, got {t.text!r}", t.pos)
        return int(t.text)


def parse_query(text: str) -> SelectQuery:
    return _QueryParser(text).parse()
