"""SELECT query subset: BGP, DISTINCT, VALUES, prefix FILTERs, LIMIT, OFFSET.

This is exactly the query shape the codec generates; anything outside it is
rejected loudly rather than mis-evaluated. A group may hold several VALUES
blocks (SPARQL 1.1, section 10.2), each binding one variable of its own;
their rows join as a cross product. The one FILTER form is
``FILTER(STRSTARTS(STR(?v), "prefix"))`` (SPARQL 1.1, sections 17.4.2.5 and
17.4.3.9), or an OR of such tests on the same variable,
``FILTER(STRSTARTS(STR(?v), "a") || STRSTARTS(STR(?v), "b"))`` (section
17.4.1.5): it keeps the solutions whose ?v, an IRI or a literal's lexical
form, starts with one of the prefixes; ?v must occur in a triple pattern,
and a group may hold several such filters. Any other FILTER is rejected.
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
Prefix = Union[str, tuple[str, ...]]


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
    # (variable, prefix) of each FILTER(STRSTARTS(STR(?variable), "prefix")),
    # the prefix a tuple for an OR of several; str.startswith reads both.
    filters: tuple[tuple[str, Prefix], ...] = ()

    def __post_init__(self) -> None:
        if not self.variables:
            raise SparqlError("projection must name at least one variable")
        in_scope: set[str] = set()
        for p in self.patterns:
            in_scope |= p.variables()
        for var, prefix in self.filters:
            if var not in in_scope:
                raise SparqlError(
                    f"filtered variable ?{var} does not occur in a triple pattern")
            if isinstance(prefix, tuple) and not prefix:
                raise SparqlError(f"the FILTER on ?{var} has no prefix")
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
        tests = " || ".join(f"STRSTARTS(STR(?{var}), {write_term(Literal(one))})"
                            for one in ((prefix,) if isinstance(prefix, str) else prefix))
        parts.append(f"FILTER({tests})")
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
# starts no token is "error". The parser reads the matches themselves. The
# one supported FILTER form is a single "filter" token: the variable and
# prefix of its first test are groups, and _read_filter reads the tests
# after each "||" (the "fmore" group) again with _OR_TEST_RE, since a
# repeated group keeps only its last match. A "filter" token without its
# closing parenthesis ("fclose") is rejected by _tokenize; any other FILTER
# reads as the unsupported word.
_SKIP = r"(?:\s|\#[^\n]*(?![^\n]))*"
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_OR = _SKIP + r"\|\|" + _SKIP
_OR_RE = re.compile(_OR)
_CLOSE_RE = re.compile(_SKIP + r"\)")


def _test_re(var: str, prefix: str) -> str:
    """STRSTARTS(STR(?v), "prefix"), v and the quoted prefix in the groups
    named *var* and *prefix*."""
    return _SKIP.join((
        r"(?i:STRSTARTS)", r"\(", r"(?i:STR)", r"\(",
        rf"[?$](?P<{var}>[A-Za-z_][A-Za-z0-9_]*)", r"\)", ",",
        rf"(?P<{prefix}>{_STRING})", r"\)"))


_OR_TEST_RE = re.compile(_OR + _test_re("var", "prefix"))
_FILTER = (_SKIP.join((r"(?i:FILTER)", r"\(", _test_re("fvar", "fprefix")))
           + "(?P<fmore>(?:" + _OR + _test_re("mvar", "mprefix") + ")*)"
           + "(?P<fclose>" + _CLOSE_RE.pattern + ")?")
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


def _tokenize(text: str) -> list[re.Match]:
    """The token matches of *text*, the "eof" one last. A character that
    starts no token, or an unsupported keyword, raises SparqlError."""
    toks = []
    for t in _TOKEN_RE.finditer(text):
        kind = t.lastgroup
        if kind == "error":
            raise _fail(f"unexpected character {t[kind]!r}", t)
        if kind == "name" and ":" not in t[kind] and t[kind].upper() in _UNSUPPORTED:
            raise _fail(f"{t[kind].upper()} is unsupported in this subset", t)
        if kind == "filter" and t["fclose"] is None:
            raise _unclosed_filter(t)
        toks.append(t)
        if kind == "eof":
            break
    return toks


def _text(t: re.Match) -> str:
    return t[t.lastgroup]


def _word(t: re.Match) -> str | None:
    """The upper-cased text of a name token, None for any other token."""
    name = t["name"]
    return name and name.upper()


def _fail(message: str, t: re.Match) -> SparqlError:
    return SparqlError(message, t.start(t.lastgroup))


def _unescape(quoted: str, pos: int) -> str:
    try:
        return unescape(quoted[1:-1])
    except ValueError as e:
        raise SparqlError(f"{e} in literal", pos) from None


def _unclosed_filter(t: re.Match) -> SparqlError:
    """The error of a "filter" token whose tests do not end in the FILTER's
    closing parenthesis, at the token."""
    after = _OR_RE.match(t.string, t.end())
    if after is None:
        return _fail("FILTER is unsupported in this subset", t)
    if _CLOSE_RE.match(t.string, after.end()):
        return _fail("FILTER ends in a dangling ||", t)
    return _fail('every test of an OR in a FILTER must be STRSTARTS(STR(?v), "prefix")', t)


def _read_filter(t: re.Match) -> tuple[str, Prefix]:
    """The variable and prefix of a "filter" token, the prefix a tuple for
    an OR of tests; tests of several variables raise at the token."""
    tests = [(t["fvar"], _unescape(t["fprefix"], t.start("fprefix")))]
    pos = t.start("fmore")
    while pos < t.end("fmore"):
        test = _OR_TEST_RE.match(t.string, pos)
        tests.append((test["var"], _unescape(test["prefix"], test.start("prefix"))))
        pos = test.end()
    if len({var for var, _ in tests}) > 1:
        raise _fail("the tests of an OR in a FILTER must read one variable", t)
    if len(tests) == 1:
        return tests[0]
    return tests[0][0], tuple(prefix for _, prefix in tests)


class _QueryParser:
    def __init__(self, text: str) -> None:
        self._toks = _tokenize(text)
        self._i = 0

    def _peek(self) -> re.Match:
        return self._toks[self._i]

    def _next(self) -> re.Match:
        t = self._toks[self._i]
        if t.lastgroup != "eof":
            self._i += 1
        return t

    def _expect_word(self, word: str) -> None:
        t = self._next()
        if _word(t) != word:
            raise _fail(f"expected {word}, got {_text(t)!r}", t)

    def _expect_punct(self, punct: str) -> None:
        t = self._next()
        if t["punct"] != punct:
            raise _fail(f"expected {punct!r}, got {_text(t)!r}", t)

    def _iri(self, t: re.Match) -> IriTerm:
        iri, name = t["iri"], t["name"]
        if iri is not None:
            if ":" not in iri:
                raise _fail(f"invalid IRI {iri}: this subset has no BASE, "
                            f"so an IRI must be absolute", t)
            return IriTerm(iri[1:-1])
        if name is not None and ":" in name:
            try:
                return IriTerm(WIKIDATA.expand(name))
            except NamespaceError as e:
                raise _fail(str(e), t) from None
        if name == "a":
            return IriTerm("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        raise _fail(f"expected an IRI, got {_text(t)!r}", t)

    def _string_literal(self, t: re.Match) -> Literal:
        lexical = _unescape(t["string"], t.start("string"))
        punct = self._peek()["punct"]
        if punct == "^^":
            self._next()
            return Literal(lexical, self._iri(self._next()).value)
        if punct and punct[0] == "@":
            self._next()
            return Literal(lexical, language=punct[1:])
        return Literal(lexical)

    def _term(self, t: re.Match, allow_var: bool = True) -> PatternTerm:
        kind = t.lastgroup
        if kind == "var":
            if not allow_var:
                raise _fail("variable not allowed here", t)
            return Var(t[kind][1:])
        if kind == "string":
            return self._string_literal(t)
        if kind == "number":
            return Literal(t[kind], XSD_DECIMAL if "." in t[kind] else XSD_INTEGER)
        return self._iri(t)

    def parse(self) -> SelectQuery:
        self._expect_word("SELECT")
        distinct = _word(self._peek()) == "DISTINCT"
        if distinct:
            self._next()
        variables: list[str] = []
        while True:
            t = self._peek()
            if t.lastgroup == "var":
                variables.append(self._next()["var"][1:])
            elif t["punct"] == "*":
                raise _fail("star projection is unsupported in this subset", t)
            else:
                break
        if not variables:
            raise _fail("SELECT needs at least one variable", t)
        self._expect_word("WHERE")
        self._expect_punct("{")
        patterns: list[TriplePattern] = []
        values: list[ValuesBlock] = []
        filters: list[tuple[str, Prefix]] = []
        while True:
            t = self._peek()
            if t["punct"] == "}":
                self._next()
                break
            if t.lastgroup == "eof":
                raise _fail("missing }", t)
            if _word(t) == "VALUES":
                values.append(self._parse_values())
                continue
            if t.lastgroup == "filter":
                self._next()
                filters.append(_read_filter(t))
                continue
            s = self._term(self._next())
            p = self._term(self._next())
            o = self._term(self._next())
            try:
                patterns.append(TriplePattern(s, p, o))
            except SparqlError as e:
                raise _fail(str(e).split(": ", 1)[-1], t) from None
            if self._peek()["punct"] == ".":
                self._next()
        limit = offset = None
        while True:
            t = self._peek()
            word = _word(t)
            if word == "LIMIT":
                self._next()
                limit = self._int()
            elif word == "OFFSET":
                self._next()
                offset = self._int()
            elif t.lastgroup == "eof":
                break
            else:
                raise _fail(f"unexpected trailing {_text(t)!r}", t)
        try:
            return SelectQuery(tuple(variables), tuple(patterns), distinct,
                               tuple(values), limit, offset, tuple(filters))
        except SparqlError as e:
            raise SparqlError(str(e).split(": ", 1)[-1], 0) from None

    def _parse_values(self) -> ValuesBlock:
        self._expect_word("VALUES")
        t = self._next()
        if t.lastgroup != "var":
            raise _fail("VALUES supports a single variable in this subset", t)
        var = t["var"][1:]
        self._expect_punct("{")
        terms: list[Term] = []
        while True:
            t = self._peek()
            if t["punct"] == "}":
                self._next()
                break
            if t.lastgroup == "eof":
                raise _fail("missing } in VALUES", t)
            terms.append(self._term(self._next(), allow_var=False))  # type: ignore[arg-type]
        return ValuesBlock(var, tuple(terms))

    def _int(self) -> int:
        t = self._next()
        number = t["number"]
        if number is None or "." in number or number.startswith("-"):
            raise _fail(f"expected a non-negative integer, got {_text(t)!r}", t)
        return int(number)


def parse_query(text: str) -> SelectQuery:
    return _QueryParser(text).parse()
