"""N-Triples reader and writer.

Blank node labels are accepted on input and skolemized into deterministic
``urn:skolem:{document-digest}:{label}`` IRIs, so parsing the same document
twice yields identical graphs and reified nodes stay comparable.
"""

from __future__ import annotations

import hashlib
import re
from typing import IO, Iterable, Iterator

from ..namespaces import RDF_LANG_STRING, XSD_STRING
from .terms import Graph, IriTerm, Literal, Term, Triple, triple_key

SKOLEM_PREFIX = "urn:skolem:"


class NTriplesError(ValueError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


_IRI_RE = re.compile(r"<([^<>\"{}|^`\\\x00-\x20]*)>")
_BNODE_RE = re.compile(r"_:([A-Za-z0-9][A-Za-z0-9._-]*)")
_STRING_RE = re.compile(r'"((?:[^"\\\n\r]|\\.)*)"')
_LANG_RE = re.compile(r"@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*)")

_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
          '"': '"', "'": "'", "\\": "\\"}
# ECHAR, UCHAR4, UCHAR8, and anything else after a backslash (an error).
_ESCAPE_RE = re.compile(
    r"\\(?:([tbnrf\"'\\])|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(u.{0,4}|U.{0,8}|.?))",
    re.DOTALL)


def _unescape_one(m: re.Match) -> str:
    echar, uchar4, uchar8, bad = m.groups()
    if echar:
        return _ECHAR[echar]
    if bad is None:
        code = int(uchar4 or uchar8, 16)
        if code < 0x110000:
            return chr(code)
    raise ValueError(f"invalid escape {m.group(0)!r}")


def unescape(text: str) -> str:
    """Decode the ECHAR and UCHAR escapes that N-Triples and SPARQL string
    literals share; raises ValueError naming an invalid escape."""
    return _ESCAPE_RE.sub(_unescape_one, text)


class _LineParser:
    def __init__(self, text: str, line_no: int, skolem_base: str,
                 iris: dict[str, IriTerm]) -> None:
        self.text = text
        self.pos = 0
        self.line_no = line_no
        self.skolem_base = skolem_base
        self.iris = iris

    def fail(self, message: str) -> NTriplesError:
        return NTriplesError(message, self.line_no)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def resource(self) -> IriTerm:
        m = _IRI_RE.match(self.text, self.pos)
        if m:
            iri = m.group(1)
            if not iri or ":" not in iri:
                raise self.fail(f"invalid IRI <{iri}>")
        else:
            m = _BNODE_RE.match(self.text, self.pos)
            if not m:
                raise self.fail(f"expected IRI or blank node at column {self.pos + 1}")
            iri = f"{self.skolem_base}{m.group(1)}"
        self.pos = m.end()
        term = self.iris.get(iri)
        if term is None:
            term = self.iris[iri] = IriTerm(iri)
        return term

    def obj(self) -> Term:
        if self.text[self.pos:self.pos + 1] != '"':
            return self.resource()
        m = _STRING_RE.match(self.text, self.pos)
        if not m:
            raise self.fail("unterminated literal")
        self.pos = m.end()
        try:
            lexical = unescape(m.group(1))
        except ValueError as e:
            raise self.fail(str(e)) from None
        if self.text[self.pos:self.pos + 2] == "^^":
            self.pos += 2
            dt = _IRI_RE.match(self.text, self.pos)
            if not dt:
                raise self.fail("expected datatype IRI after ^^")
            self.pos = dt.end()
            return Literal(lexical, dt.group(1))
        lang = _LANG_RE.match(self.text, self.pos)
        if lang:
            self.pos = lang.end()
            return Literal(lexical, RDF_LANG_STRING, lang.group(1))
        return Literal(lexical, XSD_STRING)

    def end(self) -> None:
        self.skip_ws()
        if self.text[self.pos:self.pos + 1] != ".":
            raise self.fail("expected terminating '.'")
        self.pos += 1
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.fail("trailing content after '.'")


def parse_ntriples(source: str | IO[str]) -> Graph:
    """Parse N-Triples text (or a text stream) into a graph. Every
    occurrence of one IRI in the text becomes the same IriTerm object."""
    text = source if isinstance(source, str) else source.read()
    doc_digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]
    return Graph(_parse_lines(text, f"{SKOLEM_PREFIX}{doc_digest}:"))


def _parse_lines(text: str, skolem_base: str) -> Iterator[Triple]:
    iris: dict[str, IriTerm] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        lp = _LineParser(line, line_no, skolem_base, iris)
        s = lp.resource()
        lp.skip_ws()
        p = lp.resource()
        if not isinstance(p, IriTerm) or p.value.startswith(SKOLEM_PREFIX):
            raise lp.fail("predicate must be an IRI")
        lp.skip_ws()
        o = lp.obj()
        lp.end()
        yield Triple(s, p, o)


_ESCAPE_TABLE = str.maketrans({
    **{chr(c): f"\\u{c:04X}" for c in range(0x20)},
    "\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _escape(s: str) -> str:
    return s.translate(_ESCAPE_TABLE)


def write_term(t: Term) -> str:
    if isinstance(t, IriTerm):
        return f"<{t.value}>"
    if t.language:
        return f'"{_escape(t.lexical)}"@{t.language}'
    if t.datatype == XSD_STRING:
        return f'"{_escape(t.lexical)}"'
    return f'"{_escape(t.lexical)}"^^<{t.datatype}>'


def serialize_ntriples(triples: Graph | Iterable[Triple]) -> str:
    """Serialize to N-Triples, one line per triple, in canonical order."""
    lines = [
        f"{write_term(t.subject)} {write_term(t.predicate)} {write_term(t.object)} ."
        for t in sorted(triples, key=triple_key)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
