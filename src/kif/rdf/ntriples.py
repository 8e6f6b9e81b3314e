"""N-Triples reader and writer.

Blank node labels are accepted on input and skolemized into deterministic
``urn:skolem:{document-digest}:{label}`` IRIs, so parsing the same document
twice yields identical graphs and reified nodes stay comparable.

The reader takes one triple a line, in this subset of N-Triples:

- a ``#`` comment only on a line of its own, not after a triple;
- no escapes inside IRIs, whose characters are any but ``<>"{}|^`\\``,
  space and the controls; every IRI, a datatype's too, holds a ``:``;
- language tags matching ``[a-zA-Z]+(-[a-zA-Z0-9]+)*``;
- blank-node (and ``urn:skolem:``) predicates are refused.
"""

from __future__ import annotations

import hashlib
import re
from typing import IO, Callable, Iterable, Iterator, NoReturn

from ..namespaces import XSD_STRING
from .terms import Graph, IriTerm, Literal, Term, Triple, triple_key

SKOLEM_PREFIX = "urn:skolem:"


class NTriplesError(ValueError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


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


# The parts of a line. A resource is an IRI (group 1) or a blank node
# label (group 2), which runs to the last label character, '.' included.
# An object is a resource or a literal: its escaped text, then a datatype
# IRI or a language tag.
_IRI = r"<([^<>\"{}|^`\\\x00-\x20]*)>"
_RESOURCE = _IRI + r"|_:([A-Za-z0-9][A-Za-z0-9._-]*)(?![A-Za-z0-9._-])"
_OBJECT = (_RESOURCE + r'|"([^"\\\n\r]*(?:\\.[^"\\\n\r]*)*)"'
           r"(?:\^\^" + _IRI + r"|@([a-zA-Z]+(?:-[a-zA-Z0-9]+)*))?")
_PARTS = (re.compile(_RESOURCE), re.compile(_RESOURCE), re.compile(_OBJECT))
_SPACE_RE = re.compile(r"[ \t]*")
_LINE_RE = re.compile(rf"(?:{_RESOURCE})[ \t]*(?:{_RESOURCE})[ \t]*(?:{_OBJECT})[ \t]*\.")


def parse_ntriples(source: str | IO[str]) -> Graph:
    """Parse N-Triples text (or a text stream) into a graph. Every
    occurrence of one IRI in the text becomes the same IriTerm object."""
    text = source if isinstance(source, str) else source.read()
    doc_digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]
    return Graph(_parse_lines(text, f"{SKOLEM_PREFIX}{doc_digest}:"))


def _parse_lines(text: str, skolem_base: str) -> Iterator[Triple]:
    iris: dict[str, IriTerm] = {}

    def check(iri: str) -> str:
        if ":" not in iri:
            raise ValueError(f"invalid IRI <{iri}>")
        return iri

    def resource(iri: str | None, label: str | None) -> IriTerm:
        if label is not None:
            iri = skolem_base + label
        else:
            check(iri)
        term = iris.get(iri)
        if term is None:
            term = iris[iri] = IriTerm(iri)
        return term

    def predicate(iri: str | None, label: str | None) -> IriTerm:
        term = resource(iri, label)
        if term.value.startswith(SKOLEM_PREFIX):
            raise ValueError("predicate must be an IRI")
        return term

    def obj(iri: str | None, label: str | None, lexical: str | None,
            datatype: str | None, language: str | None) -> Term:
        if lexical is None:
            return resource(iri, label)
        if datatype is None:
            return Literal(unescape(lexical), language=language)
        return Literal(unescape(lexical), check(datatype))

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        m = _LINE_RE.fullmatch(line)
        try:
            if m is None:
                _refuse(line, (resource, predicate, obj))
            si, sb, pi, pb, *o = m.groups()
            triple = Triple(resource(si, sb), predicate(pi, pb), obj(*o))
        except ValueError as e:
            raise NTriplesError(str(e), line_no) from None
        yield triple


def _refuse(line: str, builders: tuple[Callable, ...]) -> NoReturn:
    """Raise ValueError saying why _LINE_RE refused *line*: read its parts
    in order, each built as it is read, and report the first fault."""
    pos = 0
    for slot, (part, build) in enumerate(zip(_PARTS, builders)):
        pos = _SPACE_RE.match(line, pos).end()
        m = part.match(line, pos)
        if m is None:
            if slot == 2 and line.startswith('"', pos):
                raise ValueError("unterminated literal")
            raise ValueError(f"expected IRI or blank node at column {pos + 1}")
        build(*m.groups())
        pos = m.end()
    if m.lastindex == 3 and line.startswith("^^", pos):  # a bare literal
        raise ValueError("expected datatype IRI after ^^")
    pos = _SPACE_RE.match(line, pos).end()
    if not line.startswith(".", pos):
        raise ValueError("expected terminating '.'")
    raise ValueError("trailing content after '.'")


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
