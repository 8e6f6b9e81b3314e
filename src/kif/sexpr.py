"""S-expression reader and printer for the statement model.

The textual grammar (documented in docs/sexpr-grammar.md) covers values,
snaks, statements, reference/annotation records, descriptors, fingerprints,
and filter patterns. ``parse`` accepts both full IRI forms like
``(Item (IRI "http://..."))`` and compact prefixed tokens like ``wd:Q2270``;
``dumps`` produces canonical text whose re-parse yields an equal object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal

from . import codec
from . import model as m
from .namespaces import WIKIDATA, NamespaceError


class SexprError(ValueError):
    """Syntax or structure error with a 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}
# The text of a valid string: runs of plain characters between escapes.
_STRING_BODY = r'[^"\\]*(?:\\(?:[ntr"\\]|u[0-9a-fA-F]{4})[^"\\]*)*'
_STRING_BODY_RE = re.compile(_STRING_BODY)
# Each match skips whitespace, then reads one token; its group names the
# token's kind, and "quote" is an opening quote that starts no valid string.
_TOKEN_RE = re.compile(rf"""[ \t\r\n]*(?:
    (?P<lparen>\() | (?P<rparen>\))
  | (?P<string>"{_STRING_BODY}") | (?P<quote>")
  | (?P<number>[+-]?[0-9]+(?:\.[0-9]+)?)(?![^ \t\r\n()"])
  | (?P<symbol>[^ \t\r\n()"]+))""", re.VERBOSE)
# The escapes of a string that _TOKEN_RE has read, so each is valid.
_ESCAPE_RE = re.compile(r"\\(u....|.)")


def _unescape(e: re.Match) -> str:
    code = e.group(1)
    return _ESCAPES.get(code) or chr(int(code[1:], 16))


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of *offset*."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _string_error(text: str, quote: int) -> SexprError:
    """Why the quote at *quote* starts no valid string: it is unterminated,
    or the first backslash its text cannot take is a bad escape."""
    stop = _STRING_BODY_RE.match(text, quote + 1).end()
    if stop == len(text):
        return SexprError("unterminated string", *_position(text, quote))
    escape = text[stop + 1:stop + 2]
    message = ("unterminated escape" if not escape else "bad \\u escape"
               if escape == "u" else f"unknown escape \\{escape}")
    return SexprError(message, *_position(text, stop))


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, offset) of each token of *text*, a string's text
    unescaped, then ("eof", "", len(text)). A quote that starts no valid
    string raises SexprError."""
    tokens = []
    for tok in _TOKEN_RE.finditer(text):
        kind = tok.lastgroup
        if kind == "string":
            tokens.append((kind, _ESCAPE_RE.sub(_unescape, tok[kind][1:-1]), tok.start(kind)))
        elif kind == "quote":
            raise _string_error(text, tok.start(kind))
        else:
            tokens.append((kind, tok[kind], tok.start(kind)))
    tokens.append(("eof", "", len(text)))
    return tokens


# The symbols of ranks and snak kinds; each prints as the last of its names.
_SYMBOLS = {
    "Preferred": m.Rank.PREFERRED, "PreferredRank": m.Rank.PREFERRED,
    "Normal": m.Rank.NORMAL, "NormalRank": m.Rank.NORMAL,
    "Deprecated": m.Rank.DEPRECATED, "DeprecatedRank": m.Rank.DEPRECATED,
    "ValueSnak": m.SnakKind.VALUE, "SomeValueSnak": m.SnakKind.SOME_VALUE,
    "NoValueSnak": m.SnakKind.NO_VALUE,
}
_NAMES = {member: name for name, member in _SYMBOLS.items()}


class _Parser:
    """Reads the tokens of one text. Each argument of a form is read as a
    (value, offset) pair; an error works out its line and column from its
    offset."""

    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = tokenize(text)
        self._pos = 0

    def _peek(self) -> tuple[str, str, int]:
        return self._tokens[self._pos]

    def _next(self) -> tuple[str, str, int]:
        tok = self._tokens[self._pos]
        if tok[0] != "eof":
            self._pos += 1
        return tok

    def _fail(self, message: str, offset: int) -> SexprError:
        return SexprError(message, *_position(self._text, offset))

    def at_eof(self) -> bool:
        return self._peek()[0] == "eof"

    # A prefixed token is an entity when its local name starts with Q or P;
    # any other prefixed token denotes a plain IRI. Timestamps and the bare
    # snak-kind symbols of (SnakMask ...) are read here too.
    def _expand_symbol(self, symbol: str, at: int) -> object:
        if symbol == "*":
            return None
        if symbol in _SYMBOLS:
            return _SYMBOLS[symbol]
        if m._TS_RE.match(symbol):
            return symbol
        if ":" in symbol:
            try:
                iri = WIKIDATA.expand(symbol)
            except NamespaceError as e:
                raise self._fail(str(e), at) from None
            local = symbol.split(":", 1)[1]
            try:
                if local.startswith("Q"):
                    return m.Item(iri)
                if local.startswith("P"):
                    return m.Property(iri)
                return m.Iri(iri)
            except m.ModelError as e:
                raise self._fail(str(e), at) from None
        raise self._fail(f"unexpected symbol {symbol!r}", at)

    def parse_object(self) -> object:
        kind, lexeme, at = self._next()
        if kind == "symbol":
            return self._expand_symbol(lexeme, at)
        if kind == "lparen":
            return self._parse_form(at)
        if kind == "eof":
            raise self._fail("unexpected end of input", at)
        if kind == "rparen":
            raise self._fail("unexpected )", at)
        raise self._fail(f"unexpected {kind} {lexeme!r}", at)

    def _collect_args(self, head: str, open_at: int) -> list[tuple[object, int]]:
        args = []
        while True:
            kind, lexeme, at = self._peek()
            if kind == "rparen":
                self._pos += 1
                return args
            if kind == "eof":
                raise self._fail("missing ) for form opened here", open_at)
            if kind in ("number", "string"):
                self._pos += 1
                args.append((Decimal(lexeme) if kind == "number" else lexeme, at))
                continue
            val = self.parse_object()
            # A symbol reads as a str only if it is a timestamp.
            if isinstance(val, str) and (args or head != "Time"):
                raise self._fail(f"unexpected timestamp {lexeme!r} outside the first "
                                 "argument of (Time ...)", at)
            args.append((val, at))

    def _parse_form(self, open_at: int) -> object:
        head = self._next()
        kind, name, at = head
        if kind != "symbol":
            raise self._fail("form must start with a head symbol", at)
        args = self._collect_args(name, open_at)
        build = getattr(self, "_build_" + name, None)
        if build is None:
            raise self._fail(f"unknown head symbol {name!r}", at)
        try:
            return build(head, args)
        except m.ModelError as e:
            raise self._fail(str(e), open_at) from None

    # -- per-head builders: each takes the head token and the arguments -----

    def _arity(self, head: tuple[str, str, int], args: list, lo: int, hi: int | None) -> None:
        if len(args) < lo or (hi is not None and len(args) > hi):
            want = f"{lo}" if hi == lo else (f"{lo}+" if hi is None else f"{lo}..{hi}")
            raise self._fail(
                f"({head[1]} ...) takes {want} arguments, got {len(args)}", head[2])

    def _want(self, typ, val, at: int, what: str):
        if not isinstance(val, typ):
            raise self._fail(f"expected {what}, got {_show(val)}", at)
        return val

    def _all(self, typ, args: list, what: str) -> tuple:
        """The values of *args*, each of which must be a *typ*."""
        return tuple(self._want(typ, val, at, what) for val, at in args)

    def _members(self, head: str, val, at: int, what: str) -> tuple:
        """The members of *val*, which must be a (*head* ...) form."""
        if not (isinstance(val, _Form) and val.head == head):
            raise self._fail(f"expected {what}", at)
        return val.members

    def _want_int(self, val, at: int, what: str) -> int:
        d = self._want(Decimal, val, at, what)
        if d != d.to_integral_value():
            raise self._fail(f"expected integer {what}, got {d}", at)
        return int(d)

    def _build_IRI(self, head, args):
        self._arity(head, args, 1, 1)
        val, at = args[0]
        if isinstance(val, m.Iri):
            return val
        return m.Iri(self._want(str, val, at, "an IRI string"))

    def _entity_iri(self, head, args) -> m.Iri:
        self._arity(head, args, 1, 1)
        val, at = args[0]
        if isinstance(val, m.Iri):
            return val
        if isinstance(val, m.Entity):
            return val.iri
        raise self._fail("expected an (IRI ...) form or prefixed name", at)

    def _build_Item(self, head, args):
        return m.Item(self._entity_iri(head, args))

    def _build_Property(self, head, args):
        return m.Property(self._entity_iri(head, args))

    def _build_Text(self, head, args):
        self._arity(head, args, 1, 2)
        content = self._want(str, *args[0], "a string")
        if len(args) == 2:
            lang, at = args[1]
            if not isinstance(lang, str):
                raise self._fail("language tag must be a string", at)
            return m.TextValue(content, lang)
        return m.TextValue(content)

    def _build_String(self, head, args):
        self._arity(head, args, 1, 1)
        return m.StringValue(self._want(str, *args[0], "a string"))

    def _build_Quantity(self, head, args):
        self._arity(head, args, 1, 4)
        amount = self._want(Decimal, *args[0], "a decimal amount")
        rest = args[1:]
        unit = None
        if rest and (rest[0][0] is None or isinstance(rest[0][0], m.Item)):
            unit = rest[0][0]
            rest = rest[1:]
        bounds = [val if val is None else self._want(Decimal, val, at, "a decimal bound or *")
                  for val, at in rest]
        if len(bounds) > 2:
            raise self._fail("too many quantity bounds", head[2])
        bounds += [None] * (2 - len(bounds))
        return m.Quantity(amount, unit, bounds[0], bounds[1])

    def _build_Time(self, head, args):
        self._arity(head, args, 1, 4)
        ts_raw, ts_at = args[0]
        if isinstance(ts_raw, Decimal):
            raise self._fail("timestamp must be a date like 1903-01-01", ts_at)
        ts = m.Timestamp.parse(self._want(str, ts_raw, ts_at, "a timestamp"))
        rest = args[1:]
        ints: list[int | None] = []
        while rest and (rest[0][0] is None or isinstance(rest[0][0], Decimal)):
            val, at = rest.pop(0)
            ints.append(None if val is None else self._want_int(val, at, "field"))
            if len(ints) > 2:
                raise self._fail("too many integer fields in (Time ...)", head[2])
        calendar = None
        if rest:
            val, at = rest.pop(0)
            if val is not None and not isinstance(val, m.Item):
                raise self._fail(f"calendar must be an item, got {_show(val)}", at)
            calendar = val
        if rest:
            raise self._fail("trailing arguments in (Time ...)", head[2])
        ints += [None] * (2 - len(ints))
        precision = m.PRECISION_DAY if ints[0] is None else ints[0]
        timezone = 0 if ints[1] is None else ints[1]
        return m.TimeValue(ts, precision, timezone, calendar)

    def _snak_property(self, args) -> m.Property:
        return self._want(m.Property, *args[0], "a property")

    def _build_ValueSnak(self, head, args):
        self._arity(head, args, 2, 2)
        prop = self._snak_property(args)
        val, at = args[1]
        if isinstance(val, Decimal):
            val = m.Quantity(val)
        elif isinstance(val, str):
            val = m.StringValue(val)
        return m.ValueSnak(prop, self._want(m.Value, val, at, "a value"))

    def _build_SomeValueSnak(self, head, args):
        self._arity(head, args, 1, 1)
        return m.SomeValueSnak(self._snak_property(args))

    def _build_NoValueSnak(self, head, args):
        self._arity(head, args, 1, 1)
        return m.NoValueSnak(self._snak_property(args))

    def _build_Statement(self, head, args):
        self._arity(head, args, 2, 2)
        return m.Statement(self._want(m.Entity, *args[0], "an entity subject"),
                           self._want(m.Snak, *args[1], "a snak"))

    def _build_ReferenceRecord(self, head, args):
        self._arity(head, args, 1, None)
        return m.ReferenceRecord(self._all(m.Snak, args, "a snak in (ReferenceRecord ...)"))

    def _build_SnakSet(self, head, args):
        return _Form(head[1], self._all(m.Snak, args, "a snak in (SnakSet ...)"))

    def _build_ReferenceRecordSet(self, head, args):
        return _Form(head[1], self._all(m.ReferenceRecord, args, "a reference record"))

    def _build_AnnotationRecord(self, head, args):
        self._arity(head, args, 3, 3)
        quals = self._members("SnakSet", *args[0], "a (SnakSet ...) of qualifiers")
        refs = self._members("ReferenceRecordSet", *args[1], "a (ReferenceRecordSet ...)")
        rank = self._want(m.Rank, *args[2], "a rank")
        return m.AnnotationRecord(quals, refs, rank)

    def _build_AnnotationRecordSet(self, head, args):
        return _Form(head[1], self._all(m.AnnotationRecord, args, "an annotation record"))

    def _build_AnnotatedStatement(self, head, args):
        self._arity(head, args, 1, None)
        stmt = self._want(m.Statement, *args[0], "a statement")
        anns: list[m.AnnotationRecord] = []
        for val, at in args[1:]:
            if isinstance(val, m.AnnotationRecord):
                anns.append(val)
            elif isinstance(val, _Form) and val.head == "AnnotationRecordSet":
                anns.extend(val.members)
            else:
                raise self._fail(f"expected annotation records, got {_show(val)}", at)
        return m.AnnotatedStatement(stmt, anns)

    def _opt_text(self, val, at) -> m.TextValue | None:
        return None if val is None else self._want(m.TextValue, val, at, "(Text ...) or *")

    def _build_Descriptor(self, head, args):
        self._arity(head, args, 2, None)
        label = self._opt_text(*args[0])
        description = self._opt_text(*args[1])
        aliases = self._all(m.TextValue, args[2:], "a (Text ...) alias")
        return m.Descriptor(label, description, aliases)

    def _build_EntityDescriptor(self, head, args):
        self._arity(head, args, 2, 2)
        return m.EntityDescriptor(self._want(m.Entity, *args[0], "an entity"),
                                  self._want(m.Descriptor, *args[1], "a descriptor"))

    def _fingerprint(self, val, at) -> m.Fingerprint | None:
        if val is None:
            return None
        if isinstance(val, m.Entity):
            return m.EntityFp(val)
        if isinstance(val, m.Snak):
            return m.SnakFp(val)
        if isinstance(val, _Form) and val.head == "SnakSet":
            return m.SnakSetFp(val.members)
        raise self._fail(f"expected a fingerprint or *, got {_show(val)}", at)

    def _build_SnakMask(self, head, args):
        return _mask(self._all(m.SnakKind, args, "a snak kind symbol"))

    def _build_FilterPattern(self, head, args):
        self._arity(head, args, 3, 4)
        subject = self._fingerprint(*args[0])
        prop = self._fingerprint(*args[1])
        value = self._fingerprint(*args[2])
        kinds = m.ALL_SNAK_KINDS
        if len(args) == 4:
            kinds = frozenset(self._members("SnakMask", *args[3], "a (SnakMask ...)"))
        return m.FilterPattern(subject, prop, value, kinds)


@dataclass(frozen=True)
class _Form:
    """A (SnakMask ...), (SnakSet ...), (ReferenceRecordSet ...) or
    (AnnotationRecordSet ...) that the form around it, or _parse_top, reads."""
    head: str
    members: tuple


def _show(val: object) -> str:
    """*val* as an error message shows it: a string, a number or * by its
    repr, a snak kind by its symbol, anything else as its S-expression."""
    if val is None or isinstance(val, (str, Decimal)):
        return repr(val)
    if isinstance(val, m.SnakKind):
        return _NAMES[val]
    if isinstance(val, _Form):
        return "(" + " ".join([val.head, *map(_show, val.members)]) + ")"
    return dumps(val, compact=True)


def parse(text: str) -> object:
    """Parse exactly one object from *text*."""
    parser = _Parser(text)
    obj = _parse_top(parser)
    if not parser.at_eof():
        raise parser._fail("trailing content after object", parser._peek()[2])
    return obj


def parse_many(text: str) -> list[object]:
    """Parse a whole stream of objects (fixture files)."""
    parser = _Parser(text)
    out = []
    while not parser.at_eof():
        out.append(_parse_top(parser))
    return out


def _parse_top(parser: _Parser) -> object:
    """The next object: a model object, a SnakSetFp for a (SnakSet ...) or
    a tuple for a record set. Anything else is an error at its position."""
    kind, lexeme, at = parser._peek()
    obj = parser.parse_object()
    if isinstance(obj, _Form) and obj.head != "SnakMask":
        try:
            return m.SnakSetFp(obj.members) if obj.head == "SnakSet" else obj.members
        except m.ModelError as e:
            raise parser._fail(str(e), at) from None
    if obj is None or isinstance(obj, (str, m.SnakKind, _Form)):
        raise parser._fail(f"{lexeme if kind == 'symbol' else _show(obj)} is not an object", at)
    return obj


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_ESCAPE_TABLE = str.maketrans({
    **{chr(c): f"\\u{c:04x}" for c in range(0x20)},
    **{c: "\\" + e for e, c in _ESCAPES.items()}})


def _escape(s: str) -> str:
    return '"' + s.translate(_ESCAPE_TABLE) + '"'


def _mask(kinds) -> _Form:
    """The (SnakMask ...) of *kinds*: each once, ordered by value."""
    return _Form("SnakMask", tuple(sorted(set(kinds), key=lambda k: k.value)))


_COMPACT_LOCAL_OK = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-.")


def _compact_entity(e: m.Entity) -> str | None:
    if codec.wd_kind(e.iri.value) is not type(e):
        return None
    local = WIKIDATA.local(e.iri.value, "wd")
    return f"wd:{local}" if set(local) <= _COMPACT_LOCAL_OK else None


def dumps(x: object, compact: bool = False) -> str:
    """Canonical single-line serialization; sets print in canonical order.

    Compact mode abbreviates wd-namespace entities to prefixed tokens.
    """
    def go(x: object) -> str:
        if isinstance(x, m.Iri):
            return f'(IRI {_escape(x.value)})'
        if isinstance(x, m.Entity):
            if compact:
                short = _compact_entity(x)
                if short:
                    return short
            head = "Item" if isinstance(x, m.Item) else "Property"
            return f'({head} (IRI {_escape(x.iri.value)}))'
        if isinstance(x, m.TextValue):
            return f'(Text {_escape(x.content)} {_escape(x.language)})'
        if isinstance(x, m.StringValue):
            return f'(String {_escape(x.content)})'
        if isinstance(x, m.Quantity):
            parts = ["Quantity", m.decimal_lexical(x.amount)]
            if x.unit is not None:
                parts.append(go(x.unit))
            elif x.upper is not None and x.lower is None:
                parts.append("*")
            if x.lower is not None:
                parts.append(m.decimal_lexical(x.lower))
            elif x.upper is not None:
                parts.append("*")
            if x.upper is not None:
                parts.append(m.decimal_lexical(x.upper))
            return "(" + " ".join(parts) + ")"
        if isinstance(x, m.TimeValue):
            ts = (x.timestamp.date_lexical() if x.precision <= m.PRECISION_DAY
                  else x.timestamp.lexical())
            parts = ["Time", ts, str(x.precision), str(x.timezone)]
            if x.calendar is not None:
                parts.append(go(x.calendar))
            return "(" + " ".join(parts) + ")"
        if isinstance(x, m.ValueSnak):
            return f'(ValueSnak {go(x.property)} {go(x.value)})'
        if isinstance(x, m.SomeValueSnak):
            return f'(SomeValueSnak {go(x.property)})'
        if isinstance(x, m.NoValueSnak):
            return f'(NoValueSnak {go(x.property)})'
        if isinstance(x, m.Statement):
            return f'(Statement {go(x.subject)} {go(x.snak)})'
        if isinstance(x, m.ReferenceRecord):
            inner = " ".join(go(s) for s in x.snaks)
            return f'(ReferenceRecord {inner})'
        if isinstance(x, m.Rank):
            return _NAMES[x]
        if isinstance(x, m.AnnotationRecord):
            quals = " ".join(go(q) for q in x.qualifiers)
            refs = " ".join(go(r) for r in x.references)
            qs = f"(SnakSet {quals})" if quals else "(SnakSet)"
            rs = f"(ReferenceRecordSet {refs})" if refs else "(ReferenceRecordSet)"
            return f'(AnnotationRecord {qs} {rs} {go(x.rank)})'
        if isinstance(x, m.AnnotatedStatement):
            parts = ["AnnotatedStatement", go(x.statement)]
            parts.extend(go(a) for a in x.annotations)
            return "(" + " ".join(parts) + ")"
        if isinstance(x, m.Descriptor):
            parts = ["Descriptor",
                     go(x.label) if x.label else "*",
                     go(x.description) if x.description else "*"]
            parts.extend(go(a) for a in x.aliases)
            return "(" + " ".join(parts) + ")"
        if isinstance(x, m.EntityDescriptor):
            return f'(EntityDescriptor {go(x.entity)} {go(x.descriptor)})'
        if isinstance(x, m.EntityFp):
            return go(x.entity)
        if isinstance(x, m.SnakFp):
            return go(x.snak)
        if isinstance(x, m.SnakSetFp):
            return "(SnakSet " + " ".join(go(s) for s in x.snaks) + ")"
        if isinstance(x, m.FilterPattern):
            return ("(FilterPattern "
                    + (go(x.subject) if x.subject else "*") + " "
                    + (go(x.property) if x.property else "*") + " "
                    + (go(x.value) if x.value else "*") + " "
                    + _show(_mask(x.snak_kinds)) + ")")
        raise m.ModelError(f"cannot serialize {x!r}")

    return go(x)
