"""Command-line interface.

Stores are addressed by spec strings (``rdf:<file.nt>``, ``sparql:<url>``,
``memory:<fixture.sexp>``, ``mapper:<mapping.json>@<inner-spec>``); several
--store flags build a mixer in flag order. Exit codes: 0 success (including
zero results), 2 usage or query error, 3 transport error.
"""

from __future__ import annotations

import argparse
import csv
import json
import shlex
import signal
import sys
import threading
from contextlib import ExitStack, contextmanager
from typing import Iterator

from . import bench as bench_mod
from . import codec, fixtures
from . import model as m
from . import sexpr
from .decoder import answer, decode
from .mapper import MapperStore, MappingSpec
from .mixer import MixerChildError, MixerStore
from .rdf.ntriples import parse_ntriples, serialize_ntriples
from .rdf.server import serve
from .stores import (MemoryStore, RdfStore, SparqlStore, Store, StoreError,
                     StoreOptions, TransportError)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRANSPORT = 3


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# Store specs
# ---------------------------------------------------------------------------

def open_store(spec: str, options: StoreOptions) -> Store:
    kind, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise CliError(f"bad store spec {spec!r}; expected kind:argument")
    if kind == "sparql":
        return SparqlStore(rest, options)
    if kind == "rdf":
        return RdfStore(rest, options)
    if kind == "memory":
        pairs, descriptors = fixtures.load_fixture(rest)
        return MemoryStore(pairs, descriptors, options)
    if kind == "mapper":
        mapping_path, at, inner = rest.partition("@")
        if not at or not inner:
            raise CliError(
                f"bad mapper spec {spec!r}; expected mapper:<mapping.json>@<inner-spec>")
        spec_obj = MappingSpec.load(mapping_path)
        inner_kind, _, inner_rest = inner.partition(":")
        if inner_kind in ("sparql", "rdf") and inner_rest:
            return MapperStore(inner_rest, spec_obj, options)
        raise CliError(f"mapper inner store must be rdf: or sparql:, got {inner!r}")
    raise CliError(f"unknown store kind {kind!r} in {spec!r}")


@contextmanager
def opened_store(args: argparse.Namespace, cache: bool | None = None) -> Iterator[Store]:
    """The store of the --store specs of *args*, one store or a mixer; on
    exit it closes all it opened, also when a later spec failed."""
    if not args.store:
        raise CliError("at least one --store is required")
    with ExitStack() as opened:
        stores = [opened.enter_context(open_store(s, _options(args, cache))) for s in args.store]
        if len(stores) > 1 or args.parallel:
            stores = [opened.enter_context(
                MixerStore(stores, parallel=args.parallel, lenient=args.lenient))]
        yield stores[0]


# ---------------------------------------------------------------------------
# Pattern flags
# ---------------------------------------------------------------------------

def _parse_object(text: str, want: type, what: str):
    try:
        obj = sexpr.parse(text)
    except sexpr.SexprError as e:
        raise CliError(f"cannot parse {what} {text!r}: {e}") from None
    if not isinstance(obj, want):
        raise CliError(f"{what} must be a {want.__name__}, got {type(obj).__name__}")
    return obj


def add_pattern_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--subject", help="subject entity (compact S-expression)")
    parser.add_argument("--property", help="property entity")
    parser.add_argument("--value", help="value entity")
    parser.add_argument("--subject-snak", action="append", default=[],
                        help="snak fingerprint for the subject (repeatable)")
    parser.add_argument("--value-snak", action="append", default=[],
                        help="snak fingerprint for the value (repeatable)")
    parser.add_argument("--snak-kinds",
                        help="comma list of value,some-value,no-value")
    parser.add_argument("--limit", type=int, default=None)


def pattern_from_args(args: argparse.Namespace) -> m.FilterPattern:
    def entity_fp(text: str | None, what: str) -> m.Fingerprint | None:
        if text is None:
            return None
        return m.EntityFp(_parse_object(text, m.Entity, what))

    def snak_fp(texts: list[str], what: str) -> m.Fingerprint | None:
        if not texts:
            return None
        snaks = [_parse_object(t, m.Snak, what) for t in texts]
        return m.SnakFp(snaks[0]) if len(snaks) == 1 else m.SnakSetFp(snaks)

    if args.subject and args.subject_snak:
        raise CliError("--subject and --subject-snak are mutually exclusive")
    if args.value and args.value_snak:
        raise CliError("--value and --value-snak are mutually exclusive")
    kinds = m.ALL_SNAK_KINDS
    if args.snak_kinds:
        picked = set()
        for name in args.snak_kinds.split(","):
            name = name.strip()
            try:
                picked.add(m.SnakKind(name))
            except ValueError:
                raise CliError(f"unknown snak kind {name!r}") from None
        kinds = frozenset(picked)
    return m.FilterPattern(
        subject=entity_fp(args.subject, "subject") or snak_fp(args.subject_snak,
                                                              "subject snak"),
        property=entity_fp(args.property, "property"),
        value=entity_fp(args.value, "value") or snak_fp(args.value_snak, "value snak"),
        snak_kinds=kinds)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def value_to_plain(v: m.Value):
    if isinstance(v, m.Item):
        return {"type": "item", "iri": v.iri.value}
    if isinstance(v, m.Property):
        return {"type": "property", "iri": v.iri.value}
    if isinstance(v, m.Iri):
        return {"type": "iri", "value": v.value}
    if isinstance(v, m.TextValue):
        return {"type": "text", "content": v.content, "language": v.language}
    if isinstance(v, m.StringValue):
        return {"type": "string", "content": v.content}
    if isinstance(v, m.Quantity):
        out = {"type": "quantity", "amount": m.decimal_lexical(v.amount)}
        if v.unit:
            out["unit"] = v.unit.iri.value
        if v.lower is not None:
            out["lower"] = m.decimal_lexical(v.lower)
        if v.upper is not None:
            out["upper"] = m.decimal_lexical(v.upper)
        return out
    out = {"type": "time", "timestamp": v.timestamp.lexical(),
           "precision": v.precision, "timezone": v.timezone}
    if v.calendar:
        out["calendar"] = v.calendar.iri.value
    return out


def snak_to_plain(snak: m.Snak):
    plain = {"kind": m.snak_kind(snak).value, "property": snak.property.iri.value}
    if isinstance(snak, m.ValueSnak):
        plain["value"] = value_to_plain(snak.value)
    return plain


def statement_to_plain(stmt: m.Statement):
    return {"subject": value_to_plain(stmt.subject), "snak": snak_to_plain(stmt.snak)}


def annotation_to_plain(ann: m.AnnotationRecord):
    return {"qualifiers": [snak_to_plain(q) for q in ann.qualifiers],
            "references": [[snak_to_plain(s) for s in r.snaks]
                           for r in ann.references],
            "rank": ann.rank.value}


def descriptor_to_plain(desc: m.Descriptor):
    out = {}
    if desc.label:
        out["label"] = {"content": desc.label.content, "language": desc.label.language}
    if desc.description:
        out["description"] = {"content": desc.description.content,
                              "language": desc.description.language}
    out["aliases"] = [{"content": a.content, "language": a.language}
                      for a in desc.aliases]
    return out


def _print_statements(store: Store, statements: list[m.Statement],
                      args: argparse.Namespace, out) -> None:
    annotations: dict[m.Statement, frozenset[m.AnnotationRecord]] = {}
    if args.annotations:
        annotations = dict(store.get_annotations(statements))
    if args.format == "sexp":
        for stmt in statements:
            if args.annotations:
                records = sorted(annotations.get(stmt, frozenset()), key=m.canonical_key)
                print(sexpr.dumps(m.AnnotatedStatement(stmt, records), compact=True),
                      file=out)
            else:
                print(sexpr.dumps(stmt, compact=True), file=out)
    elif args.format == "json":
        rows = []
        for stmt in statements:
            row = statement_to_plain(stmt)
            if args.annotations:
                row["annotations"] = [
                    annotation_to_plain(a)
                    for a in sorted(annotations.get(stmt, frozenset()),
                                    key=m.canonical_key)]
            rows.append(row)
        json.dump(rows, out, indent=2)
        out.write("\n")
    else:  # ntriples
        pairs = []
        for stmt in statements:
            records = annotations.get(stmt) if args.annotations else None
            if records:
                pairs.extend((stmt, ann) for ann in sorted(records, key=m.canonical_key))
            else:
                pairs.append((stmt, m.AnnotationRecord()))
        out.write(serialize_ntriples(codec.encode_statements(pairs)))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_filter(args) -> int:
    with opened_store(args) as store:
        statements = list(store.filter(pattern_from_args(args), args.limit))
        _print_statements(store, statements, args, sys.stdout)
    return EXIT_OK


def cmd_count(args) -> int:
    with opened_store(args) as store:
        print(store.count(pattern_from_args(args)))
    return EXIT_OK


def cmd_annotations(args) -> int:
    statements = [_parse_object(t, m.Statement, "statement") for t in args.statement]
    with opened_store(args) as store:
        for stmt, records in store.get_annotations(statements):
            ordered = sorted(records, key=m.canonical_key)
            if args.format == "json":
                print(json.dumps({"statement": statement_to_plain(stmt),
                                  "annotations": [annotation_to_plain(a) for a in ordered]}))
            else:
                print(sexpr.dumps(m.AnnotatedStatement(stmt, ordered), compact=True))
    return EXIT_OK


def cmd_describe(args) -> int:
    entities = [_parse_object(t, m.Entity, "entity") for t in args.entity]
    with opened_store(args) as store:
        for entity, desc in store.get_descriptor(entities, args.language):
            if args.format == "json":
                print(json.dumps({"entity": value_to_plain(entity),
                                  "descriptor": descriptor_to_plain(desc)}))
            else:
                print(sexpr.dumps(m.EntityDescriptor(entity, desc), compact=True))
    return EXIT_OK


def cmd_serve(args) -> int:
    with open(args.graph, "r", encoding="utf-8") as fh:
        graph = parse_ntriples(fh)
    # SIGTERM stops the endpoint the way Ctrl-C does. A handler that only
    # raises takes no lock the interrupted main thread might hold.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        with serve(graph, args.port, args.host) as server:
            print(f"serving {len(graph)} triples at {server.url}", file=sys.stderr)
            threading.Event().wait()
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def cmd_load(args) -> int:
    if args.graph:
        with open(args.graph, "r", encoding="utf-8") as fh:
            graph = parse_ntriples(fh)
        print(f"{args.graph}: {len(graph)} triples")
        result = codec.decode(graph)
        print(f"statements: {len(result.statements)}, "
              f"descriptors: {len(result.descriptors)}")
        for diag in result.diagnostics:
            print(f"warning: {diag}", file=sys.stderr)
    if args.fixture:
        pairs, descriptors = fixtures.load_fixture(args.fixture)
        print(f"{args.fixture}: {len(pairs)} statement records, "
              f"{len(descriptors)} descriptors")
        if args.encode_to:
            if args.truthy:
                graph = codec.truthy_graph(pairs)
            else:
                graph = codec.encode_dataset(pairs, descriptors)
            with open(args.encode_to, "w", encoding="utf-8") as fh:
                fh.write(serialize_ntriples(graph))
            print(f"wrote {len(graph)} triples to {args.encode_to}")
    if not args.graph and not args.fixture:
        raise CliError("nothing to load; pass --graph or --fixture")
    return EXIT_OK


def cmd_decode_sparql(args) -> int:
    text = args.query if args.query else sys.stdin.read()
    decoded = decode(text)
    print(sexpr.dumps(decoded.pattern, compact=True))
    return EXIT_OK


def cmd_sparql(args) -> int:
    text = args.query if args.query else sys.stdin.read()
    with opened_store(args) as store:
        json.dump(answer(store, text), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


_LINE_PARSER = argparse.ArgumentParser(prog="query-line", add_help=False)
add_pattern_flags(_LINE_PARSER)


def parse_query_line(line: str) -> tuple[m.FilterPattern, int | None]:
    try:
        ns_args = _LINE_PARSER.parse_args(shlex.split(line))
    except SystemExit:
        raise CliError(f"bad query line: {line!r}") from None
    return pattern_from_args(ns_args), ns_args.limit


def cmd_bench(args) -> int:
    queries = []
    with open(args.queries, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            pattern, limit = parse_query_line(line)
            queries.append((str(i), pattern, limit))
    with opened_store(args, cache=False) as store:
        rows = bench_mod.run_benchmark(store, queries, args.runs)
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(bench_mod.CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_csv())
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_gen_queries(args) -> int:
    pairs, _ = fixtures.load_fixture(args.fixture)
    for line in bench_mod.generate_battery(pairs, args.count):
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _options(args, cache: bool | None = None) -> StoreOptions:
    kwargs = {}
    if getattr(args, "page_size", None) is not None:
        kwargs["page_size"] = args.page_size
    if getattr(args, "timeout", None) is not None:
        kwargs["request_timeout"] = args.timeout
    if cache is not None:
        kwargs["cache_enabled"] = cache
    return StoreOptions(**kwargs)


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", action="append", default=[],
                        help="store spec: rdf:<file.nt>, sparql:<url>, "
                             "memory:<fixture.sexp>, mapper:<mapping.json>@<inner>")
    parser.add_argument("--parallel", action="store_true",
                        help="dispatch mixer children concurrently")
    parser.add_argument("--lenient", action="store_true",
                        help="skip failing mixer children instead of failing")
    parser.add_argument("--page-size", type=int, default=None)
    parser.add_argument("--timeout", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kif",
        description="Query Wikidata-shaped statement stores: filter, annotate, "
                    "describe, serve, and benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="fetch statements matching a pattern")
    _add_store_flags(p)
    add_pattern_flags(p)
    p.add_argument("--format", choices=("sexp", "json", "ntriples"), default="sexp")
    p.add_argument("--annotations", action="store_true",
                   help="inline annotation records")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("count", help="count statements matching a pattern")
    _add_store_flags(p)
    add_pattern_flags(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("annotations", help="get annotation records of statements")
    _add_store_flags(p)
    p.add_argument("statement", nargs="+", help="statement S-expressions")
    p.add_argument("--format", choices=("sexp", "json"), default="sexp")
    p.set_defaults(func=cmd_annotations)

    p = sub.add_parser("describe", help="get labels/descriptions/aliases")
    _add_store_flags(p)
    p.add_argument("entity", nargs="+", help="entity S-expressions (e.g. wd:Q7286)")
    p.add_argument("--language", default="en")
    p.add_argument("--format", choices=("sexp", "json"), default="sexp")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("serve", help="serve an N-Triples graph as a SPARQL endpoint")
    p.add_argument("--graph", required=True)
    p.add_argument("--port", type=int, default=8384)
    p.add_argument("--host", default="127.0.0.1")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("load", help="inspect a graph or fixture; optionally encode it")
    p.add_argument("--graph")
    p.add_argument("--fixture")
    p.add_argument("--encode-to", help="write the fixture's RDF encoding here")
    p.add_argument("--truthy", action="store_true",
                   help="encode only the truthy level")
    p.set_defaults(func=cmd_load)

    p = sub.add_parser("decode-sparql",
                       help="print the filter pattern of a truthy SPARQL query")
    p.add_argument("--query", help="query text (default: stdin)")
    p.set_defaults(func=cmd_decode_sparql)

    p = sub.add_parser("sparql", help="answer a truthy SPARQL query over stores")
    _add_store_flags(p)
    p.add_argument("--query", help="query text (default: stdin)")
    p.set_defaults(func=cmd_sparql)

    p = sub.add_parser("bench", help="median filter timings over a query file")
    _add_store_flags(p)
    p.add_argument("--queries", required=True,
                   help="file with one filter-flag line per query")
    p.add_argument("--runs", type=int, default=30)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-queries",
                       help="generate a benchmark query battery from a fixture")
    p.add_argument("--fixture", required=True)
    p.add_argument("--count", type=int, default=53)
    p.set_defaults(func=cmd_gen_queries)

    return parser


# The package's reader, model and mapping errors are all ValueErrors.
_USAGE_ERRORS = (CliError, ValueError, OSError, StoreError)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TransportError as e:
        print(f"kif: transport error: {e}", file=sys.stderr)
        return EXIT_TRANSPORT
    except MixerChildError as e:
        root = e.error
        print(f"kif: {e}", file=sys.stderr)
        return EXIT_TRANSPORT if isinstance(root, TransportError) else EXIT_USAGE
    except _USAGE_ERRORS as e:
        print(f"kif: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
