"""Stores answered by compiled SPARQL-subset queries.

RdfStore evaluates the compiled queries over an embedded graph; SparqlStore
sends the same queries to an HTTP endpoint and decodes SPARQL results JSON.
Both share one pipeline: compile filter plans, page through candidates,
batch-fetch the reified nodes they mention, and reassemble statements and
annotations with the codec.

Every query, here and in the mapper store, runs through one path:
PagedStore.select_all pages it with LIMIT/OFFSET windows and caches the
pages per handle in a bounded LRU, so results are identical with the cache
on or off except for request counts.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse
from collections import OrderedDict
from contextlib import contextmanager
from itertools import islice
from typing import Iterable, Iterator

from .. import codec
from .. import model as m
from .. import namespaces as ns
from ..namespaces import WIKIDATA
from ..rdf.bgp import match_bgp
from ..rdf.ntriples import parse_ntriples
from ..rdf.sparql import SelectQuery, serialize_query
from ..rdf.terms import Graph, IriTerm, Literal, Term, term_key
from .base import Store, StoreOptions, TransportError

Row = dict[str, Term]

_NODE_CHUNK = 50
_EMPTY_GRAPH = Graph()

# Wall time spent inside HTTP requests, accumulated into every registered
# timer; the benchmark uses this to split API time from endpoint time.
_net_timers: list[list[float]] = []
_net_lock = threading.Lock()


@contextmanager
def network_timer():
    acc = [0.0]
    with _net_lock:
        _net_timers.append(acc)
    try:
        yield acc
    finally:
        with _net_lock:
            _net_timers.remove(acc)


def _record_network_time(elapsed: float) -> None:
    with _net_lock:
        for acc in _net_timers:
            acc[0] += elapsed


class GraphBackend:
    """Evaluates queries over an embedded graph."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.request_count = 0

    def select(self, query: SelectQuery) -> list[Row]:
        self.request_count += 1
        return match_bgp(self.graph, query)

    def describe(self) -> str:
        return f"graph({len(self.graph)} triples)"


def _term_from_json(obj: dict) -> Term | None:
    kind = obj.get("type")
    value = obj.get("value", "")
    if kind == "uri":
        return IriTerm(value)
    if kind in ("literal", "typed-literal"):
        lang = obj.get("xml:lang")
        if lang:
            return Literal(value, language=lang)
        return Literal(value, obj.get("datatype", ns.XSD_STRING))
    return None


def decode_results_json(payload: dict) -> list[Row]:
    """Decode the SPARQL results JSON format into term rows."""
    rows = []
    for binding in payload.get("results", {}).get("bindings", []):
        row: Row = {}
        for var, obj in binding.items():
            term = _term_from_json(obj)
            if term is not None:
                row[var] = term
        rows.append(row)
    return rows


class HttpBackend:
    """Sends queries to a SPARQL-protocol endpoint over HTTP POST.

    Connections are persistent (one keep-alive connection per thread), so a
    paging store does not burn a TCP handshake per request.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        split = urllib.parse.urlsplit(url)
        if split.scheme not in ("http", "https") or not split.netloc:
            raise ValueError(f"not an endpoint URL: {url!r}")
        self.url = url
        self.timeout = timeout
        self.request_count = 0
        self._scheme = split.scheme
        self._netloc = split.netloc
        self._path = split.path or "/"
        if split.query:
            self._path += "?" + split.query
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            factory = (http.client.HTTPSConnection if self._scheme == "https"
                       else http.client.HTTPConnection)
            conn = factory(self._netloc, timeout=self.timeout)
            conn.connect()
            conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def _round_trip(self, body: bytes) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/sparql-query",
                   "Accept": "application/sparql-results+json"}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request("POST", self._path, body, headers)
                response = conn.getresponse()
                payload = response.read()
                return response.status, payload
            except (http.client.HTTPException, ConnectionError, OSError):
                # A kept-alive connection may have been closed by the peer;
                # reconnect once before giving up.
                self._drop_connection()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def select(self, query: SelectQuery) -> list[Row]:
        body = serialize_query(query).encode("utf-8")
        self.request_count += 1
        started = time.perf_counter()
        try:
            status, payload = self._round_trip(body)
        except OSError as e:
            raise TransportError(self.url, str(e)) from None
        except http.client.HTTPException as e:
            raise TransportError(self.url, f"{type(e).__name__}: {e}") from None
        finally:
            _record_network_time(time.perf_counter() - started)
        if status != 200:
            snippet = payload[:500].decode("utf-8", "replace")
            raise TransportError(self.url, f"HTTP {status}: {snippet}")
        try:
            return decode_results_json(json.loads(payload))
        except (ValueError, AttributeError) as e:
            raise TransportError(self.url, f"bad results payload: {e}") from None

    def describe(self) -> str:
        return self.url


class _PageCache:
    """Bounded LRU of query pages, internally synchronized."""

    def __init__(self, maxsize: int = 1024) -> None:
        self._data: OrderedDict[str, list[Row]] = OrderedDict()
        self._maxsize = maxsize
        self._lock = threading.Lock()

    def get(self, key: str) -> list[Row] | None:
        with self._lock:
            if key not in self._data:
                return None
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key: str, rows: list[Row]) -> None:
        with self._lock:
            self._data[key] = rows
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)


class PagedStore(Store):
    """Store answered by SELECT queries against one backend, built from a
    Graph, an N-Triples file path, or an http(s) endpoint URL."""

    def __init__(self, source: Graph | str, options: StoreOptions | None = None) -> None:
        super().__init__(options)
        if isinstance(source, Graph):
            self._backend = GraphBackend(source)
        elif source.startswith(("http://", "https://")):
            self._backend = HttpBackend(source, self.options.request_timeout)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                self._backend = GraphBackend(parse_ntriples(fh))
        self._cache = _PageCache()

    @property
    def request_count(self) -> int:
        return self._backend.request_count

    def select_all(self, query: SelectQuery) -> Iterator[Row]:
        """All rows of *query*, fetched lazily in LIMIT/OFFSET pages."""
        size = self.options.page_size
        offset = 0
        while True:
            paged = query.with_page(size, offset)
            key = serialize_query(paged)
            page = self._cache.get(key) if self.options.cache_enabled else None
            if page is None:
                page = self._backend.select(paged)
                if self.options.cache_enabled:
                    self._cache.put(key, page)
            yield from page
            if len(page) < size:
                return
            offset += size


class QueryBackedStore(PagedStore):
    """Shared machinery of RdfStore and SparqlStore."""

    # -- node fetching and assembly ---------------------------------------------

    def _fetch_nodes(self, nodes: Iterable[IriTerm], into: Graph) -> None:
        from ..rdf.terms import Triple

        todo = sorted({n for n in nodes}, key=term_key)
        for i in range(0, len(todo), _NODE_CHUNK):
            chunk = todo[i:i + _NODE_CHUNK]
            for row in self.select_all(codec.node_fetch_query(chunk)):
                w, p, o = row.get("w"), row.get("p"), row.get("o")
                if isinstance(w, IriTerm) and isinstance(p, IriTerm) and o is not None:
                    into.add(Triple(w, p, o))

    def _fetch_statement_context(self, wds_nodes: list[IriTerm],
                                 deep_only: bool) -> Graph:
        """Fetch statement nodes plus the value/reference nodes they mention."""
        node_graph = Graph()
        self._fetch_nodes(wds_nodes, node_graph)
        second: set[IriTerm] = set()
        for wds in wds_nodes:
            for t in node_graph.match(s=wds):
                pred = t.predicate.value
                if not isinstance(t.object, IriTerm):
                    continue
                if WIKIDATA.local(pred, "psv"):
                    second.add(t.object)
                elif not deep_only and (
                        WIKIDATA.local(pred, "pqv")
                        or pred == ns.PROV_WAS_DERIVED_FROM):
                    second.add(t.object)
        if second:
            self._fetch_nodes(second, node_graph)
        if not deep_only:
            third: set[IriTerm] = set()
            for node in second:
                if not node.value.startswith(ns.WDREF):
                    continue
                for t in node_graph.match(s=node):
                    if isinstance(t.object, IriTerm) and WIKIDATA.local(
                            t.predicate.value, "prv"):
                        third.add(t.object)
            if third:
                self._fetch_nodes(third, node_graph)
        return node_graph

    # -- filter pipeline ----------------------------------------------------------

    def _full_candidates(self, plan: codec.FilterPlan) -> Iterator[tuple[IriTerm, IriTerm, str]]:
        """(subject, statement node, property local) rows of a full-shape plan."""
        seen: set[tuple] = set()
        for row in self.select_all(plan.query):
            if plan.subject_term is not None:
                subject = plan.subject_term
            else:
                subject = row.get("s")
            wds = row.get("w")
            if not isinstance(subject, IriTerm) or not isinstance(wds, IriTerm):
                continue
            if plan.property_local is not None:
                plocal = plan.property_local
            else:
                link = row.get("p")
                if plan.shape == "novalue":
                    other = row.get("n")
                    other_local = (WIKIDATA.local(other.value, "wdno")
                                   if isinstance(other, IriTerm) else None)
                else:
                    other = row.get("q")
                    other_local = (WIKIDATA.local(other.value, "ps")
                                   if isinstance(other, IriTerm) else None)
                link_local = (WIKIDATA.local(link.value, "p")
                              if isinstance(link, IriTerm) else None)
                if not link_local or link_local != other_local:
                    continue
                plocal = link_local
            key = (subject.value, wds.value, plocal)
            if key not in seen:
                seen.add(key)
                yield subject, wds, plocal

    def _filter(self, pattern: m.FilterPattern,
                limit: int | None) -> Iterator[m.Statement]:
        yield from self._filter_statements(pattern, limit, None)

    def _filter_statements(self, pattern: m.FilterPattern, limit: int | None,
                           object_term: Term | None) -> Iterator[m.Statement]:
        wants_value = m.SnakKind.VALUE in pattern.snak_kinds
        wants_some = m.SnakKind.SOME_VALUE in pattern.snak_kinds
        wants_none = m.SnakKind.NO_VALUE in pattern.snak_kinds
        seen: set[m.Statement] = set()
        emitted = 0
        covered: set[tuple] = set()

        def admit(stmt: m.Statement) -> bool:
            kind = m.snak_kind(stmt.snak)
            if kind is m.SnakKind.VALUE and not wants_value:
                return False
            if kind is m.SnakKind.SOME_VALUE and not wants_some:
                return False
            if kind is m.SnakKind.NO_VALUE and not wants_none:
                return False
            if stmt in seen:
                return False
            seen.add(stmt)
            return True

        diagnostics: list[str] = []
        if wants_value or wants_some:
            plan = codec.compile_full_plan(pattern, object_term)
            batch: list[tuple[IriTerm, IriTerm, str]] = []
            candidates = self._full_candidates(plan)
            while True:
                batch = list(islice(candidates, _NODE_CHUNK))
                if not batch:
                    break
                node_graph = self._fetch_statement_context(
                    [wds for _, wds, _ in batch], deep_only=True)
                for subject, wds, plocal in batch:
                    snak = codec.assemble_main_snak(node_graph, wds, plocal, diagnostics)
                    if snak is None:
                        continue
                    for obj in node_graph.objects(wds, IriTerm(ns.PS + plocal)):
                        covered.add((subject.value, plocal,
                                     term_key(codec.canonical_object_term(obj))))
                    stmt = m.Statement(codec.entity_from_iri(subject.value), snak)
                    if admit(stmt):
                        emitted += 1
                        yield stmt
                        if limit is not None and emitted >= limit:
                            return

            truthy = codec.compile_truthy_plan(pattern, object_term)
            for row in self.select_all(truthy.query):
                subject = truthy.subject_term or row.get("s")
                obj = truthy.object_term if truthy.object_term is not None else row.get("v")
                if not isinstance(subject, IriTerm) or obj is None:
                    continue
                if truthy.property_local is not None:
                    plocal = truthy.property_local
                else:
                    pred = row.get("p")
                    plocal = (WIKIDATA.local(pred.value, "wdt")
                              if isinstance(pred, IriTerm) else None)
                    if not plocal:
                        continue
                if (subject.value, plocal,
                        term_key(codec.canonical_object_term(obj))) in covered:
                    continue
                prop = m.Property(ns.WD + plocal)
                snak = codec._snak_from_object(prop, obj, _EMPTY_GRAPH, None, diagnostics)
                if snak is None:
                    continue
                stmt = m.Statement(codec.entity_from_iri(subject.value), snak)
                if admit(stmt):
                    emitted += 1
                    yield stmt
                    if limit is not None and emitted >= limit:
                        return

        if wants_none and object_term is None and pattern.value is None:
            plan = codec.compile_novalue_plan(pattern)
            for subject, wds, plocal in self._full_candidates(plan):
                stmt = m.Statement(codec.entity_from_iri(subject.value),
                                   m.NoValueSnak(m.Property(ns.WD + plocal)))
                if admit(stmt):
                    emitted += 1
                    yield stmt
                    if limit is not None and emitted >= limit:
                        return

    # -- contains -------------------------------------------------------------------

    def _contains(self, stmt: m.Statement) -> bool:
        kind = m.snak_kind(stmt.snak)
        pattern = m.FilterPattern(
            subject=m.EntityFp(stmt.subject),
            property=m.EntityFp(stmt.snak.property),
            snak_kinds=frozenset({kind}))
        object_term: Term | None = None
        if isinstance(stmt.snak, m.ValueSnak):
            object_term = m.simple_value(stmt.snak.value)
        elif isinstance(stmt.snak, m.SomeValueSnak):
            object_term = codec.statement_genid(stmt)
        return any(s == stmt
                   for s in self._filter_statements(pattern, None, object_term))

    # -- annotations -------------------------------------------------------------

    def _annotations(self, stmts):
        for stmt in stmts:
            yield stmt, self._annotations_of(stmt)

    def _annotations_of(self, stmt: m.Statement) -> frozenset[m.AnnotationRecord]:
        plan = codec.statement_resolution_plan(stmt)
        wds_nodes = []
        for row in self.select_all(plan.query):
            w = row.get("w")
            if isinstance(w, IriTerm):
                wds_nodes.append(w)
        if not wds_nodes:
            return frozenset()
        wds_nodes = sorted(set(wds_nodes), key=term_key)
        node_graph = self._fetch_statement_context(wds_nodes, deep_only=False)
        diagnostics: list[str] = []
        records = set()
        for wds in wds_nodes:
            snak = codec.assemble_main_snak(node_graph, wds, plan.property_local,
                                            diagnostics)
            if snak != stmt.snak:
                continue
            records.add(codec.assemble_annotation(node_graph, wds, diagnostics))
        return frozenset(records)

    # -- descriptors -----------------------------------------------------------

    def _descriptors(self, entities, language):
        texts: dict[str, dict[str, list[m.TextValue]]] = {}
        unique = []
        seen = set()
        for e in entities:
            if e.iri.value not in seen:
                seen.add(e.iri.value)
                unique.append(e)
        for i in range(0, len(unique), _NODE_CHUNK):
            chunk = unique[i:i + _NODE_CHUNK]
            for which in ("label", "description", "alias"):
                for row in self.select_all(codec.descriptor_query(chunk, which)):
                    e, x = row.get("e"), row.get("x")
                    if not isinstance(e, IriTerm) or not isinstance(x, Literal):
                        continue
                    text = m.TextValue(x.lexical, x.language or "en")
                    if text.language != language:
                        continue
                    texts.setdefault(e.value, {}).setdefault(which, []).append(text)
        for entity in entities:
            yield entity, codec.descriptor_from_texts(texts.get(entity.iri.value, {}))


class RdfStore(QueryBackedStore):
    """Store over an embedded graph (N-Triples file or Graph)."""

    @property
    def graph(self) -> Graph:
        return self._backend.graph


class SparqlStore(QueryBackedStore):
    """Store over a Wikidata-compatible SPARQL endpoint."""

    @property
    def endpoint(self) -> str:
        return self._backend.url
