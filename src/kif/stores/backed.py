"""Stores answered by compiled SPARQL-subset queries.

RdfStore evaluates the compiled queries over an embedded graph; SparqlStore
sends the same queries to an HTTP endpoint and decodes SPARQL results JSON.
Both share one pipeline: compile filter plans, page through candidates,
read the statement nodes they mention, and reassemble statements and
annotations with the codec. The filter hook only yields candidate
statements; Store.filter drops repeats and stops at the limit, and because
every stage is lazy no query runs past it.

With an entity as subject, the candidate query also returns the triples of
its statement nodes (a folded plan, codec.compile_full_plan), so only the
nodes these link to are fetched. Read in one page each, the operations on
an entity send these queries:

- filter or count, property bound: the candidate query, then the truthy
  query; the no-value statements come from the candidate rows (2);
- filter or count, property unbound: the candidate query, the truthy query
  and the no-value query, which also finds no-value nodes without a rank
  (3);
- contains: the candidate query for the statement's value, then the truthy
  query unless the first found it (1 or 2); for a no-value statement, the
  no-value query (1);
- get_annotations: per statement, the candidate query (1);
- get_descriptor: one query per 50 entities for labels, descriptions and
  aliases together (1).

Each adds one node fetch per level of linked nodes it reads: the deep value
nodes for filter, count and contains; for get_annotations, the deep value,
qualifier value and reference nodes, then the reference value nodes. A
scan (no subject, or a snak fingerprint), and a filter on an entity that
constrains the value but not the property, keep the plain candidate query
and fetch their statement nodes in batches of 50. The candidate query of
a no-value statement's annotations reads only the nodes typed as its
no-value statements.

One generator, QueryBackedStore._statements, turns candidate statement
nodes into statements for every operation that reads them; it logs the
codec's diagnostics at WARNING, a link to a node with no value of the
link's property included.

Every query, here and in the mapper store, runs through one path:
PagedStore.select_all pages it with LIMIT/OFFSET windows and caches the
pages per handle in a bounded LRU, so results are identical with the cache
on or off except for request counts. A handle counts its requests
(request_count) and the wall time they spent in HTTP (request_seconds).
"""

from __future__ import annotations

import http.client
import json
import logging
import socket
import threading
import time
import urllib.parse
import weakref
from itertools import chain, islice
from typing import Iterable, Iterator

from .. import codec
from .. import model as m
from .. import namespaces as ns
from ..lru import Lru
from ..namespaces import WIKIDATA
from ..rdf.bgp import match_bgp
from ..rdf.ntriples import parse_ntriples
from ..rdf.server import http_number, keeps_alive, read_header_fields, read_line
from ..rdf.sparql import SelectQuery, serialize_query
from ..rdf.terms import Graph, IriTerm, Literal, Term, Triple, term_key
from .base import Store, StoreOptions, TransportError, claim_pattern

logger = logging.getLogger(__name__)

Row = dict[str, Term]

_NODE_CHUNK = 50
_PAGE_CACHE_SIZE = 1024
_READ_PIECE = 1 << 20     # bytes read from a response body at once

def _local(term: Term | None, prefix: str) -> str | None:
    return WIKIDATA.local(term.value, prefix) if isinstance(term, IriTerm) else None


def _add_triple(into: Graph, s: Term | None, p: Term | None, o: Term | None) -> None:
    """Add a node triple read from a result row, if the row binds one."""
    if isinstance(s, IriTerm) and isinstance(p, IriTerm) and o is not None:
        into.add(Triple(s, p, o))


def _links_context(predicate: str, deep_only: bool) -> bool:
    """Whether a statement-context fetch follows *predicate* to its object."""
    if WIKIDATA.local(predicate, "psv"):
        return True
    return not deep_only and (predicate == ns.PROV_WAS_DERIVED_FROM
                              or bool(WIKIDATA.local(predicate, "pqv")
                                      or WIKIDATA.local(predicate, "prv")))


class GraphBackend:
    """Evaluates queries over an embedded graph."""

    request_seconds = 0.0                 # no time on a network

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.request_count = 0

    def select(self, query: SelectQuery) -> list[Row]:
        self.request_count += 1
        return match_bgp(self.graph, query)

    def describe(self) -> str:
        return f"graph({len(self.graph)} triples)"

    def close(self) -> None:
        pass


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


def _close_all(conns: dict, lock: threading.Lock) -> None:
    with lock:
        for conn in conns.values():
            conn.close()
        conns.clear()


class _Connection:
    """A kept-alive connection: http.client opens it (address, TLS,
    timeout); requests go out through its socket, and responses are read
    from a buffered reader over that socket."""

    def __init__(self, opened: http.client.HTTPConnection) -> None:
        self.opened = opened
        self.rfile = opened.sock.makefile("rb")
        self.answered = False             # has a response been read from it

    def send(self, request: bytes) -> bytes:
        """Send *request*; the status line of the answer, or b"" if the
        peer closed or reset the connection before one arrived."""
        try:
            self.opened.sock.sendall(request)
            return read_line(self.rfile)
        except ConnectionError:           # a timeout is not a ConnectionError
            return b""

    def close(self) -> None:
        self.rfile.close()
        self.opened.close()


def _read_response(rfile, status_line: bytes) -> tuple[int, bytes, bool]:
    """The status and body of the response whose status line is
    *status_line*, and whether the connection stays open after it."""
    while True:
        words = status_line.decode("latin-1").split(None, 2)
        if (len(words) < 2 or not words[0].startswith("HTTP/1.")
                or len(words[1]) != 3 or not words[1].isdecimal()):
            raise http.client.BadStatusLine(repr(status_line[:100]))
        fields = read_header_fields(rfile)
        if words[1] >= "200":
            break
        status_line = read_line(rfile)   # after an interim 1xx response
    status, keep_alive = int(words[1]), keeps_alive(words[0], fields)
    if "chunked" in fields.get("transfer-encoding", "").lower():
        return status, _read_chunked(rfile), keep_alive
    length = fields.get("content-length")
    if length is None:
        return status, rfile.read(), False
    size = http_number(length)
    if size is None:
        raise http.client.HTTPException(f"invalid Content-Length {length[:100]!r}")
    return status, _read_exactly(rfile, size), keep_alive


def _read_exactly(rfile, size: int) -> bytes:
    """*size* bytes of *rfile*, read in pieces of at most _READ_PIECE, so
    memory grows with what arrives, not with what the peer announced; an
    end of stream first raises IncompleteRead."""
    pieces = []
    while size:
        piece = rfile.read(min(size, _READ_PIECE))
        if not piece:
            raise http.client.IncompleteRead(b"".join(pieces), size)
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def _read_chunked(rfile) -> bytes:
    chunks = []
    while True:
        size = http_number(read_line(rfile).split(b";", 1)[0].strip().decode("latin-1"), 16)
        if size is None:
            raise http.client.IncompleteRead(b"".join(chunks))
        if size == 0:
            break
        chunks.append(_read_exactly(rfile, size + 2)[:size])   # and its CRLF
    while read_line(rfile) not in (b"\r\n", b"\n", b""):
        pass                              # trailer fields
    return b"".join(chunks)


class HttpBackend:
    """Sends queries to a SPARQL-protocol endpoint over HTTP POST.

    Connections are persistent (one keep-alive connection per thread), so a
    paging store does not burn a TCP handshake per request. close() closes
    every one of them, on whichever thread it was opened; so does garbage
    collection of the backend. The connection of a thread that has ended is
    closed when another thread opens one.

    http.client opens the connections (TLS, timeout); the messages are
    this class's own. Each request leaves in one write. A response body is
    delimited by its Content-Length, by chunked transfer coding, or by the
    close of the connection. The connection is closed after a response
    with ``Connection: close``, after an HTTP/1.0 response without
    ``Connection: keep-alive``, and when a response cannot be read.
    Interim 1xx responses are skipped. A status line or header line over
    65536 bytes, more than 100 headers, a malformed status line or a short
    body is a TransportError. A body is read in pieces of at most 1 MiB, so
    a size the peer announces but never sends ends as a short body. A
    query is sent again, once and on a new connection, only when a
    kept-alive connection that has answered before is closed or reset
    before a status line arrives; a timeout is never retried.
    """

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        split = urllib.parse.urlsplit(url)
        if split.scheme not in ("http", "https") or not split.netloc:
            raise ValueError(f"not an endpoint URL: {url!r}")
        self.url = url
        self.timeout = timeout
        # The requests select sent and their wall time; exact while one
        # thread at a time queries the handle.
        self.request_count = 0
        self.request_seconds = 0.0
        self._scheme = split.scheme
        self._netloc = split.netloc
        path = split.path or "/"
        if split.query:
            path += "?" + split.query
        if not (path.isascii() and path.isprintable()) or " " in path:
            raise ValueError(f"not an endpoint URL: {url!r}")
        self._head = (f"POST {path} HTTP/1.1\r\nHost: {split.netloc}\r\n"
                      "Content-Type: application/sparql-query\r\n"
                      "Accept: application/sparql-results+json\r\n"
                      "Accept-Encoding: identity\r\n"
                      "Content-Length: ").encode("ascii")
        self._local = threading.local()
        self._open: dict[threading.Thread, _Connection] = {}
        self._open_lock = threading.Lock()
        weakref.finalize(self, _close_all, self._open, self._open_lock)

    def close(self) -> None:
        """Close every connection; a later query opens a new one."""
        self._local = threading.local()
        _close_all(self._open, self._open_lock)

    def _connection(self) -> _Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            factory = (http.client.HTTPSConnection if self._scheme == "https"
                       else http.client.HTTPConnection)
            opened = factory(self._netloc, timeout=self.timeout)
            opened.connect()
            opened.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(opened)
            with self._open_lock:
                for thread in [t for t in self._open if not t.is_alive()]:
                    self._open.pop(thread).close()
                self._open[threading.current_thread()] = conn
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            with self._open_lock:
                self._open.pop(threading.current_thread(), None)
            self._local.conn = None

    def _round_trip(self, body: bytes) -> tuple[int, bytes]:
        request = self._head + b"%d\r\n\r\n" % len(body) + body
        conn = self._connection()
        try:
            status_line = conn.send(request)
            if not status_line and conn.answered:
                # The peer closed the idle kept-alive connection.
                self._drop_connection()
                conn = self._connection()
                status_line = conn.send(request)
            if not status_line:
                raise http.client.RemoteDisconnected(
                    "connection closed without a response")
            status, payload, keep_alive = _read_response(conn.rfile, status_line)
        except BaseException:
            self._drop_connection()
            raise
        if keep_alive:
            conn.answered = True
        else:
            self._drop_connection()
        return status, payload

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
            self.request_seconds += time.perf_counter() - started
        if status != 200:
            snippet = payload[:500].decode("utf-8", "replace")
            raise TransportError(self.url, f"HTTP {status}: {snippet}")
        try:
            return decode_results_json(json.loads(payload))
        except (ValueError, AttributeError) as e:
            raise TransportError(self.url, f"bad results payload: {e}") from None

    def describe(self) -> str:
        return self.url


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
        self._cache = Lru(_PAGE_CACHE_SIZE)

    @property
    def request_count(self) -> int:
        return self._backend.request_count

    @property
    def request_seconds(self) -> float:
        """Wall time spent in HTTP requests to the endpoint; 0 over a graph."""
        return self._backend.request_seconds

    def close(self) -> None:
        self._backend.close()

    def select_all(self, query: SelectQuery) -> Iterator[Row]:
        """All rows of *query*, fetched lazily in LIMIT/OFFSET pages; the
        page cache is keyed by the paged query itself."""
        size = self.options.page_size
        offset = 0
        while True:
            paged = query.with_page(size, offset)
            page = self._cache.get(paged) if self.options.cache_enabled else None
            if page is None:
                page = self._backend.select(paged)
                if self.options.cache_enabled:
                    self._cache.put(paged, page)
            yield from page
            if len(page) < size:
                return
            offset += size


class QueryBackedStore(PagedStore):
    """Shared machinery of RdfStore and SparqlStore."""

    def _warn(self, diagnostics: list[str]) -> None:
        """Log what the codec reported while assembling, then forget it."""
        for message in diagnostics:
            logger.warning("%s: %s", self._backend.describe(), message)
        diagnostics.clear()

    # -- node fetching and assembly ---------------------------------------------

    def _fetch_nodes(self, nodes: Iterable[IriTerm], into: Graph) -> None:
        todo = sorted(set(nodes), key=term_key)
        for i in range(0, len(todo), _NODE_CHUNK):
            chunk = todo[i:i + _NODE_CHUNK]
            for row in self.select_all(codec.node_fetch_query(chunk)):
                _add_triple(into, row.get("w"), row.get("p"), row.get("o"))

    def _fetch_statement_context(self, node_graph: Graph, wds_nodes: Iterable[IriTerm],
                                 deep_only: bool) -> None:
        """Fetch into *node_graph*, which holds the triples of the statement
        nodes *wds_nodes*, the nodes they link to: deep value nodes always,
        qualifier and reference nodes unless *deep_only*."""
        fetched = set(wds_nodes)
        frontier = fetched
        while True:
            # Subtracting what is fetched ends the loop on cyclic graphs.
            frontier = {t.object for node in frontier for t in node_graph.match(s=node)
                        if isinstance(t.object, IriTerm)
                        and _links_context(t.predicate.value, deep_only)} - fetched
            if not frontier:
                return
            self._fetch_nodes(frontier, node_graph)
            fetched |= frontier

    # -- filter pipeline ----------------------------------------------------------

    def _full_candidates(self, plan: codec.FilterPlan, node_graph: Graph | None = None
                         ) -> Iterator[tuple[IriTerm, IriTerm, str]]:
        """(subject, statement node, property local) rows of a full-shape plan;
        the node triples of a folded plan's rows go into *node_graph*."""
        seen: set[tuple] = set()
        for row in self.select_all(plan.query):
            subject = plan.subject_term or row.get("s")
            wds = row.get("w")
            if not isinstance(subject, IriTerm) or not isinstance(wds, IriTerm):
                continue
            if plan.folded:
                _add_triple(node_graph, wds, row.get("q"), row.get("o"))
            plocal = plan.property_local
            if plocal is None:
                # The link and the value (or no-value marker) predicates must
                # name the same property; a 'node' row has no value predicate,
                # and _statements checks the value on the node's triples.
                plocal = _local(row.get("p"), "p")
                other = (_local(row.get("n"), "wdno") if plan.shape == "novalue"
                         else _local(row.get("q"), "ps") if plan.shape == "full"
                         else plocal)
                if not plocal or plocal != other:
                    continue
            key = (subject.value, wds.value, plocal)
            if key not in seen:
                seen.add(key)
                yield subject, wds, plocal

    def _statements(self, plan: codec.FilterPlan, deep_only: bool
                    ) -> Iterator[tuple[m.Statement, IriTerm, str, Graph]]:
        """The statements the candidate nodes of *plan* carry, each with its
        statement node, property local and the graph of its batch's nodes
        (the statement nodes and the nodes these link to); the codec's
        diagnostics are logged as they arise. A folded plan is one batch,
        read to its last page before anything is assembled, so its answer
        cannot depend on how its rows fall into pages; a scan streams
        batches of _NODE_CHUNK candidates and fetches their nodes."""
        if plan.folded:
            node_graph = Graph()
            batches = [list(self._full_candidates(plan, node_graph))]
        else:
            candidates = self._full_candidates(plan)
            batches = iter(lambda: list(islice(candidates, _NODE_CHUNK)), [])
        diagnostics: list[str] = []
        for batch in batches:
            wds_nodes = [wds for _, wds, _ in batch]
            if not plan.folded:
                node_graph = Graph()
                self._fetch_nodes(wds_nodes, node_graph)
            self._fetch_statement_context(node_graph, wds_nodes, deep_only)
            for subject, wds, plocal in batch:
                snak = codec.assemble_main_snak(node_graph, wds, plocal, diagnostics)
                self._warn(diagnostics)
                if snak is not None:
                    yield (m.Statement(codec.entity_from_iri(subject.value), snak),
                           wds, plocal, node_graph)

    def _filter(self, pattern: m.FilterPattern,
                limit: int | None) -> Iterator[m.Statement]:
        return self._candidates(pattern, None)

    def _candidates(self, pattern: m.FilterPattern,
                    object_term: Term | None) -> Iterator[m.Statement]:
        """Candidate statements of *pattern*, from three lazily chained
        stages; each stage compiles its plan only when it starts."""
        kinds = pattern.snak_kinds
        covered: set[tuple] = set()
        no_value = (m.SnakKind.NO_VALUE in kinds and object_term is None
                    and pattern.value is None)
        # With an entity subject and the property bound, the statement-node
        # plan reads every node its links reach (compile_full_plan), so the
        # reified stage collects the no-value statements for the last stage.
        no_values: list[m.Statement] | None = None
        stages = []
        if m.SnakKind.VALUE in kinds or m.SnakKind.SOME_VALUE in kinds:
            if (no_value and pattern.property is not None
                    and isinstance(pattern.subject, m.EntityFp)):
                no_values = []
            stages += [self._reified(pattern, object_term, covered, no_values),
                       self._truthy_only(pattern, object_term, covered)]
        if no_value:
            # A list iterator reads the list as it is when the stage starts.
            stages.append(self._no_value(pattern) if no_values is None else iter(no_values))
        return (stmt for stmt in chain.from_iterable(stages)
                if m.snak_kind(stmt.snak) in kinds)

    def _reified(self, pattern: m.FilterPattern, object_term: Term | None,
                 covered: set[tuple],
                 no_values: list[m.Statement] | None) -> Iterator[m.Statement]:
        """Statements assembled from their statement nodes; adds the claims
        they carry to *covered* and, if *no_values* is a list, the no-value
        statements among the nodes to it."""
        plan = codec.compile_full_plan(pattern, object_term)
        for stmt, wds, plocal, node_graph in self._statements(plan, deep_only=True):
            if isinstance(stmt.snak, m.NoValueSnak):
                if no_values is not None:     # else the last stage yields it
                    no_values.append(stmt)
                continue
            for obj in node_graph.objects(wds, IriTerm(ns.PS + plocal)):
                covered.add(codec.claim_key(stmt.subject.iri.value, plocal, obj))
            yield stmt

    def _truthy_only(self, pattern: m.FilterPattern, object_term: Term | None,
                     covered: set[tuple]) -> Iterator[m.Statement]:
        """Claims carried only by a truthy triple, not by a statement node."""
        plan = codec.compile_truthy_plan(pattern, object_term)
        for row in self.select_all(plan.query):
            subject = plan.subject_term or row.get("s")
            obj = plan.object_term if plan.object_term is not None else row.get("v")
            plocal = plan.property_local or _local(row.get("p"), "wdt")
            if (not isinstance(subject, IriTerm) or obj is None or not plocal
                    or codec.claim_key(subject.value, plocal, obj) in covered):
                continue
            yield m.Statement(codec.entity_from_iri(subject.value),
                              codec.truthy_snak(m.Property(ns.WD + plocal), obj))

    def _no_value(self, pattern: m.FilterPattern) -> Iterator[m.Statement]:
        plan = codec.compile_novalue_plan(pattern)
        for subject, _, plocal in self._full_candidates(plan):
            yield m.Statement(codec.entity_from_iri(subject.value),
                              m.NoValueSnak(m.Property(ns.WD + plocal)))

    # -- contains -------------------------------------------------------------------

    def _contains(self, stmt: m.Statement) -> bool:
        return any(s == stmt for s in self._candidates(claim_pattern(stmt),
                                                         codec.statement_object(stmt)))

    # -- annotations -------------------------------------------------------------

    def _annotations(self, stmts):
        diagnostics: list[str] = []
        for stmt in stmts:
            plan = codec.compile_full_plan(claim_pattern(stmt), codec.statement_object(stmt))
            records = set()
            for found, wds, _, node_graph in self._statements(plan, deep_only=False):
                if found.snak == stmt.snak:
                    records.add(codec.assemble_annotation(node_graph, wds, diagnostics))
                    self._warn(diagnostics)
            yield stmt, frozenset(records)

    # -- descriptors -----------------------------------------------------------

    def _descriptors(self, entities, language):
        texts: dict[str, dict[str, list[m.TextValue]]] = {}
        unique = list({e.iri.value: e for e in entities}.values())
        for i in range(0, len(unique), _NODE_CHUNK):
            rows = self.select_all(codec.descriptor_query(unique[i:i + _NODE_CHUNK]))
            texts.update(codec.descriptor_texts(
                (row.get("e"), row.get("d"), row.get("x")) for row in rows))
        for entity in entities:
            kinds = texts.get(entity.iri.value, {})
            yield entity, codec.descriptor_from_texts(
                {which: [t for t in found if t.language == language]
                 for which, found in kinds.items()})


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
