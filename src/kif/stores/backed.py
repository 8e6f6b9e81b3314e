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

- filter or count, property bound or not: the candidate query, then the
  truthy query; the no-value statements come from the candidate rows (2);
- contains: Store._contains reads the filter of the statement's subject,
  property and snak kind until it meets the statement: the candidate
  query, then the truthy query unless a node carries the statement (1 or
  2); for a no-value statement, the candidate query of its no-value nodes
  (1);
- get_annotations: per statement, the candidate query as for contains,
  then the truthy probe unless a node carries the claim (1 or 2; 2 for a
  some-value statement; 1 for a no-value statement);
- get_descriptor: one query per 50 entities for labels, descriptions and
  aliases together (1); PagedStore reads them, so the mapper store's
  labels take the same query.

No point read puts a value into a query: it reads every statement node of
its subject and property, as filter does, and compares canonical values.

Each operation adds one node fetch per level of linked nodes it reads: the
deep value nodes for filter, count and contains; for get_annotations, the
deep value, qualifier value and reference nodes, then the reference value
nodes. A scan (no subject, or a snak fingerprint), and a filter on an
entity that constrains the value but not the property, keep the plain
candidate query and fetch their statement nodes in batches of 50; under a
limit, the first batch holds as many candidates as the limit (at most 50)
and each later one twice the one before, so a limited scan fetches about
the statement and deep value nodes its limit needs. Such a fetch returns
only the triples that decide a main snak: its query keeps
``?p`` under ``ps:`` (which holds ``psv:``) or ``rdf:type`` with one OR
filter, so ranks, qualifiers and references are not sent. The deep value
nodes a ``psv:`` link reaches are then fetched whole, even a node that the
batch also holds as a statement node, whose main-snak fetch left out its
value triples. The candidate query of a no-value statement's annotations
reads only the nodes typed as its no-value statements.

Every operation reads its statements through one generator,
QueryBackedStore._candidates, which feeds codec.read_statements, the
reader codec.decode uses too, with the candidate nodes and the truthy
triples; it logs the codec's diagnostics at WARNING, a link to a node with
no value of the link's property included. A filter reads its statement
nodes once: the no-value statements among them are yielded last, after the
claims only a truthy triple carries.

Every query, here and in the mapper store, runs through one path:
PagedStore.select_all pages it with LIMIT/OFFSET windows and caches the
pages per handle in an LRU bounded in rows (_PAGE_CACHE_ROWS, as many
pages as hold that many rows at the handle's page size), so results are
identical with the cache on or off except for request counts. A handle
counts its requests (request_count) and the wall time they spent in HTTP
(request_seconds).
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
from functools import partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping

from .. import codec
from .. import model as m
from .. import namespaces as ns
from ..lru import Lru
from ..namespaces import WIKIDATA
from ..rdf.bgp import match_bgp
from ..rdf.ntriples import parse_ntriples
from ..rdf.server import http_number, keeps_alive, read_exactly, read_header_fields, read_line
from ..rdf.sparql import SelectQuery, serialize_query
from ..rdf.terms import Graph, IriTerm, Literal, Term, Triple, term_key
from .base import DEFAULT_PAGE_SIZE, Store, StoreOptions, TransportError, claim_pattern

logger = logging.getLogger(__name__)

Row = dict[str, Term]

_NODE_CHUNK = 50
_PAGE_CACHE_ROWS = 1024 * DEFAULT_PAGE_SIZE    # rows the page cache holds

def _local(term: Term | None, prefix: str) -> str | None:
    return WIKIDATA.local(term.value, prefix) if isinstance(term, IriTerm) else None


def _node_triples(rows: Iterable[Row], predicate: str) -> Iterator[Triple]:
    """The node triples (?w, ?*predicate*, ?o) of the result rows that bind
    one."""
    for row in rows:
        s, p, o = row.get("w"), row.get(predicate), row.get("o")
        if isinstance(s, IriTerm) and isinstance(p, IriTerm) and o is not None:
            yield Triple(s, p, o)


def _batches(items: Iterator, limit: int | None) -> Iterator[list]:
    """Consecutive lists of *items*, _NODE_CHUNK long; under a *limit*, the
    first is *limit* long (at least 1, at most _NODE_CHUNK) and each later
    one twice the one before, up to _NODE_CHUNK."""
    size = _NODE_CHUNK if limit is None else min(max(limit, 1), _NODE_CHUNK)
    while batch := list(islice(items, size)):
        yield batch
        size = min(2 * size, _NODE_CHUNK)


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


def decode_results_json(payload: object, url: str = "") -> list[Row]:
    """Decode the SPARQL results JSON format into term rows, leaving blank
    nodes out; a document of another shape, or a term of unknown type, is a
    TransportError of the endpoint *url*.

    The rows hold one term object per distinct IRI, and per distinct
    literal, of the document, as ``ntriples.parse_ntriples`` does: the
    table that interns them lives for this call only, so no term is shared
    with the rows of another response."""
    def bad(why: str) -> TransportError:
        return TransportError(url, f"bad results payload: {why}")

    document = payload if isinstance(payload, dict) else {}
    head, results = document.get("head"), document.get("results")
    if not (isinstance(head, dict) and "vars" in head
            and isinstance(results, dict) and isinstance(results.get("bindings"), list)):
        raise bad("no head.vars or no results.bindings array")
    interned: dict[str | tuple, Term] = {}
    rows = []
    for binding in results["bindings"]:
        if not isinstance(binding, dict):
            raise bad("a binding that is not an object")
        row: Row = {}
        for var, obj in binding.items():
            term = obj if isinstance(obj, dict) else {}
            kind, value, lang = term.get("type"), term.get("value"), term.get("xml:lang")
            datatype = term.get("datatype", ns.XSD_STRING)
            if not (isinstance(value, str) and isinstance(datatype, str)
                    and (lang is None or isinstance(lang, str))):
                raise bad(f"the term of {var!r} is not an object of string members")
            if kind == "uri":
                iri = interned.get(value)
                if iri is None:
                    iri = interned[value] = IriTerm(value)
                row[var] = iri
            elif kind in ("literal", "typed-literal"):
                # A literal's key is a tuple and an IRI's a str, so they never
                # meet; a tag sets the datatype and is read in lower case.
                key = (value, None, lang.lower()) if lang else (value, datatype, None)
                literal = interned.get(key)
                if literal is None:
                    literal = interned[key] = (Literal(value, language=lang) if lang
                                               else Literal(value, datatype))
                row[var] = literal
            elif kind != "bnode":
                raise bad(f"a binding of type {kind!r}")
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
    return status, read_exactly(rfile, size), keep_alive


def _read_chunked(rfile) -> bytes:
    chunks = []
    while True:
        size = http_number(read_line(rfile).split(b";", 1)[0].strip().decode("latin-1"), 16)
        if size is None:
            raise http.client.IncompleteRead(b"".join(chunks))
        if size == 0:
            break
        chunks.append(read_exactly(rfile, size + 2)[:size])   # and its CRLF
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
        self._open: dict[threading.Thread, _Connection] = {}
        self._open_lock = threading.Lock()
        weakref.finalize(self, _close_all, self._open, self._open_lock)

    def close(self) -> None:
        """Close every connection; a later query opens a new one."""
        _close_all(self._open, self._open_lock)

    def _connection(self) -> _Connection:
        thread = threading.current_thread()
        with self._open_lock:
            conn = self._open.get(thread)
        if conn is None:
            factory = (http.client.HTTPSConnection if self._scheme == "https"
                       else http.client.HTTPConnection)
            opened = factory(self._netloc, timeout=self.timeout)
            opened.connect()
            opened.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(opened)
            with self._open_lock:
                for ended in [t for t in self._open if not t.is_alive()]:
                    self._open.pop(ended).close()
                self._open[thread] = conn
        return conn

    def _drop_connection(self) -> None:
        with self._open_lock:
            conn = self._open.pop(threading.current_thread(), None)
        if conn is not None:
            conn.close()

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
            return decode_results_json(json.loads(payload), self.url)
        except ValueError as e:
            raise TransportError(self.url, f"bad results payload: {e}") from None

    def describe(self) -> str:
        return self.url


class PagedStore(Store):
    """Store answered by SELECT queries against one backend, built from a
    Graph, an N-Triples file path, or an http(s) endpoint URL.

    Its descriptors are read with codec.descriptor_query, one query per
    _NODE_CHUNK entities. *entity_to_source* names an entity IRI in the
    source (None: the source cannot hold it), and *descriptor_kinds* maps
    each source predicate that holds descriptor texts to their kind."""

    def __init__(self, source: Graph | str, options: StoreOptions | None = None,
                 entity_to_source: Callable[[str], str | None] = lambda iri: iri,
                 descriptor_kinds: Mapping[str, str] = codec.DESCRIPTOR_KINDS) -> None:
        super().__init__(options)
        self._entity_to_source = entity_to_source
        self._descriptor_kinds = descriptor_kinds
        if isinstance(source, Graph):
            self._backend = GraphBackend(source)
        elif source.startswith(("http://", "https://")):
            self._backend = HttpBackend(source, self.options.request_timeout)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                self._backend = GraphBackend(parse_ntriples(fh))
        self._cache = Lru(max(1, _PAGE_CACHE_ROWS // self.options.page_size))

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

    def _descriptors(self, entities, language):
        kinds = self._descriptor_kinds
        sources = [self._entity_to_source(e.iri.value) for e in entities]
        # No query for a source that holds no descriptor texts.
        unique = list(dict.fromkeys(s for s in sources if s is not None)) if kinds else []
        texts: dict[str, dict[str, list[m.TextValue]]] = {}
        for i in range(0, len(unique), _NODE_CHUNK):
            rows = self.select_all(codec.descriptor_query(unique[i:i + _NODE_CHUNK], kinds))
            texts.update(codec.descriptor_texts(
                ((row.get("e"), row.get("d"), row.get("x")) for row in rows), kinds))
        for entity, source in zip(entities, sources):
            yield entity, codec.descriptor_from_texts(
                {which: [t for t in found if t.language == language]
                 for which, found in texts.get(source, {}).items()})


class QueryBackedStore(PagedStore):
    """Shared machinery of RdfStore and SparqlStore."""

    def _warn(self, diagnostics: list[str]) -> None:
        """Log what the codec reported while assembling, then forget it."""
        for message in diagnostics:
            logger.warning("%s: %s", self._backend.describe(), message)
        diagnostics.clear()

    # -- node fetching and assembly ---------------------------------------------

    def _fetch_nodes(self, nodes: Iterable[IriTerm], into: Graph,
                     main_snak: bool = False) -> None:
        """Fetch the triples of *nodes* into *into*: all of them, or with
        *main_snak* those that decide a statement's main snak."""
        todo = sorted(set(nodes), key=term_key)
        for i in range(0, len(todo), _NODE_CHUNK):
            chunk = todo[i:i + _NODE_CHUNK]
            into.update(_node_triples(
                self.select_all(codec.node_fetch_query(chunk, main_snak)), "p"))

    def _fetch_statement_context(self, node_graph: Graph, wds_nodes: Iterable[IriTerm],
                                 deep_only: bool, whole: bool) -> None:
        """Fetch into *node_graph*, which holds the triples of the statement
        nodes *wds_nodes* (all of them if *whole*), the nodes they link to:
        deep value nodes always, qualifier and reference nodes unless
        *deep_only*."""
        frontier = set(wds_nodes)
        fetched = set(frontier) if whole else set()
        while True:
            # Subtracting what is fetched ends the loop on cyclic graphs.
            frontier = {t.object for node in frontier for t in node_graph.match(s=node)
                        if isinstance(t.object, IriTerm)
                        and codec.links_context(t.predicate.value, deep_only)} - fetched
            if not frontier:
                return
            self._fetch_nodes(frontier, node_graph)
            fetched |= frontier

    # -- filter pipeline ----------------------------------------------------------

    def _full_candidates(self, plan: codec.FilterPlan, rows: Iterable[Row]
                         ) -> Iterator[tuple[IriTerm, IriTerm, str]]:
        """(subject, statement node, property local) of the result *rows* of
        a full-shape plan."""
        seen: set[tuple] = set()
        for row in rows:
            subject = plan.subject_term or row.get("s")
            wds = row.get("w")
            if not isinstance(subject, IriTerm) or not isinstance(wds, IriTerm):
                continue
            plocal = plan.property_local
            if plocal is None:
                # The link and the value predicates must name the same
                # property; a 'node' row has no value predicate, and
                # codec.read_statements checks the value on the node's triples.
                plocal = _local(row.get("p"), "p")
                if not plocal or (plan.shape == "full"
                                  and plocal != _local(row.get("q"), "ps")):
                    continue
            key = (subject.value, wds.value, plocal)
            if key not in seen:
                seen.add(key)
                yield subject, wds, plocal

    def _statements(self, plan: codec.FilterPlan, deep_only: bool,
                    limit: int | None = None
                    ) -> Iterator[tuple[Graph, list[tuple[IriTerm, IriTerm, str]]]]:
        """The candidate statement nodes of *plan* in batches, each the graph
        of its nodes (the statement nodes and the nodes these link to) and
        its links. A folded plan is one batch, read to its last page before
        anything is read from it, so its answer cannot depend on how its
        rows fall into pages; a scan streams batches of candidates, sized
        by *limit* (_batches), and fetches their nodes, if *deep_only* only
        the triples that decide their main snaks
        (codec.MAIN_SNAK_PREFIXES)."""
        if plan.folded:
            rows = list(self.select_all(plan.query))
            node_graph = Graph(_node_triples(rows, "q"))
            batches = [list(self._full_candidates(plan, rows))]
        else:
            batches = _batches(self._full_candidates(plan, self.select_all(plan.query)),
                               limit)
        for batch in batches:
            wds_nodes = [wds for _, wds, _ in batch]
            if not plan.folded:
                node_graph = Graph()
                self._fetch_nodes(wds_nodes, node_graph, deep_only)
            self._fetch_statement_context(node_graph, wds_nodes, deep_only, plan.folded)
            yield node_graph, batch

    def _filter(self, pattern: m.FilterPattern,
                limit: int | None) -> Iterator[m.Statement]:
        return (stmt for stmt, _, _ in self._candidates(pattern, None, True, limit))

    def _candidates(self, pattern: m.FilterPattern, claim: tuple | None,
                    deep_only: bool, limit: int | None = None
                    ) -> Iterator[tuple[m.Statement, Graph | None, IriTerm | None]]:
        """The statements of *pattern*, read by codec.read_statements from
        the candidate nodes (_statements, whose first batches *limit* sizes)
        and then the truthy triples (_truthy_only, which *claim* may spare);
        each plan is compiled only when its stage starts. The codec's
        diagnostics are logged as they arise."""
        diagnostics: list[str] = []
        batches = self._statements(codec.compile_full_plan(pattern), deep_only, limit)
        truthy = partial(self._truthy_only, pattern, claim)
        for found in codec.read_statements(batches, truthy, diagnostics):
            self._warn(diagnostics)
            if m.snak_kind(found[0].snak) in pattern.snak_kinds:
                yield found
        self._warn(diagnostics)

    def _truthy_only(self, pattern: m.FilterPattern, claim: tuple | None,
                     covered: set[tuple]) -> Iterator[tuple[IriTerm, str, Term]]:
        """(subject, property local, object) of the truthy triples of
        *pattern*; none for a no-value-only mask, and no query when
        *covered* holds *claim*, the claim_key of the one claim sought."""
        if pattern.snak_kinds == {m.SnakKind.NO_VALUE} or claim in covered:
            return
        plan = codec.compile_truthy_plan(pattern)
        for row in self.select_all(plan.query):
            subject = plan.subject_term or row.get("s")
            obj = plan.object_term if plan.object_term is not None else row.get("v")
            plocal = plan.property_local or _local(row.get("p"), "wdt")
            if isinstance(subject, IriTerm) and obj is not None and plocal:
                yield subject, plocal, obj

    # -- annotations -------------------------------------------------------------

    def _annotations(self, stmts):
        diagnostics: list[str] = []
        for stmt in stmts:
            # A some-value claim is sought by kind: a truthy triple may name
            # its unknown value otherwise than the nodes do.
            claim = (codec.claim_key(stmt.subject.iri.value,
                                     codec.property_local(stmt.snak.property),
                                     codec.statement_object(stmt))
                     if isinstance(stmt.snak, m.ValueSnak) else None)
            records = set()
            for found, node_graph, wds in self._candidates(claim_pattern(stmt), claim, False):
                if found == stmt:
                    records.add(m.AnnotationRecord() if wds is None else
                                codec.assemble_annotation(node_graph, wds, diagnostics))
                    self._warn(diagnostics)
            yield stmt, frozenset(records)


class RdfStore(QueryBackedStore):
    """Store over an embedded graph (N-Triples file or Graph)."""


class SparqlStore(QueryBackedStore):
    """Store over a Wikidata-compatible SPARQL endpoint."""
