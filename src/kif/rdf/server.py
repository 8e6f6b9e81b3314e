"""SPARQL-protocol HTTP endpoint over an immutable graph snapshot.

Supports GET with a ``query`` parameter and POST with an
``application/sparql-query`` body; answers SPARQL results JSON. Anything
outside the query subset yields HTTP 400 with a diagnostic.

The endpoint speaks this subset of HTTP/1.1, reading requests with its own
few lines of code and writing each response in one write:

- Connections are kept alive under HTTP/1.1. A request with
  ``Connection: close``, or an HTTP/1.0 request without
  ``Connection: keep-alive``, is answered and the connection closed.
- A POST body is delimited by its ``Content-Length``; an invalid one is
  answered with 400, one over 1 MiB with 413, and the connection closed.
  ``Expect: 100-continue`` is answered with an interim 100 before the body
  is read.
- A request line over 65536 bytes gets 414; a header line over 65536 bytes,
  or more than 100 header lines, gets 431; a malformed request line gets
  400, a version other than HTTP/1.x 505, a method other than GET and
  POST 501, and a POST of another content type 400. Each of these closes
  the connection. A query that cannot be read or evaluated gets 400 and
  keeps it.
- Each answered request is logged at DEBUG on ``kif.rdf.server``: method,
  status, rows returned and milliseconds spent.
"""

from __future__ import annotations

import http.client
import json
import logging
import re
import selectors
import socket
import socketserver
import threading
import time
from http import HTTPStatus
from urllib.parse import parse_qs, urlsplit

from .bgp import Binding, match_bgp
from .sparql import SparqlError, parse_query
from .terms import Graph, IriTerm, Term

logger = logging.getLogger(__name__)

RESULTS_JSON = "application/sparql-results+json"

def term_to_json(t: Term) -> dict:
    if isinstance(t, IriTerm):
        return {"type": "uri", "value": t.value}
    out: dict = {"type": "literal", "value": t.lexical}
    if t.language:
        out["xml:lang"] = t.language
    elif t.datatype != "http://www.w3.org/2001/XMLSchema#string":
        out["datatype"] = t.datatype
    return out


def results_to_json(variables: tuple[str, ...], rows: list[Binding]) -> dict:
    return {
        "head": {"vars": list(variables)},
        "results": {"bindings": [
            {v: term_to_json(row[v]) for v in variables if v in row}
            for row in rows
        ]},
    }


_MAX_LINE = 65536         # bytes in a request, status or header line
_MAX_HEADERS = 100
_MAX_BODY = 1 << 20       # bytes in a query body: 200 times the largest the stores send
_TEXT = "text/plain; charset=utf-8"


def read_line(rfile) -> bytes:
    """The next line of *rfile*, b"" at the end of the stream. A line over
    65536 bytes raises http.client.LineTooLong."""
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise http.client.LineTooLong("line")
    return line


def read_header_fields(rfile) -> dict[str, str]:
    """The header fields of an HTTP message by lower-cased name, read from
    *rfile* up to the empty line that ends them (or the end of the
    stream). A line over 65536 bytes raises http.client.LineTooLong,
    more than 100 fields http.client.HTTPException."""
    fields: dict[str, str] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = read_line(rfile)
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.decode("latin-1").partition(":")
        fields[name.strip().lower()] = value.strip()
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


# At most 18 decimal or 15 hex digits: below 2**63, so int() never meets its
# digit limit and a read of the size plus a chunk's CRLF still fits an index.
_NUMBER_RES = {10: re.compile("[0-9]{1,18}"), 16: re.compile("[0-9A-Fa-f]{1,15}")}


def http_number(text: str, base: int = 10) -> int | None:
    """The value of *text*, a Content-Length (base 10) or a chunk size (base
    16); None unless it is ASCII digits only, hex digits in base 16, and at
    most 18 (15 in base 16) of them. int() alone would also take a sign,
    underscores, inner blanks or a 0x."""
    return int(text, base) if _NUMBER_RES[base].fullmatch(text) else None


def keeps_alive(version: str, fields: dict[str, str]) -> bool:
    """Whether the connection stays open after a message of HTTP *version*
    with header *fields*: under HTTP/1.0 only with keep-alive, under
    HTTP/1.1 unless closed."""
    tokens = {t.strip() for t in fields.get("connection", "").lower().split(",")}
    if version == "HTTP/1.0":
        return "keep-alive" in tokens
    return "close" not in tokens


class _Refusal(Exception):
    """A request answered with an error status, after which the
    connection closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(socketserver.StreamRequestHandler):
    """Serves the requests of one client connection until it closes.
    self.server is the _HttpServer; the graph hangs off it. Nagle is off,
    so a response is not held back waiting for the ACK of the last one."""

    disable_nagle_algorithm = True

    def handle(self) -> None:
        while True:
            try:
                line: bytes | None = read_line(self.rfile)
            except http.client.LineTooLong:
                line = None               # answered with 414
            if line == b"":
                return                    # the client closed
            started = time.perf_counter()
            method, rows = "-", 0
            try:
                method, target, keep_alive, headers = self._read_head(line)
                status, content_type, body, rows = self._answer(method, target, headers)
            except _Refusal as refusal:
                status, content_type, body = refusal.status, _TEXT, str(refusal).encode()
                keep_alive = False
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug("%s %d, %d rows, %.3f ms", method, status, rows,
                             (time.perf_counter() - started) * 1e3)
            head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n")
            if not keep_alive:
                head += "Connection: close\r\n"
            self.wfile.write((head + "\r\n").encode("latin-1") + body)
            if not keep_alive:
                return

    def _read_head(self, line: bytes | None) -> tuple[str, str, bool, dict[str, str]]:
        """The method, target, whether the connection stays open, and the
        header fields of the request whose request line is *line* (None if
        it was too long)."""
        if line is None:
            raise _Refusal(414, "request line too long")
        words = line.decode("latin-1").split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            raise _Refusal(400, f"bad request line {line[:100]!r}")
        if not words[2].startswith("HTTP/1."):
            raise _Refusal(505, f"unsupported HTTP version {words[2]!r}")
        try:
            fields = read_header_fields(self.rfile)
        except http.client.HTTPException as e:
            raise _Refusal(431, str(e)) from None
        return words[0], words[1], keeps_alive(words[2], fields), fields

    def _answer(self, method: str, target: str, headers: dict[str, str]
                ) -> tuple[int, str, bytes, int]:
        """Status, content type, body and row count of the answer."""
        if method == "GET":
            queries = parse_qs(urlsplit(target).query).get("query")
            if not queries:
                return 400, _TEXT, b"missing query parameter", 0
            return self._evaluate(queries[0])
        if method != "POST":
            raise _Refusal(501, f"unsupported method {method!r}")
        ctype = headers.get("content-type", "").split(";")[0].strip().lower()
        if ctype != "application/sparql-query":
            # The body is left unread, so the connection cannot be reused.
            raise _Refusal(400, f"unsupported content type {ctype!r}; "
                                "use application/sparql-query")
        length = http_number(headers.get("content-length") or "0")
        if length is None:
            # The body's end is unknown, so the connection cannot be reused.
            raise _Refusal(400, "invalid Content-Length")
        if length > _MAX_BODY:
            raise _Refusal(413, f"query body over {_MAX_BODY} bytes")
        if headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            text = self.rfile.read(length).decode("utf-8")
        except UnicodeDecodeError as e:
            return 400, _TEXT, f"query is not UTF-8: {e}".encode(), 0
        return self._evaluate(text)

    def _evaluate(self, text: str) -> tuple[int, str, bytes, int]:
        try:
            query = parse_query(text)
        except SparqlError as e:
            return 400, _TEXT, f"unsupported or malformed query: {e}".encode(), 0
        rows = match_bgp(self.server.graph, query)
        body = json.dumps(results_to_json(query.variables, rows)).encode("utf-8")
        return 200, RESULTS_JSON, body, len(rows)


class _HttpServer(socketserver.ThreadingTCPServer):
    """Serves *graph*, one thread per client connection; the serve loop
    sleeps until a client connects or wake() is called, and returns on the
    wake-up."""

    daemon_threads = True
    allow_reuse_address = True
    # socketserver's backlog of 5 drops the connects of a larger client
    # pool that arrive together, and each dropped one is retried a second
    # later.
    request_queue_size = socket.SOMAXCONN

    def __init__(self, address, graph: Graph) -> None:
        super().__init__(address, _Handler)
        # Handlers reach the graph through self.server.
        self.graph = graph
        self._wake_r, self._wake_w = socket.socketpair()

    def serve_forever(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_r, selectors.EVENT_READ)
            while True:
                ready = [key.fileobj for key, _ in selector.select()]
                if self._wake_r in ready:
                    return
                self._handle_request_noblock()
                self.service_actions()

    def wake(self) -> None:
        self._wake_w.send(b"\0")

    def server_close(self) -> None:
        super().server_close()
        self._wake_r.close()
        self._wake_w.close()


class EndpointServer:
    """A running endpoint; use as a context manager or call shutdown()."""

    def __init__(self, graph: Graph, port: int = 0, host: str = "127.0.0.1") -> None:
        self.graph = graph
        self._httpd = _HttpServer((host, port), graph)
        self.host = host
        self.port = self._httpd.server_address[1]
        self.url = f"http://{host}:{self.port}/sparql"
        self._thread: threading.Thread | None = None

    def start(self) -> "EndpointServer":
        """Serve on a background thread; starting a started server does nothing."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
            self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving, if serving, and close the listening socket."""
        if self._thread is not None and self._thread.is_alive():
            self._httpd.wake()
            self._thread.join(timeout=5)
        self._httpd.server_close()

    def __enter__(self) -> "EndpointServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve(graph: Graph, port: int = 0, host: str = "127.0.0.1") -> EndpointServer:
    """Start an endpoint serving *graph*; port 0 picks a free port."""
    return EndpointServer(graph, port, host).start()
