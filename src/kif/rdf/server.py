"""SPARQL-protocol HTTP endpoint over an immutable graph snapshot.

Supports GET with a ``query`` parameter and POST with an
``application/sparql-query`` body; answers SPARQL results JSON. Anything
outside the query subset yields HTTP 400 with a diagnostic.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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


class _Handler(BaseHTTPRequestHandler):
    # self.server is the ThreadingHTTPServer; the graph hangs off it.
    # HTTP/1.1 keeps client connections alive between queries; Nagle is off
    # so small response writes are not held back waiting for ACKs.
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:
        logger.debug("endpoint: " + format, *args)

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _bad_request(self, message: str) -> None:
        self._reply(400, "text/plain; charset=utf-8", message.encode("utf-8"))

    def _answer(self, query_text: str) -> None:
        try:
            query = parse_query(query_text)
        except SparqlError as e:
            self._bad_request(f"unsupported or malformed query: {e}")
            return
        rows = match_bgp(self.server.graph, query)
        body = json.dumps(results_to_json(query.variables, rows)).encode("utf-8")
        self._reply(200, RESULTS_JSON, body)

    def do_GET(self) -> None:
        params = parse_qs(urlsplit(self.path).query)
        queries = params.get("query")
        if not queries:
            self._bad_request("missing query parameter")
            return
        self._answer(queries[0])

    def do_POST(self) -> None:
        ctype = self.headers.get("Content-Type", "").split(";")[0].strip().lower()
        if ctype != "application/sparql-query":
            self._bad_request(f"unsupported content type {ctype!r}; "
                              "use application/sparql-query")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0:
                raise ValueError
        except ValueError:
            # The body's end is unknown, so the connection cannot be reused.
            self.close_connection = True
            self._bad_request("invalid Content-Length")
            return
        try:
            body = self.rfile.read(length).decode("utf-8")
        except UnicodeDecodeError as e:
            self._bad_request(f"query is not UTF-8: {e}")
            return
        self._answer(body)


class _HttpServer(ThreadingHTTPServer):
    """Serves *graph*; the serve loop sleeps until a client connects or
    wake() is called, and returns on the wake-up."""

    daemon_threads = True

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
