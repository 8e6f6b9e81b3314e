"""HttpBackend against small raw-socket servers: body framings, connection
reuse and close, the one retry, and the errors that must not be retried."""

import json
import socket
import threading
import time

import pytest

from kif.rdf.sparql import parse_query
from kif.stores import HttpBackend, TransportError, decode_results_json

QUERY = parse_query("SELECT ?x WHERE { ?x <http://example.org/p> ?y }")
PAYLOAD = json.dumps({
    "head": {"vars": ["x"]},
    "results": {"bindings": [
        {"x": {"type": "uri", "value": "http://example.org/a"}},
        {"x": {"type": "literal", "value": "b", "xml:lang": "en"}},
        {"x": {"type": "literal", "value": "7",
               "datatype": "http://www.w3.org/2001/XMLSchema#integer"}},
    ]},
}).encode()
ROWS = decode_results_json(json.loads(PAYLOAD))

HEAD_11 = b"HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\n"
SIZED = HEAD_11 + b"Content-Length: %d\r\n\r\n" % len(PAYLOAD) + PAYLOAD


def _read_request(rfile) -> bool:
    """Read one request; False at the end of the connection."""
    length = None
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    if not line:
        return False
    assert length is not None
    return len(rfile.read(length)) == length


class RawServer:
    """Answers the n-th request with ``replies[n]``: the raw bytes to send
    (None: send nothing, wait for the client to close) and whether to close
    the connection after them. Counts the connections it accepts."""

    def __init__(self, replies: list[tuple[bytes | None, bool]]) -> None:
        self.replies = list(replies)
        self.accepted = 0
        self.closed = threading.Event()   # set when the server closes a connection
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self._stop = threading.Event()
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}/sparql"
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "RawServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        self._listener.close()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.accepted += 1
            with conn, conn.makefile("rb") as rfile:
                conn.settimeout(5)
                self._serve(conn, rfile)
            self.closed.set()

    def _serve(self, conn: socket.socket, rfile) -> None:
        while self.replies and _read_request(rfile):
            data, close = self.replies.pop(0)
            if data is None:
                rfile.read()              # until the client gives up
                return
            conn.sendall(data)
            if close:
                return


def _select_twice(replies) -> tuple[list, list, int]:
    with RawServer(replies) as server:
        backend = HttpBackend(server.url, timeout=5)
        try:
            first = backend.select(QUERY)
            if replies[0][1]:
                assert server.closed.wait(timeout=5)
            second = backend.select(QUERY)
        finally:
            backend.close()
    return first, second, server.accepted


def test_a_response_delimited_by_the_close_of_an_http_1_0_connection():
    reply = (b"HTTP/1.0 200 OK\r\nContent-Type: application/sparql-results+json\r\n\r\n"
             + PAYLOAD, True)
    first, second, accepted = _select_twice([reply, reply])
    assert first == second == ROWS
    assert accepted == 2


def test_a_chunked_response_with_a_chunk_extension():
    chunks = [PAYLOAD[:10], PAYLOAD[10:11], PAYLOAD[11:]]
    body = b"".join(b"%x;name=value\r\n%s\r\n" % (len(c), c) for c in chunks)
    reply = (HEAD_11 + b"Transfer-Encoding: chunked\r\n\r\n" + body + b"0\r\n\r\n", False)
    first, second, accepted = _select_twice([reply, reply])
    assert first == second == ROWS
    assert accepted == 1


def test_connection_close_makes_the_next_query_open_a_new_connection():
    reply = (HEAD_11 + b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(PAYLOAD)
             + PAYLOAD, True)
    first, second, accepted = _select_twice([reply, reply])
    assert first == second == ROWS
    assert accepted == 2


def test_an_idle_connection_closed_by_the_server_is_reopened_once():
    # The first answer keeps the connection alive, then the server closes it.
    first, second, accepted = _select_twice([(SIZED, True), (SIZED, False)])
    assert first == second == ROWS
    assert accepted == 2


@pytest.mark.parametrize("reply", [
    HEAD_11 + b"Content-Length: %d\r\n\r\n" % (len(PAYLOAD) + 10) + PAYLOAD,
    b"HTTP/1.1 20 OK\r\nContent-Length: 0\r\n\r\n",
    b"ICY 200 OK\r\n\r\n",
    HEAD_11 + b"Transfer-Encoding: chunked\r\n\r\n0x%x\r\n" % len(PAYLOAD) + PAYLOAD
    + b"\r\n0\r\n\r\n",
    HEAD_11 + b"Transfer-Encoding: chunked\r\n\r\n" + b"f" * 16 + b"\r\n" + PAYLOAD
    + b"\r\n0\r\n\r\n",
], ids=["short body", "short status code", "not HTTP", "0x chunk size",
        "over-long chunk size"])
def test_a_short_body_or_a_malformed_status_line_is_a_transport_error(reply):
    with RawServer([(reply, True)]) as server:
        backend = HttpBackend(server.url, timeout=5)
        try:
            with pytest.raises(TransportError):
                backend.select(QUERY)
        finally:
            backend.close()
    assert server.accepted == 1


@pytest.mark.parametrize("framing", [
    b"Content-Length: 100000000000000000\r\n\r\n",
    b"Transfer-Encoding: chunked\r\n\r\n%x\r\n" % 10**17,
], ids=["sized", "chunked"])
def test_a_body_size_the_peer_never_sends_is_a_transport_error(framing):
    # Both sizes are within the digit caps; reading one at once would need
    # 100 PB of memory.
    with RawServer([(HEAD_11 + framing + PAYLOAD, True)]) as server:
        backend = HttpBackend(server.url, timeout=5)
        try:
            with pytest.raises(TransportError, match="IncompleteRead"):
                backend.select(QUERY)
        finally:
            backend.close()
    assert server.accepted == 1


def test_differing_content_lengths_in_a_response_are_a_transport_error():
    lengths = b"Content-Length: %d\r\nContent-Length: %d\r\n\r\n" % (len(PAYLOAD) + 10,
                                                                    len(PAYLOAD))
    with RawServer([(HEAD_11 + lengths + PAYLOAD, True)]) as server:
        backend = HttpBackend(server.url, timeout=5)
        try:
            with pytest.raises(TransportError, match="invalid Content-Length"):
                backend.select(QUERY)
        finally:
            backend.close()
    assert server.accepted == 1


def test_a_timed_out_query_is_not_sent_again():
    with RawServer([(None, False), (None, False)]) as server:
        backend = HttpBackend(server.url, timeout=0.5)
        try:
            started = time.perf_counter()
            with pytest.raises(TransportError, match="timed out"):
                backend.select(QUERY)
            assert time.perf_counter() - started < 0.9
        finally:
            backend.close()
        assert server.closed.wait(timeout=5)
    assert server.accepted == 1


@pytest.mark.parametrize("body", [
    b"{not json",
    json.dumps({"head": {"vars": ["x"]}, "results": {"bindings": 5}}).encode(),
], ids=["not JSON", "bindings not an array"])
def test_a_malformed_results_document_is_a_transport_error(body):
    reply = HEAD_11 + b"Content-Length: %d\r\n\r\n" % len(body) + body
    with RawServer([(reply, True)]) as server:
        backend = HttpBackend(server.url, timeout=5)
        try:
            with pytest.raises(TransportError, match="bad results payload"):
                backend.select(QUERY)
        finally:
            backend.close()
