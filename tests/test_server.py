import http.client
import json
import logging
import socket
import threading
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from kif import codec
from kif.rdf.server import EndpointServer, serve
from kif.stores.backed import decode_results_json
from kif.rdf.terms import Graph, IriTerm

import paper_fixtures as pf

WD = pf.WD


@pytest.fixture(scope="module")
def endpoint():
    graph = codec.encode_dataset(pf.wikidata_pairs(), pf.wikidata_descriptors())
    with serve(graph) as server:
        yield server


def _get(server, query: str):
    url = server.url + "?" + urllib.parse.urlencode({"query": query})
    with urllib.request.urlopen(url, timeout=10) as resp:
        assert resp.headers["Content-Type"] == "application/sparql-results+json"
        return json.loads(resp.read())


def _post(server, body: bytes, content_type: str):
    req = urllib.request.Request(
        server.url, data=body, headers={"Content-Type": content_type},
        method="POST")
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def test_get_query_returns_marie_curie(endpoint):
    payload = _get(endpoint, "SELECT ?x WHERE { ?x wdt:P166 wd:Q38104 }")
    assert payload["head"]["vars"] == ["x"]
    values = [b["x"]["value"] for b in payload["results"]["bindings"]]
    assert values == [WD + "Q7286"]


def test_post_sparql_query_body(endpoint):
    payload = _post(endpoint,
                    b"SELECT ?x WHERE { ?x wdt:P166 wd:Q38104 }",
                    "application/sparql-query")
    assert [b["x"]["value"] for b in payload["results"]["bindings"]] == [WD + "Q7286"]


def test_star_projection_is_rejected_with_400(endpoint):
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(endpoint, "SELECT * WHERE {}")
    assert err.value.code == 400
    assert "star projection" in err.value.read().decode()
    err.value.close()


def test_limit_is_applied(endpoint):
    payload = _get(endpoint,
                   "SELECT ?y WHERE { wd:Q7286 wdt:P166 ?y } LIMIT 1")
    assert len(payload["results"]["bindings"]) == 1


def test_malformed_query_and_missing_parameter(endpoint):
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(endpoint, "SELECT WHERE {")
    assert err.value.code == 400
    err.value.close()
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(endpoint.url, timeout=10)
    assert err.value.code == 400
    err.value.close()


def test_unsupported_content_type_is_rejected(endpoint):
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(endpoint, b"query=x", "application/x-www-form-urlencoded")
    assert err.value.code == 400
    err.value.close()


def test_unsupported_feature_is_rejected_with_diagnostic(endpoint):
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(endpoint, "SELECT ?s WHERE { OPTIONAL { ?s ?p ?o } }")
    assert err.value.code == 400
    assert "OPTIONAL" in err.value.read().decode()
    err.value.close()


def _raw_post(conn: http.client.HTTPConnection, path: str, body: bytes,
              length: str | None = None) -> tuple[int, str]:
    conn.putrequest("POST", path)
    conn.putheader("Content-Type", "application/sparql-query")
    conn.putheader("Content-Length", str(len(body)) if length is None else length)
    conn.endheaders(body)
    with conn.getresponse() as resp:
        return resp.status, resp.read().decode()


def test_bad_query_text_answers_400_and_keeps_the_connection(endpoint):
    parts = urllib.parse.urlsplit(endpoint.url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        bad_escape = 'SELECT ?s WHERE { ?s ?p "a\\uZZZZ" }'.encode()
        status, text = _raw_post(conn, parts.path, bad_escape)
        assert status == 400 and "invalid escape" in text
        sock = conn.sock
        status, text = _raw_post(conn, parts.path, b'SELECT ?s WHERE { ?s ?p "\xff" }')
        assert status == 400 and "UTF-8" in text
        status, _ = _raw_post(conn, parts.path,
                              b"SELECT ?x WHERE { ?x wdt:P166 wd:Q38104 }")
        assert status == 200
        assert conn.sock is sock
    finally:
        conn.close()


@pytest.mark.parametrize("length", ["abc", "-1", "+5", "1_0",
                                    pytest.param("9" * 5000, id="5000 digits")])
def test_invalid_content_length_answers_400(endpoint, length):
    parts = urllib.parse.urlsplit(endpoint.url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
    try:
        status, text = _raw_post(conn, parts.path, b"", length)
        assert status == 400 and "Content-Length" in text
    finally:
        conn.close()


def test_responses_round_trip_through_the_results_decoder(endpoint):
    payload = _get(endpoint, "SELECT ?y WHERE { wd:Q7286 wdt:P166 ?y }")
    rows = decode_results_json(payload)
    assert {row["y"] for row in rows} == {IriTerm(WD + "Q38104"),
                                          IriTerm(WD + "Q902788")}
    # Literals with datatype and language tags survive the round trip too.
    amount = _get(endpoint,
                  "SELECT ?v WHERE { wd:Q2270 wdt:P2177 ?v }")
    (row,) = decode_results_json(amount)
    assert row["v"].lexical == "0.07"
    labels = _get(endpoint, "SELECT ?l WHERE { wd:Q7286 rdfs:label ?l }")
    (lrow,) = decode_results_json(labels)
    assert lrow["l"].language == "en" and lrow["l"].lexical == "Marie Curie"


def test_concurrent_requests(endpoint):
    def ask(_):
        return _get(endpoint, "SELECT ?x WHERE { ?x wdt:P166 wd:Q38104 }")

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(ask, range(16)))
    assert all(r["results"]["bindings"] for r in results)


def _serving_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate()
            if "serve_forever" in t.name and t.is_alive()}


def test_start_is_idempotent_and_the_context_stops_its_thread():
    before = _serving_threads()
    with serve(Graph()) as server:
        server.start()
        assert len(_serving_threads() - before) == 1
    assert not _serving_threads() - before


def test_shutdown_of_a_server_never_started_returns():
    server = EndpointServer(Graph())
    stopper = threading.Thread(target=server.shutdown, daemon=True)
    stopper.start()
    stopper.join(timeout=1)
    assert not stopper.is_alive()


def test_a_server_not_yet_serving_queues_many_connects():
    server = EndpointServer(Graph())
    clients = []
    try:
        for _ in range(32):
            clients.append(socket.create_connection((server.host, server.port), timeout=0.5))
    finally:
        for client in clients:
            client.close()
        server.shutdown()
    assert len(clients) == 32
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((server.host, server.port), timeout=0.5).close()


# -- the HTTP subset, spoken over raw sockets -----------------------------------

QUERY = b"SELECT ?x WHERE { ?x wdt:P166 wd:Q38104 }"


def _connect(server) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=10)


def _post_bytes(body: bytes, *headers: str) -> bytes:
    head = ["POST /sparql HTTP/1.1", "Host: x", "Content-Type: application/sparql-query",
            f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def _read_reply(rfile) -> tuple[int, dict[str, str], bytes]:
    """Status, headers (lower-case names) and body of one response."""
    status = int(rfile.readline().split()[1])
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, rfile.read(int(headers.get("content-length", 0)))


def _values(body: bytes) -> list[str]:
    return [b["x"]["value"] for b in json.loads(body)["results"]["bindings"]]


def test_two_queries_are_answered_on_one_connection(endpoint):
    with _connect(endpoint) as sock, sock.makefile("rb") as rfile:
        sock.sendall(_post_bytes(QUERY))
        first = _read_reply(rfile)
        sock.sendall(_post_bytes(QUERY))
        second = _read_reply(rfile)
    assert first[0] == second[0] == 200
    assert _values(first[2]) == _values(second[2]) == [WD + "Q7286"]


def test_expect_100_continue_gets_an_interim_response(endpoint):
    body = QUERY + b" " * (2048 - len(QUERY))
    with _connect(endpoint) as sock, sock.makefile("rb") as rfile:
        sock.sendall(_post_bytes(body, "Expect: 100-continue")[:-len(body)])
        assert rfile.readline().split()[1] == b"100"
        assert rfile.readline() == b"\r\n"
        sock.sendall(body)
        status, _, payload = _read_reply(rfile)
    assert status == 200 and _values(payload) == [WD + "Q7286"]


def test_connection_close_is_answered_then_closed(endpoint):
    with _connect(endpoint) as sock, sock.makefile("rb") as rfile:
        sock.sendall(_post_bytes(QUERY, "Connection: close"))
        status, headers, payload = _read_reply(rfile)
        assert status == 200 and _values(payload) == [WD + "Q7286"]
        assert headers["connection"] == "close"
        assert rfile.read() == b""


@pytest.mark.parametrize("request_bytes, status", [
    (b"PUT /sparql HTTP/1.1\r\nHost: x\r\n\r\n", 501),
    (b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    (b"GET /sparql?query=x HTTP/1.1\r\n"
     + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n", 431),
])
def test_refused_requests_get_their_status_then_eof(endpoint, request_bytes, status):
    with _connect(endpoint) as sock, sock.makefile("rb") as rfile:
        sock.sendall(request_bytes)
        assert _read_reply(rfile)[0] == status
        assert rfile.read() == b""


def test_a_body_over_the_bound_answers_413_and_closes(endpoint):
    # The size is within the digit cap; reading it at once would need 100 PB.
    head = (b"POST /sparql HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/sparql-query\r\n"
            b"Content-Length: 100000000000000000\r\n\r\n")
    with _connect(endpoint) as sock, sock.makefile("rb") as rfile:
        sock.sendall(head)
        status, headers, _ = _read_reply(rfile)
        assert status == 413 and headers["connection"] == "close"
        assert rfile.read() == b""


def test_each_request_is_logged_at_debug_with_its_row_count(endpoint, caplog):
    with caplog.at_level(logging.DEBUG, logger="kif.rdf.server"):
        _get(endpoint, "SELECT ?y WHERE { wd:Q7286 wdt:P166 ?y }")
    (record,) = [r for r in caplog.records if r.name == "kif.rdf.server"]
    assert record.levelno == logging.DEBUG
    assert record.getMessage().startswith("GET 200, 2 rows, ")
    caplog.clear()
    _get(endpoint, "SELECT ?y WHERE { wd:Q7286 wdt:P166 ?y }")
    assert not [r for r in caplog.records if r.name == "kif.rdf.server"]


def test_a_body_shorter_than_its_content_length_answers_400_and_closes(endpoint):
    # One byte short, "LIMIT 10" would read as "LIMIT 1".
    query = b"SELECT ?x WHERE { ?x wdt:P166 ?y } LIMIT 10"
    with _connect(endpoint) as sock, sock.makefile("rb") as rfile:
        sock.sendall(_post_bytes(query)[:-1])
        sock.shutdown(socket.SHUT_WR)
        status, headers, payload = _read_reply(rfile)
        assert status == 400 and headers["connection"] == "close"
        assert b"Content-Length" in payload
        assert rfile.read() == b""


def test_the_body_of_a_get_is_read_before_the_next_request(endpoint):
    get = ("GET /sparql?" + urllib.parse.urlencode({"query": QUERY.decode()})
           + " HTTP/1.1\r\nHost: x\r\n").encode()
    with _connect(endpoint) as sock, sock.makefile("rb") as rfile:
        sock.sendall(get + b"Content-Length: 5\r\n\r\nhello")
        first = _read_reply(rfile)
        sock.sendall(get + b"\r\n")
        second = _read_reply(rfile)
    assert first[0] == second[0] == 200
    assert _values(first[2]) == _values(second[2]) == [WD + "Q7286"]


def test_a_chunked_body_answers_411_and_closes(endpoint):
    head = (b"POST /sparql HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/sparql-query\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n")
    chunk = b"%x\r\n%s\r\n0\r\n\r\n" % (len(QUERY), QUERY)
    with _connect(endpoint) as sock, sock.makefile("rb") as rfile:
        sock.sendall(head + chunk)
        status, headers, _ = _read_reply(rfile)
        assert status == 411 and headers["connection"] == "close"
        assert rfile.read() == b""


@pytest.mark.parametrize("extra", [(0, 40), (40, 0)], ids=["shorter first", "longer first"])
def test_differing_content_lengths_answer_400_and_close(endpoint, extra):
    # RFC 9112 section 6.3: the message length is unknown, so the connection
    # cannot carry another request.
    head = ["POST /sparql HTTP/1.1", "Host: x", "Content-Type: application/sparql-query",
            *(f"Content-Length: {len(QUERY) + n}" for n in extra)]
    with _connect(endpoint) as sock, sock.makefile("rb") as rfile:
        sock.settimeout(2)
        sock.sendall(("\r\n".join(head) + "\r\n\r\n").encode() + QUERY)
        status, headers, _ = _read_reply(rfile)
        assert status == 400 and headers["connection"] == "close"
        assert rfile.read() == b""


def test_a_repeated_connection_field_holding_close_closes(endpoint):
    with _connect(endpoint) as sock, sock.makefile("rb") as rfile:
        sock.settimeout(2)
        sock.sendall(_post_bytes(QUERY, "Connection: close", "Connection: keep-alive"))
        status, headers, payload = _read_reply(rfile)
        assert status == 200 and _values(payload) == [WD + "Q7286"]
        assert headers["connection"] == "close"
        assert rfile.read() == b""
