"""Wire-level tests for the HTTP handler (``repro.service.httpd``).

The framing contract, per ``docs/service.md``:

* every accepted socket has ``TCP_NODELAY`` set;
* every response the handler writes is one ``sendall`` holding the
  status line, the headers and the body;
* a response sent before the request body was read closes the
  connection, so an unread body is never parsed as the next request;
* a client gone before the reply costs no 500 and no traceback;
* numeric body fields are numbers, not bools or strings.

No test here bounds wall-clock time.
"""

import http.client
import json
import socket
from collections import namedtuple

import pytest

from repro import (
    QGramTokenizer,
    SetCollection,
    SetSimilaritySearcher,
    SimilarityService,
)
from repro.data.synthetic import generate_word_database
from repro.obs import metrics as obs_metrics
from repro.service import ServiceHTTPServer, httpd

CLIENT_TIMEOUT = 10.0
"""Below the server's idle timeout: a connection the server should have
closed fails the test instead of closing late."""

assert CLIENT_TIMEOUT < httpd.IDLE_TIMEOUT_SECONDS


class _RecordingSocket:
    """An accepted socket that records each ``sendall`` payload.

    With ``fail`` set, every ``sendall`` raises as if the client had
    reset the connection.  Everything else goes to the real socket.
    """

    def __init__(self, sock, sent, fail):
        self._sock = sock
        self._sent = sent
        self._fail = fail

    def sendall(self, data):
        self._sent.append(bytes(data))
        if self._fail:
            raise ConnectionResetError(104, "Connection reset by peer")
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _Wire:
    """What the handler put on its sockets."""

    def __init__(self):
        self.sent = []
        self.nodelay = []
        self.fail = False
        self.errors = []


@pytest.fixture()
def wire(monkeypatch):
    record = _Wire()
    handler = httpd._ServiceRequestHandler
    original_setup = handler.setup

    def setup(self):
        self.request = _RecordingSocket(
            self.request, record.sent, record.fail
        )
        original_setup(self)
        record.nodelay.append(
            self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )
        )

    monkeypatch.setattr(handler, "setup", setup)
    return record


@pytest.fixture()
def server(wire):
    tokenizer = QGramTokenizer()
    collection = SetCollection.from_strings(
        ["Main Street", "Maine Street", "Elm Avenue"], tokenizer
    )
    service = SimilarityService(
        SetSimilaritySearcher(collection), tokenizer=tokenizer
    )
    with ServiceHTTPServer(service, port=0) as server:
        server._httpd.handle_error = (
            lambda request, address: wire.errors.append(address)
        )
        yield server
    service.close()


def _request(method, path, body=b"", headers=()):
    head = [f"{method} {path} HTTP/1.1", "Host: test"]
    head.extend(headers)
    if body and not any(h.lower().startswith("transfer-encoding")
                        for h in headers):
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


Response = namedtuple("Response", "raw status headers body rest")
"""One response as read off the wire; ``rest`` is what followed it."""


def _read_response(conn, buffered=b""):
    """Read one response off *conn*."""
    data = buffered
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        assert chunk, f"connection closed mid-head: {data!r}"
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    while len(rest) < length:
        chunk = conn.recv(65536)
        assert chunk, "connection closed mid-body"
        rest += chunk
    body = rest[:length]
    return Response(
        head + b"\r\n\r\n" + body, status, headers, body, rest[length:]
    )


def _read_to_eof(conn, buffered=b""):
    data = buffered
    while True:
        chunk = conn.recv(65536)
        if not chunk:
            return data
        data += chunk


def _connect(server):
    return socket.create_connection(
        (server.host, server.port), timeout=CLIENT_TIMEOUT
    )


def _post_json(path, body):
    return _request("POST", path, json.dumps(body).encode("utf-8"))


def _explode(*_args, **_kwargs):
    raise RuntimeError("wiring gone bad")


# (name, request bytes, expected status, server preparation)
RESPONSES = [
    ("search", _post_json("/search", {"text": "Main", "threshold": 0.5}),
     200, None),
    ("batch", _post_json("/batch", {"queries": ["Main", "Elm"],
                                    "threshold": 0.5}), 200, None),
    ("stats", _request("GET", "/stats"), 200, None),
    ("metrics", _request("GET", "/metrics"), 200, None),
    ("healthz", _request("GET", "/healthz"), 200, None),
    ("400", _post_json("/search", {"threshold": 0.5}), 400, None),
    ("404", _request("GET", "/nope"), 404, None),
    ("500", _post_json("/search", {"text": "Main"}), 500,
     lambda service: setattr(service, "search", _explode)),
    ("503", _post_json("/search", {"text": "Main"}), 503,
     lambda service: service.drain(timeout=5.0)),
]


class TestFraming:
    def test_accepted_socket_has_tcp_nodelay(self, server, wire):
        with _connect(server) as conn:
            conn.sendall(_request("GET", "/healthz"))
            _read_response(conn)
        assert wire.nodelay == [1]

    @pytest.mark.parametrize(
        "request_bytes,status,prepare",
        [case[1:] for case in RESPONSES],
        ids=[case[0] for case in RESPONSES],
    )
    def test_each_response_is_one_sendall(
        self, server, wire, request_bytes, status, prepare
    ):
        if prepare is not None:
            prepare(server.service)
        with obs_metrics.use_registry(obs_metrics.MetricsRegistry()):
            with _connect(server) as conn:
                # Twice on one connection: keep-alive framing holds too.
                for _ in range(2):
                    before = len(wire.sent)
                    conn.sendall(request_bytes)
                    response = _read_response(conn)
                    assert response.status == status
                    assert response.rest == b""
                    assert wire.sent[before:] == [response.raw]
        assert wire.errors == []

    def test_http09_request_gets_the_bare_body(self, server, wire):
        with _connect(server) as conn:
            conn.sendall(b"GET /healthz\r\n\r\n")
            received = _read_to_eof(conn)
        assert received == b'{"ok": true}'
        assert wire.sent == [received]

    def test_keep_alive_answers_equal_direct_search(self):
        collection, words = generate_word_database(
            num_records=300, vocabulary_size=200, seed=5
        )
        searcher = SetSimilaritySearcher(collection)
        tokenizer = QGramTokenizer()
        queries = words[:60]
        service = SimilarityService(searcher, tokenizer=tokenizer)
        with ServiceHTTPServer(service, port=0) as server:
            conn = http.client.HTTPConnection(
                server.host, server.port, timeout=CLIENT_TIMEOUT
            )
            sock = None
            try:
                for text in queries:
                    conn.request(
                        "POST",
                        "/search",
                        json.dumps({"text": text, "threshold": 0.6}),
                        {"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    body = json.loads(response.read())
                    sock = sock or conn.sock
                    assert conn.sock is sock  # still the first connection
                    expected = searcher.search(
                        tokenizer.tokens(text), 0.6
                    ).results
                    assert response.status == 200
                    assert body["results"]  # each word matches itself
                    assert [(m["id"], m["score"]) for m in body["results"]] \
                        == [(r.set_id, r.score) for r in expected]
            finally:
                conn.close()
        service.close()
        assert len(queries) >= 50


class TestRefusedBody:
    """A response sent with the body unread is the last on its
    connection: exactly one response arrives, then EOF."""

    def _one_response_then_eof(self, server, request_bytes):
        with _connect(server) as conn:
            conn.sendall(request_bytes)
            response = _read_response(conn)
            assert _read_to_eof(conn, response.rest) == b""
        assert response.headers["connection"] == "close"
        return response.status

    def test_oversized_body_with_crlf(self, server, monkeypatch):
        monkeypatch.setattr(httpd, "MAX_BODY_BYTES", 16)
        body = b'{"text": "Main\r\nGET /healthz HTTP/1.1\r\n\r\n"}'
        status = self._one_response_then_eof(
            server, _request("POST", "/search", body)
        )
        assert status == 400

    def test_oversized_body_without_crlf(self, server, monkeypatch):
        monkeypatch.setattr(httpd, "MAX_BODY_BYTES", 16)
        body = json.dumps({"text": "Main Street " * 4}).encode("utf-8")
        status = self._one_response_then_eof(
            server, _request("POST", "/search", body)
        )
        assert status == 400

    def test_chunked_body(self, server):
        chunk = b'{"text": "Main Street"}'
        body = b"%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk)
        status = self._one_response_then_eof(
            server,
            _request("POST", "/search", body,
                     headers=("Transfer-Encoding: chunked",)),
        )
        assert status == 400

    def test_malformed_content_length_is_400(self, server):
        request = (
            b"POST /search HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: abc\r\n\r\n{}"
        )
        with _connect(server) as conn:
            conn.sendall(request)
            response = _read_response(conn)
            assert _read_to_eof(conn, response.rest) == b""
        assert response.status == 400
        assert json.loads(response.body)["error"] == "bad Content-Length"
        assert response.headers["connection"] == "close"

    def test_unknown_post_path_closes(self, server):
        status = self._one_response_then_eof(
            server, _post_json("/nope", {"text": "Main"})
        )
        assert status == 404

    def test_read_body_keeps_connection_open(self, server):
        bad_json = _request("POST", "/search", b"{not json")
        with _connect(server) as conn:
            for _ in range(2):
                conn.sendall(bad_json)
                response = _read_response(conn)
                assert response.status == 400 and response.rest == b""
                assert "connection" not in response.headers


class TestClientGone:
    def test_reset_before_reply_is_not_an_error(self, server, wire, capsys):
        wire.fail = True
        with _connect(server) as conn:
            conn.sendall(_post_json("/search", {"text": "Main"}))
            # The write fails, so the server closes without a reply (and
            # without a second attempt at a JSON 500).
            assert _read_to_eof(conn) == b""
        assert len(wire.sent) == 1
        assert wire.sent[0].startswith(b"HTTP/1.1 200")
        assert wire.errors == []
        assert capsys.readouterr().err == ""


class TestNumericFields:
    @pytest.mark.parametrize(
        "fields,name",
        [
            ({"threshold": True}, "threshold"),
            ({"threshold": "0.5"}, "threshold"),
            ({"threshold": None}, "threshold"),
            ({"threshold": [0.5]}, "threshold"),
            ({"threshold": 10 ** 400}, "threshold"),
            ({"deadline_ms": "5"}, "deadline_ms"),
            ({"deadline_ms": False}, "deadline_ms"),
            ({"deadline_ms": {"ms": 5}}, "deadline_ms"),
            ({"deadline_ms": 0}, "deadline_ms"),
            ({"deadline_ms": -5}, "deadline_ms"),
            ({"algorithm": ["sf"]}, "algorithm"),
        ],
    )
    @pytest.mark.parametrize("path", ["/search", "/batch"])
    def test_non_number_is_400_naming_field(
        self, server, path, fields, name
    ):
        body = (
            {"text": "Main"} if path == "/search" else {"queries": ["Main"]}
        )
        body.update(fields)
        with _connect(server) as conn:
            conn.sendall(_post_json(path, body))
            response = _read_response(conn)
        assert response.status == 400
        assert f"'{name}'" in json.loads(response.body)["error"]

    @pytest.mark.parametrize(
        "fields,status",
        [
            ({"threshold": 1}, 200),
            ({"threshold": 0.5, "deadline_ms": 1000}, 200),
            ({"threshold": 0.5, "deadline_ms": 250.5}, 200),
            ({"threshold": 1.5}, 400),  # the service's own τ range check
            ({"threshold": 0}, 400),
        ],
    )
    def test_numbers_keep_their_meaning(self, server, fields, status):
        with _connect(server) as conn:
            conn.sendall(_post_json("/search", {"text": "Main", **fields}))
            response = _read_response(conn)
        body = json.loads(response.body)
        assert response.status == status
        if status == 400:
            assert "0 < tau <= 1" in body["error"]
        else:
            assert body["threshold"] == fields["threshold"]
