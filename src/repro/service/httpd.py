"""Stdlib HTTP front end for :class:`~repro.service.SimilarityService`.

A deliberately small JSON-over-HTTP endpoint (``http.server`` only — no
framework dependency), enough to serve an index to other processes and
to load-test the service layer:

* ``POST /search`` — body ``{"tokens": [...]}`` or ``{"text": "..."}``
  (the latter requires the service to carry a tokenizer), plus optional
  ``"threshold"``, ``"algorithm"``, ``"deadline_ms"``.  Responds with
  :meth:`ServiceResult.to_dict` (payloads resolved).
* ``POST /batch`` — body ``{"queries": [<query>, ...], ...}`` where each
  query is a token list or a string; one result object per query.
* ``GET /stats`` — serving counters and cache statistics.
* ``GET /metrics`` — Prometheus text exposition of the global metrics
  registry (empty body when telemetry is disabled).
* ``GET /healthz`` — liveness.

The server is a ``ThreadingHTTPServer``: one thread per connection, all
sharing the service's caches (which are lock-protected) and its
read-only index.  Each response is one ``sendall`` on a ``TCP_NODELAY``
socket, and a response sent before the request body was read closes
the connection.

>>> server = ServiceHTTPServer(service, host="127.0.0.1", port=0)
>>> server.start()          # doctest: +SKIP
>>> server.url              # doctest: +SKIP
'http://127.0.0.1:49152'
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from ..core.errors import (
    CircuitOpenError,
    ReproError,
    ServiceOverloadError,
)
from ..obs import metrics as obs_metrics
from .service import ServiceResult, SimilarityService

DEFAULT_THRESHOLD = 0.7
MAX_BODY_BYTES = 4 * 1024 * 1024
IDLE_TIMEOUT_SECONDS = 30.0
"""How long a connection may sit idle before the server closes it, so a
silent HTTP/1.1 keep-alive client cannot hold a handler thread forever."""


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes requests to the service owned by the server instance.

    ``self.server`` is the ``ThreadingHTTPServer``;
    :class:`ServiceHTTPServer` attaches ``service`` and ``verbose``
    attributes to it before serving.
    """

    protocol_version = "HTTP/1.1"
    # Socket timeout for every read and write on the connection; an idle
    # keep-alive connection times out while waiting for its next request.
    timeout = IDLE_TIMEOUT_SECONDS
    # TCP_NODELAY on every accepted socket.  With Nagle's algorithm on, a
    # small response waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    # True between the start of a POST and the read of its body.  A
    # response sent while it holds closes the connection: the unread
    # body would otherwise be parsed as the next request line.
    _body_pending = False

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        if self.server.verbose:
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        content_type: str,
        data: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Send the status line, the headers and *data* in one write.

        ``wfile`` is unbuffered (``wbufsize`` 0), so the one write is one
        ``sendall``.  An ``OSError`` from it means the client has gone:
        the connection is closed, and nothing more is written or logged.
        """
        if status >= 400:
            registry = obs_metrics.get_registry()
            if registry.enabled:
                registry.counter(
                    "http_errors_total",
                    "HTTP error responses by status code.",
                    ("status",),
                ).labels(status=str(status)).inc()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self._body_pending:
            self.send_header("Connection", "close")
        if self.request_version != "HTTP/0.9":
            # send_response/send_header collect the head in the stdlib's
            # private ``_headers_buffer``; it is joined here with the
            # blank line and the body instead of going out on its own
            # through end_headers().
            data = b"".join(self._headers_buffer) + b"\r\n" + data
            self._headers_buffer = []
        try:
            self.wfile.write(data)
        except OSError:
            self.close_connection = True

    def _send_json(
        self,
        status: int,
        body: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send(
            status,
            "application/json",
            json.dumps(body).encode("utf-8"),
            headers,
        )

    def _read_json(self) -> Optional[Dict[str, Any]]:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            self._send_json(400, {"ok": False, "error": "bad Content-Length"})
            return None
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(
                400, {"ok": False, "error": "missing or oversized body"}
            )
            return None
        raw = self.rfile.read(length)
        self._body_pending = False
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_json(400, {"ok": False, "error": f"bad JSON: {exc}"})
            return None
        if not isinstance(body, dict):
            self._send_json(
                400, {"ok": False, "error": "body must be a JSON object"}
            )
            return None
        return body

    def _count_request(self, path: str) -> None:
        registry = obs_metrics.get_registry()
        if registry.enabled:
            registry.counter(
                "http_requests_total",
                "HTTP requests by path (unknown paths fold into 'other').",
                ("path",),
            ).labels(path=path).inc()

    def _send_unexpected(self, exc: BaseException) -> None:
        """Map an unhandled handler exception to a JSON 500.

        Without this, ``BaseHTTPRequestHandler`` dumps a traceback to
        the socket mid-response.  The body carries the exception type
        but not its message — internals stay out of client responses;
        operators get the detail from the (verbose) server log.
        """
        if self.server.verbose:
            self.log_error(
                "unhandled %s: %s", type(exc).__name__, exc
            )
        self._send_json(
            500,
            {
                "ok": False,
                "error": f"internal error ({type(exc).__name__})",
            },
        )

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        try:
            known = ("/healthz", "/stats", "/metrics")
            self._count_request(self.path if self.path in known else "other")
            if self.path == "/healthz":
                self._send_json(200, {"ok": True})
            elif self.path == "/stats":
                self._send_json(200, self.server.service.stats())
            elif self.path == "/metrics":
                self._send(
                    200,
                    obs_metrics.PROMETHEUS_CONTENT_TYPE,
                    obs_metrics.render_prometheus(
                        obs_metrics.get_registry()
                    ).encode("utf-8"),
                )
            else:
                self._send_json(404, {"ok": False, "error": "unknown path"})
        except Exception as exc:  # repro-check: allow-broad-except
            self._send_unexpected(exc)

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler contract)
        self._body_pending = True
        try:
            self._route_post()
        except Exception as exc:  # repro-check: allow-broad-except
            self._send_unexpected(exc)

    def _route_post(self) -> None:
        if self.path not in ("/search", "/batch"):
            self._count_request("other")
            self._send_json(404, {"ok": False, "error": "unknown path"})
            return
        self._count_request(self.path)
        body = self._read_json()
        if body is None:
            return
        try:
            if self.path == "/search":
                self._handle_search(body)
            else:
                self._handle_batch(body)
        except (ServiceOverloadError, CircuitOpenError) as exc:
            # Load shedding / fail-fast: tell the client when to retry.
            self._send_json(
                503,
                {"ok": False, "error": str(exc), "overloaded": True},
                headers={
                    "Retry-After": str(
                        max(1, int(round(exc.retry_after)))
                    )
                },
            )
        except ReproError as exc:
            self._send_json(400, {"ok": False, "error": str(exc)})
        except (TypeError, ValueError) as exc:
            self._send_json(400, {"ok": False, "error": str(exc)})

    def _query_tokens(self, body: Dict[str, Any], query: Any):
        service = self.server.service
        if isinstance(query, str):
            if service.tokenizer is None:
                raise ValueError(
                    "string queries need a server-side tokenizer; "
                    "send 'tokens' instead"
                )
            return service.tokenizer.tokens(query)
        if isinstance(query, list) and all(
            isinstance(t, str) for t in query
        ):
            return query
        raise ValueError("a query must be a string or a list of tokens")

    @staticmethod
    def _number(value: Any, field: str) -> float:
        # bool is an int subclass: ``"threshold": true`` would be τ = 1.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"'{field}' must be a number")
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"'{field}' is out of range") from None

    @classmethod
    def _threshold_of(cls, body: Dict[str, Any]) -> float:
        return cls._number(
            body.get("threshold", DEFAULT_THRESHOLD), "threshold"
        )

    @classmethod
    def _deadline_of(cls, body: Dict[str, Any]) -> Optional[float]:
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is None:
            return None
        deadline_ms = cls._number(deadline_ms, "deadline_ms")
        if not deadline_ms > 0.0:
            raise ValueError("'deadline_ms' must be positive")
        return deadline_ms / 1000.0

    @staticmethod
    def _algorithm_of(body: Dict[str, Any]) -> Optional[str]:
        algorithm = body.get("algorithm")
        if algorithm is not None and not isinstance(algorithm, str):
            raise ValueError("'algorithm' must be a string")
        return algorithm

    def _result_dict(self, result: ServiceResult) -> Dict[str, Any]:
        service = self.server.service
        if result.result is None:
            return result.to_dict()
        return result.to_dict(payload_fn=service.payload)

    def _handle_search(self, body: Dict[str, Any]) -> None:
        service = self.server.service
        query = body.get("tokens", body.get("text"))
        if query is None:
            raise ValueError("body needs 'tokens' or 'text'")
        tokens = self._query_tokens(body, query)
        result = service.search(
            tokens,
            self._threshold_of(body),
            algorithm=self._algorithm_of(body),
            deadline=self._deadline_of(body),
        )
        self._send_json(200, self._result_dict(result))

    def _handle_batch(self, body: Dict[str, Any]) -> None:
        service = self.server.service
        raw = body.get("queries")
        if not isinstance(raw, list):
            raise ValueError("body needs 'queries': a list")
        token_lists = []
        for query in raw:
            # A query tokenizing to nothing becomes an error slot in
            # the batch answer, not an HTTP error for the whole batch.
            token_lists.append(self._query_tokens(body, query))
        results = service.search_batch(
            token_lists,
            self._threshold_of(body),
            algorithm=self._algorithm_of(body),
            deadline=self._deadline_of(body),
        )
        self._send_json(
            200,
            {
                "ok": True,
                "results": [self._result_dict(r) for r in results],
            },
        )


class ServiceHTTPServer:
    """Owns a ``ThreadingHTTPServer`` bound to a service instance.

    ``port=0`` binds an ephemeral port (use :attr:`port`/:attr:`url`
    after construction).  ``start()`` serves on a daemon thread;
    ``serve_forever()`` blocks the calling thread (the CLI path).
    """

    def __init__(
        self,
        service: SimilarityService,
        host: str = "127.0.0.1",
        port: int = 8080,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self._httpd = ThreadingHTTPServer(
            (host, port), _ServiceRequestHandler
        )
        self._httpd.daemon_threads = True
        # Hand the handler its context through the server object.
        self._httpd.service = service  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceHTTPServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-httpd",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


__all__ = ["ServiceHTTPServer", "DEFAULT_THRESHOLD", "IDLE_TIMEOUT_SECONDS"]
