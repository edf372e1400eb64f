"""HTTP front door for the web-service tier.

A thin stdlib adapter that puts :class:`~repro.cluster.webservice
.WebService` on a real port: ``POST /`` takes one JSON request body and
answers with the service's JSON response, and the two live-introspection
endpoints — ``GET /stats`` (Prometheus text) and ``GET /trace/<id>``
(a query's span tree) — are routed through
:meth:`~repro.cluster.webservice.WebService.handle_http`.

The adapter adds no semantics of its own: every request body goes
through the same dictionary protocol the tests drive directly, so HTTP
clients and in-process callers observe identical behaviour.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.cluster.webservice import WebService

#: Largest accepted request body; queries are small dictionaries, so
#: anything bigger is a client error, not a bigger buffer.
MAX_BODY_BYTES = 4 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Routes one HTTP exchange onto the owning server's WebService."""

    # Set by HttpFrontend on the handler subclass it builds.
    service: WebService

    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server's fixed name
        """Serve the introspection endpoints (``/stats``, ``/trace/<id>``)."""
        status, content_type, body = self.service.handle_http("GET", self.path)
        self._reply(status, content_type, body.encode("utf-8"))

    def do_POST(self) -> None:  # noqa: N802 - http.server's fixed name
        """Serve one dictionary-protocol request from a JSON body."""
        if self.path not in ("/", ""):
            self._reply_json(404, {"status": "error", "code": "not_found",
                                   "message": f"POST only to /, not {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            self.close_connection = True  # the body cannot be framed
            self._reply_json(400, {"status": "error", "code": "bad_request",
                                   "message": "missing or oversized body"})
            return
        body = self.rfile.read(length)
        try:
            request = json.loads(body)
        except json.JSONDecodeError as error:
            self._reply_json(400, {"status": "error", "code": "bad_request",
                                   "message": f"body is not JSON: {error}"})
            return
        if not isinstance(request, dict):
            self._reply_json(400, {"status": "error", "code": "bad_request",
                                   "message": "body must be a JSON object"})
            return
        head, body = self.service.handle_json(request)
        self._reply(200 if head.get("status") == "ok" else 400, "application/json", body)

    def _reply_json(self, status: int, payload: dict) -> None:
        self._reply(status, "application/json", json.dumps(payload).encode("utf-8"))

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-reply.  Swallow it — a vanished
            # client is traffic weather, not a server error — count it,
            # and mark the connection unusable so the handler loop
            # stops instead of writing into a dead socket.
            self.service.note_client_disconnect("threaded")
            self.close_connection = True

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence the default per-request stderr chatter."""


class HttpFrontend:
    """A threaded HTTP server wrapping one :class:`WebService`.

    Args:
        service: the web service to expose.
        host: bind address.
        port: bind port (0 picks a free one; see :attr:`port`).
    """

    def __init__(
        self, service: WebService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        handler = type("BoundHandler", (_Handler,), {"service": service})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Serve in a background thread (tests, benchmarks)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="http-frontend",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._httpd.serve_forever(poll_interval=0.2)

    def shutdown(self) -> None:
        """Stop serving and release the port (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "HttpFrontend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
