"""HTTP front door for the web-service tier, on one ``asyncio`` loop.

Puts :class:`~repro.cluster.webservice.WebService` on a real port:
``POST /`` takes one JSON request body and answers with the service's
JSON response; ``GET /stats`` (Prometheus text) and ``GET /trace/<id>``
(a query's span tree) are routed through
:meth:`~repro.cluster.webservice.WebService.handle_http`.  The door adds
no semantics of its own: what it sends is ``WebService.handle_json``'s
body, byte for byte ``json.dumps`` of the dict reference
``service.handle(request)`` that in-process callers get.

* **zero threads per idle connection** — thousands of keep-alive
  clients cost one file descriptor each, parsed by a small HTTP/1.1
  reader with explicit deadlines on every awaited socket operation;
* **admission control** at the door — per-tenant token buckets and
  queue-depth / projected-wait backpressure from
  :class:`~repro.cluster.admission.AdmissionController`, with typed
  ``429``/``503`` shed responses carrying ``Retry-After``;
* a **prioritized request queue** — light introspection traffic
  (``ListFields``, ``GetStats``…) overtakes heavy query traffic, so
  dashboards stay live during overload;
* a **bounded bridge** into the threaded tier below — admitted
  requests run ``WebService.handle_json`` on a fixed-size executor
  (``max_inflight`` threads doubling as the dispatch semaphore), so the
  loop thread never serialises a query answer.

The split keeps each tier doing what it is good at: the event loop
multiplexes sockets and sheds load; the mediator's scatter pool and the
TCP transport below it remain threaded, deadline-bounded code that is
already proven correct.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.cluster.admission import AdmissionController, ShedError, Ticket
from repro.cluster.webservice import WebService
from repro.obs import clock

#: Largest accepted request body; queries are small dictionaries, so
#: anything bigger is a client error, not a bigger buffer.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Longest a connection may sit idle between requests before the door
#: closes it; bounds the fd cost of abandoned keep-alive clients.
IDLE_TIMEOUT_S = 30.0

#: Budget for any single socket read/write once a request has started
#: arriving; a peer that stalls mid-request is cut off, not waited on.
IO_TIMEOUT_S = 10.0

#: End-to-end budget for one admitted request (queue wait + dispatch).
REQUEST_TIMEOUT_S = 60.0

#: Header-count cap per request; a client streaming headers forever is
#: an attack on the parser, not a request.
_MAX_HEADERS = 100

#: Reason phrases for the statuses the door actually emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(order=True)
class _Queued:
    """One admitted request parked in the priority queue."""

    priority: int
    seq: int
    ticket: Ticket = field(compare=False)
    request: dict = field(compare=False)
    future: "asyncio.Future[tuple[dict, bytes]]" = field(compare=False)


def _body(payload: dict) -> bytes:
    """The JSON body of a response the door made itself (error, shed)."""
    return json.dumps(payload).encode("utf-8")


class AsyncHttpFrontend:
    """An event-loop HTTP server wrapping one :class:`WebService`.

    Args:
        service: the web service to expose.
        host: bind address.
        port: bind port (0 picks a free one; see :attr:`port`).
        admission: the admission controller; a default-configured one
            is built against the service's metrics registry if omitted.
        max_inflight: bridge threads into the blocking service tier —
            the dispatch concurrency bound.
    """

    def __init__(
        self,
        service: WebService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        admission: AdmissionController | None = None,
        max_inflight: int = 8,
    ) -> None:
        self.service = service
        self.host = host
        self.port = int(port)
        self._max_inflight = max(1, int(max_inflight))
        self.admission = admission or AdmissionController(
            service.metrics, workers=self._max_inflight
        )
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self._queue: "asyncio.PriorityQueue[_Queued]" | None = None
        #: Live keep-alive session tasks (touched on the loop thread only).
        self._sessions: "set[asyncio.Task[None]]" = set()
        self._startup_error: BaseException | None = None
        metrics = service.metrics
        self._connections = metrics.gauge(
            "aio_connections_open", "Keep-alive connections currently held"
        )
        self._requests = metrics.counter(
            "aio_http_requests_total", "HTTP requests parsed, by outcome",
            labelnames=["outcome"],
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Serve on a background thread; returns once the port is bound."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="aio-frontend", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("async front door failed to start in 10s")
        if self._startup_error is not None:
            raise RuntimeError(
                "async front door failed to bind"
            ) from self._startup_error

    def serve_forever(self) -> None:
        """Run the event loop on the calling thread until :meth:`shutdown`."""
        try:
            asyncio.run(self._main())
        finally:
            self._ready.set()  # unblock start() even on bind failure
        if (
            self._startup_error is not None
            and threading.current_thread() is not self._thread
        ):
            # Direct callers (the CLI) get the bind failure loudly;
            # start() surfaces it for the background-thread case.
            raise RuntimeError(
                "async front door failed to bind"
            ) from self._startup_error

    def shutdown(self) -> None:
        """Stop serving, drain workers, release the port (idempotent)."""
        loop, stopping = self._loop, self._stopping
        if loop is not None and stopping is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stopping.set)
            except RuntimeError:
                pass  # loop already torn down between the check and the call
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "AsyncHttpFrontend":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stopping = asyncio.Event()
        self._queue = asyncio.PriorityQueue()
        bridge = ThreadPoolExecutor(
            max_workers=self._max_inflight, thread_name_prefix="aio-bridge"
        )
        try:
            server = await asyncio.start_server(
                self._serve_connection, self.host, self.port
            )
        except OSError as error:
            self._startup_error = error
            self._ready.set()
            bridge.shutdown(wait=False)
            return
        self.port = int(server.sockets[0].getsockname()[1])
        workers = [
            loop.create_task(self._worker(bridge), name=f"aio-worker-{i}")
            for i in range(self._max_inflight)
        ]
        self._ready.set()
        try:
            await self._stopping.wait()
        finally:
            # Stop accepting first, then end what is still running: the
            # dispatch slots and every keep-alive session a client left
            # connected — cancelled and awaited here, while the loop is
            # fully alive, not left to asyncio.run()'s teardown.
            server.close()
            running = [*workers, *self._sessions]
            for task in running:
                task.cancel()
            await asyncio.gather(*running, return_exceptions=True)
            try:
                await asyncio.wait_for(server.wait_closed(), IO_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass  # the listener is closed; a straggler cannot hold us
            bridge.shutdown(wait=False)

    # -- connection handling -----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One keep-alive session; never raises into the event loop."""
        task = asyncio.current_task()
        assert task is not None
        self._sessions.add(task)
        self._connections.inc()
        try:
            await self._session(reader, writer)
        except (
            OSError,
            TimeoutError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            # Covers BrokenPipeError/ConnectionResetError, a peer
            # stalling past an I/O deadline mid-request, and one that
            # hangs up or overruns the reader mid-line.
            self.service.note_client_disconnect()
        except asyncio.CancelledError:
            # Only _main's shutdown cancels a session, and all a session
            # has to unwind is its socket (closed below): a clean close.
            # Re-raising would hand the cancellation to the stream
            # machinery's done-callback, which reports it to the loop's
            # exception handler as an unhandled error.
            pass
        finally:
            self._sessions.discard(task)
            self._connections.dec()
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), IO_TIMEOUT_S)
            except (OSError, asyncio.TimeoutError):
                pass  # peer already gone; the fd is released either way

    async def _session(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        stopping = self._stopping
        assert stopping is not None
        while not stopping.is_set():
            try:
                head = await asyncio.wait_for(
                    reader.readline(), IDLE_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                return  # idle keep-alive client; close quietly
            if not head:
                return  # clean EOF between requests
            parts = head.decode("latin-1").rstrip("\r\n").split()
            if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                self._requests.labels(outcome="malformed").inc()
                await self._reply_json(
                    writer,
                    400,
                    {"status": "error", "code": "bad_request",
                     "message": "malformed request line"},
                    keep_alive=False,
                )
                return
            method, path, version = parts
            headers = await self._read_headers(reader)
            if headers is None:
                self._requests.labels(outcome="malformed").inc()
                return
            default_keep_alive = version != "HTTP/1.0"
            keep_alive = (
                headers.get("connection", "").lower() != "close"
                and default_keep_alive
            )
            if not await self._serve_request(
                method, path, headers, reader, writer, keep_alive
            ):
                return
            if not keep_alive:
                return

    async def _read_headers(
        self, reader: asyncio.StreamReader
    ) -> dict[str, str] | None:
        """Parse the header block; ``None`` on a truncated request."""
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            line = await asyncio.wait_for(reader.readline(), IO_TIMEOUT_S)
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                return None
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return None  # header flood; drop the connection

    async def _serve_request(
        self,
        method: str,
        path: str,
        headers: dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> bool:
        """Answer one parsed request; False when the session must end."""
        if method == "GET":
            # Introspection bypasses the queue entirely: /stats must
            # answer precisely when the door is too loaded to serve
            # queries, and both handlers are memory-bound.
            status, content_type, body = self.service.handle_http(
                method, path
            )
            self._requests.labels(outcome="introspection").inc()
            await self._reply(
                writer, status, content_type, body.encode("utf-8"),
                keep_alive=keep_alive,
            )
            return True
        if method != "POST":
            self._requests.labels(outcome="rejected").inc()
            await self._reply_json(
                writer, 405,
                {"status": "error", "code": "bad_request",
                 "message": f"method {method} not allowed"},
                keep_alive=keep_alive,
            )
            return True
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length <= 0 or length > MAX_BODY_BYTES:
            # Without a believable length the connection cannot be
            # re-framed, so the session ends after the error reply.
            self._requests.labels(outcome="rejected").inc()
            await self._reply_json(
                writer, 400,
                {"status": "error", "code": "bad_request",
                 "message": "missing or oversized body"},
                keep_alive=False,
            )
            return False
        body = await asyncio.wait_for(
            reader.readexactly(length), IO_TIMEOUT_S
        )
        if path not in ("/", ""):
            self._requests.labels(outcome="rejected").inc()
            await self._reply_json(
                writer, 404,
                {"status": "error", "code": "not_found",
                 "message": f"POST only to /, not {path!r}"},
                keep_alive=keep_alive,
            )
            return True
        try:
            request = json.loads(body)
        except json.JSONDecodeError as error:
            self._requests.labels(outcome="rejected").inc()
            await self._reply_json(
                writer, 400,
                {"status": "error", "code": "bad_request",
                 "message": f"body is not JSON: {error}"},
                keep_alive=keep_alive,
            )
            return True
        if not isinstance(request, dict):
            self._requests.labels(outcome="rejected").inc()
            await self._reply_json(
                writer, 400,
                {"status": "error", "code": "bad_request",
                 "message": "body must be a JSON object"},
                keep_alive=keep_alive,
            )
            return True
        tenant = headers.get("x-tenant", "public")
        status, body, retry_after = await self._dispatch(tenant, request)
        await self._reply(
            writer, status, "application/json", body,
            keep_alive=keep_alive, retry_after=retry_after,
        )
        return True

    # -- admission + dispatch ----------------------------------------------

    async def _dispatch(
        self, tenant: str, request: dict
    ) -> tuple[int, bytes, float | None]:
        """Admission-controlled dispatch of one dictionary request.

        Returns ``(http status, response body, retry-after hint)``.
        Every path answers — sheds become typed 429/503 bodies, and an
        admitted request that outlives the end-to-end budget gets a
        typed 503 rather than a hang.
        """
        queue = self._queue
        loop = self._loop
        assert queue is not None and loop is not None
        method = request.get("method")
        try:
            ticket = self.admission.admit(
                tenant, method if isinstance(method, str) else "<unknown>"
            )
        except ShedError as shed:
            self._requests.labels(outcome="shed").inc()
            return shed.http_status, _body(shed.to_response()), shed.retry_after_s
        item = _Queued(
            priority=ticket.priority,
            seq=ticket.seq,
            ticket=ticket,
            request=request,
            future=loop.create_future(),
        )
        queue.put_nowait(item)
        try:
            response, body = await asyncio.wait_for(
                item.future, REQUEST_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            # The worker (or bridge) is still grinding; the depth slot
            # is released by whichever side touches the ticket last.
            shed = ShedError(
                f"request exceeded the door's {REQUEST_TIMEOUT_S:g}s "
                "budget",
                retry_after_s=self.admission.max_queue_wait,
            )
            self._requests.labels(outcome="timeout").inc()
            return shed.http_status, _body(shed.to_response()), shed.retry_after_s
        outcome = "ok" if response.get("status") == "ok" else "error"
        if response.get("code") in ("queue_timeout", "overloaded"):
            outcome = "shed"
        self._requests.labels(outcome=outcome).inc()
        retry = response.get("retry_after_s")
        status = 200 if response.get("status") == "ok" else 400
        if isinstance(retry, (int, float)):
            return 503, body, float(retry)
        return status, body, None

    async def _worker(self, bridge: ThreadPoolExecutor) -> None:
        """One dispatch slot: dequeue, age-check, bridge, resolve."""
        queue = self._queue
        loop = self._loop
        assert queue is not None and loop is not None
        while True:
            item = await queue.get()
            if item.future.done():
                # Client timed out (or vanished) while queued; the
                # ticket still holds a depth slot.
                self.admission.abandon(item.ticket)
                continue
            try:
                waited = self.admission.start(item.ticket)
            except ShedError as shed:
                self._resolve(item, shed.to_response(), _body(shed.to_response()))
                continue
            started = clock.now()
            response, body = await loop.run_in_executor(
                bridge, self.service.handle_json, item.request
            )
            exemplar = response.get("query_id")
            self.admission.finish(
                item.ticket,
                waited,
                clock.now() - started,
                exemplar=exemplar if isinstance(exemplar, str) else None,
            )
            self._resolve(item, response, body)

    def _resolve(self, item: _Queued, head: dict, body: bytes) -> None:
        if not item.future.done():
            item.future.set_result((head, body))

    # -- response writing --------------------------------------------------

    async def _reply_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        keep_alive: bool,
        retry_after: float | None = None,
    ) -> None:
        await self._reply(
            writer,
            status,
            "application/json",
            _body(payload),
            keep_alive=keep_alive,
            retry_after=retry_after,
        )

    async def _reply(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        content_type: str,
        body: bytes,
        *,
        keep_alive: bool,
        retry_after: float | None = None,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if retry_after is not None:
            head.append(f"Retry-After: {max(1, round(retry_after))}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await asyncio.wait_for(writer.drain(), IO_TIMEOUT_S)
