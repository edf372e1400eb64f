"""Per-host connection pooling with retries for idempotent reads.

A :class:`ConnectionPool` fronts one node server in one of two modes:

* **Pipelined (the default).**  The pool keeps one or two
  :class:`~repro.net.client.PipelinedConnection` objects and lets many
  requests share each socket concurrently — the scatter's per-node
  fan-out rides a couple of connections with deep in-flight queues
  instead of a connection per outstanding call.  New connections are
  only dialled when every live one is busy and the ceiling allows; a
  connection whose socket dies fails all of its outstanding requests
  and is discarded here.
* **Serial (``pipeline=False``).**  The original checkout model: a
  :class:`~repro.net.client.NodeClient` is exclusively owned for the
  duration of a call, with idle connections health-checked by ping
  before reuse.

Retries: connection-level failures (:class:`NodeUnavailableError`,
:class:`ConnectionLostError`) are retried with the pool's
:class:`~repro.net.client.RetryPolicy` **only when the caller marks the
call idempotent** — all query reads are; field registration is not.
Every attempt draws from the one per-request deadline, so retrying can
never extend a request past its budget.  A streamed call's sink is
reset at the start of every attempt, so chunks delivered before a
mid-flight failure are never double-counted.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.net.client import (
    CallResult,
    NodeClient,
    PipelinedConnection,
    RetryPolicy,
)
from repro.net.codec import TRACE_HEADER_KEY, trace_context_to_wire
from repro.net.compress import CompressionConfig, DEFAULT_COMPRESSION
from repro.net.errors import (
    ConnectionLostError,
    NetError,
    NodeUnavailableError,
    ProtocolError,
)
from repro.net.frame import Buffer, Deadline
from repro.net.stream import PartialSink
from repro.obs import clock, tracing

#: Per-attempt budget for TCP connect + handshake (always additionally
#: capped by the request deadline).
CONNECT_TIMEOUT_S = 2.0

#: Idle seconds after which a serial pooled connection is pinged before
#: reuse (pipelined connections detect death via their reader loop).
HEALTH_CHECK_IDLE_SECONDS = 30.0

#: Consecutive :meth:`ConnectionPool.ping` failures after which every
#: pooled connection is evicted — a node that stops answering health
#: probes gets a clean slate of dials rather than a pile of half-dead
#: sockets.
MAX_PROBE_FAILURES = 3


class _PooledConnection:
    """A serial client plus the bookkeeping the pool needs."""

    __slots__ = ("client", "last_used")

    def __init__(self, client: NodeClient) -> None:
        self.client = client
        self.last_used = clock.now()


class ConnectionPool:
    """A bounded pool of connections to one ``host:port``.

    Args:
        host: node server host.
        port: node server port.
        max_connections: connection ceiling.  Pipelined mode dials a new
            connection only when all live ones have requests in flight;
            serial mode makes further callers wait (within their
            deadline) for a checkout.
        retry: backoff policy for idempotent calls.
        on_retry: called once per retry, for the transport's metrics.
        pipeline: multiplex requests over shared connections (default)
            or check connections out serially.
        compression: codecs to advertise on new connections; defaults
            to the stock zlib configuration.
        on_ratio: callback fed each frame's achieved compression ratio.
        shm: offer servers a shared-memory payload ring on each new
            connection (same-host fast path; declined grants fall back
            to TCP transparently).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_connections: int = 4,
        retry: RetryPolicy | None = None,
        on_retry: Callable[[], None] | None = None,
        pipeline: bool = True,
        compression: CompressionConfig | None = None,
        on_ratio: Callable[[float], None] | None = None,
        shm: bool = False,
    ) -> None:
        if max_connections < 1:
            raise ValueError("a pool needs at least one connection")
        self.host = host
        self.port = port
        self.address = f"{host}:{port}"
        self.max_connections = max_connections
        self.retry = retry or RetryPolicy()
        self.pipeline = pipeline
        self.compression = (
            compression if compression is not None else DEFAULT_COMPRESSION
        )
        self._on_ratio = on_ratio
        self.shm = shm
        self.probe_failures = 0
        self._on_retry = on_retry
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._idle: list[_PooledConnection] = []
        self._pipes: list[PipelinedConnection] = []
        self._checked_out = 0
        self._closed = False
        self.connections_created = 0
        self.retries = 0

    # -- public API ------------------------------------------------------------

    def call(
        self,
        method: str,
        header: dict,
        blobs: Sequence[Buffer],
        *,
        timeout: float,
        idempotent: bool,
        sink: PartialSink | None = None,
    ) -> CallResult:
        """One RPC with pooling, deadline and (if idempotent) retries.

        Raises:
            DeadlineExceededError: the budget ran out (never retried).
            NodeUnavailableError: connection-level failure; for
                idempotent calls, only after the retry policy's attempts
                are exhausted.
            RemoteCallError: typed failure reported by the server.
        """
        deadline = Deadline.after(timeout)
        # Propagate the caller's trace context on the wire.  This is the
        # one choke point every outbound RPC passes through — the
        # transport's scatter calls and a node's own halo fetches to its
        # peers alike — so a mediator-rooted trace follows the request
        # graph transitively.
        context = tracing.current_context()
        if context is not None:
            header = {**header, TRACE_HEADER_KEY: trace_context_to_wire(context)}
        attempts_allowed = self.retry.attempts if idempotent else 1
        attempt = 0
        while True:
            attempt_started = clock.now()
            try:
                result = self._call_once(method, header, blobs, deadline, sink)
            except (NodeUnavailableError, ConnectionLostError) as error:
                attempt += 1
                if attempt >= attempts_allowed:
                    raise NodeUnavailableError(
                        self.address,
                        attempts=attempt,
                        message=(
                            f"node {self.address} unavailable after "
                            f"{attempt} attempt(s): {error}"
                        ),
                    ) from error
                self.retries += 1
                if self._on_retry is not None:
                    self._on_retry()
                # Back off inside the request budget; if the sleep eats
                # the rest of it the next attempt raises DeadlineExceeded.
                pause = min(
                    self.retry.delay(attempt - 1),
                    deadline.remaining(),
                )
                if pause > 0:
                    clock.sleep(pause)
            else:
                # The server piggybacks its captured spans (plus its own
                # clock stamps) on the final response header; graft them
                # under the current span using this attempt's send/recv
                # stamps for the midpoint skew estimate.  Per-attempt
                # stamps matter: a retried call's first attempt never
                # produced a response, so only the winning attempt's
                # round trip brackets the server's processing window.
                shipped = result.header.pop(TRACE_HEADER_KEY, None)
                if context is not None and shipped is not None:
                    tracing.absorb_remote(
                        shipped,
                        client_send=attempt_started,
                        client_recv=clock.now(),
                    )
                return result

    def ping(self, timeout: float) -> float:
        """Round-trip a health-check frame; returns wall seconds.

        Consecutive failures are counted; at :data:`MAX_PROBE_FAILURES`
        the pool evicts every connection it holds.  One success resets
        the count.
        """
        try:
            rtt = self._ping_once(timeout)
        except (NetError, OSError):
            self._record_probe_failure()
            raise
        with self._lock:
            self.probe_failures = 0
        return rtt

    def _ping_once(self, timeout: float) -> float:
        deadline = Deadline.after(timeout)
        if self.pipeline:
            pipe = self._pipe(deadline)
            try:
                return pipe.ping(deadline)
            except (ConnectionLostError, ProtocolError):
                self._discard_pipe(pipe)
                raise
        conn = self._acquire(deadline)
        try:
            rtt = conn.client.ping(deadline)
        except BaseException:
            self._discard(conn)
            raise
        self._release(conn)
        return rtt

    def _record_probe_failure(self) -> None:
        """Count one failed probe; evict everything at the threshold."""
        with self._available:
            self.probe_failures += 1
            if self.probe_failures < MAX_PROBE_FAILURES:
                return
            self.probe_failures = 0
            idle, self._idle = self._idle, []
            pipes, self._pipes = self._pipes, []
        for conn in idle:
            conn.client.close()
        for pipe in pipes:
            pipe.close()

    @property
    def open_connections(self) -> int:
        """Live connections the pool would hand out right now."""
        with self._lock:
            if self.pipeline:
                return sum(1 for pipe in self._pipes if pipe.usable)
            return len(self._idle) + self._checked_out

    def close(self) -> None:
        """Close every connection and refuse new calls."""
        with self._available:
            self._closed = True
            idle, self._idle = self._idle, []
            pipes, self._pipes = self._pipes, []
            self._available.notify_all()
        for conn in idle:
            conn.client.close()
        for pipe in pipes:
            pipe.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals -------------------------------------------------------------

    def _call_once(
        self,
        method: str,
        header: dict,
        blobs: Sequence[Buffer],
        deadline: Deadline,
        sink: PartialSink | None,
    ) -> CallResult:
        if sink is not None:
            # Fresh attempt, fresh sink: chunks streamed before a
            # mid-flight failure must not survive into the retry.
            sink.reset()
        if self.pipeline:
            pipe = self._pipe(deadline)
            try:
                return pipe.call(method, header, blobs, deadline, sink=sink)
            except (ConnectionLostError, ProtocolError):
                # Dead socket or desynced framing: nothing else may use
                # this connection again.
                self._discard_pipe(pipe)
                raise
        conn = self._acquire(deadline)
        try:
            result = conn.client.call(
                method, header, blobs, deadline, sink=sink
            )
        except BaseException:
            # Any in-flight failure leaves request/response framing in an
            # unknown state; the connection is poisoned either way.
            self._discard(conn)
            raise
        self._release(conn)
        return result

    # -- pipelined mode --------------------------------------------------------

    def _pipe(self, deadline: Deadline) -> PipelinedConnection:
        """The least-loaded live connection, growing up to the ceiling.

        A new connection is dialled only when every live one already has
        requests in flight — the scatter's whole fan-out to one node
        typically rides one or two sockets.
        """
        with self._lock:
            if self._closed:
                raise ConnectionLostError(f"pool for {self.address} is closed")
            dead = [pipe for pipe in self._pipes if not pipe.usable]
            self._pipes = [pipe for pipe in self._pipes if pipe not in dead]
            best = min(
                self._pipes, key=lambda pipe: pipe.in_flight, default=None
            )
            if (
                best is not None
                and best.in_flight
                and len(self._pipes) < self.max_connections
            ):
                best = None
            budget = min(CONNECT_TIMEOUT_S, deadline.remaining())
        # A connection whose node died while it sat idle is found here and
        # nowhere else (no call was in flight to discard it): close it, with
        # the pool unlocked, or its sockets and shm ring outlive the node.
        for pipe in dead:
            pipe.close()
        if best is not None:
            return best
        # Dial with the pool unlocked: the TCP connect plus handshake can
        # take the whole connect budget, and holding the lock meanwhile
        # would stall every other caller fanning out to this node.
        pipe = PipelinedConnection(
            self.host,
            self.port,
            Deadline(clock.now() + budget),
            compression=self.compression,
            on_ratio=self._on_ratio,
            shm=self.shm,
        )
        stale: PipelinedConnection | None = None
        with self._lock:
            if self._closed:
                stale = pipe
            elif len(self._pipes) >= self.max_connections:
                # Another caller grew the pool while we dialled; keep the
                # ceiling and ride an existing connection instead.
                stale = pipe
                pipe = min(self._pipes, key=lambda p: p.in_flight)
            else:
                self._pipes.append(pipe)
                self.connections_created += 1
        if stale is not None:
            stale.close()
            if self._closed:
                raise ConnectionLostError(
                    f"pool for {self.address} is closed"
                )
        return pipe

    def _discard_pipe(self, pipe: PipelinedConnection) -> None:
        with self._lock:
            if pipe in self._pipes:
                self._pipes.remove(pipe)
        pipe.close()

    # -- serial mode -----------------------------------------------------------

    def _acquire(self, deadline: Deadline) -> _PooledConnection:
        while True:
            with self._available:
                if self._closed:
                    raise ConnectionLostError(
                        f"pool for {self.address} is closed"
                    )
                if self._idle:
                    conn = self._idle.pop()
                    self._checked_out += 1
                elif self._checked_out < self.max_connections:
                    self._checked_out += 1
                    conn = None
                else:
                    self._available.wait(timeout=deadline.remaining())
                    continue
            if conn is None:
                try:
                    conn = _PooledConnection(self._connect(deadline))
                except BaseException:
                    self._return_slot()
                    raise
                with self._lock:
                    self.connections_created += 1
                return conn
            try:
                if self._healthy(conn, deadline):
                    return conn
            except BaseException:
                # A health ping that ran out of budget (or failed in any
                # way `_healthy` does not judge) must not keep the slot.
                self._discard(conn)
                raise
            self._return_slot()

    def _connect(self, deadline: Deadline) -> NodeClient:
        budget = min(CONNECT_TIMEOUT_S, deadline.remaining())
        connect_deadline = Deadline(clock.now() + budget)
        return NodeClient(
            self.host,
            self.port,
            connect_deadline,
            compression=self.compression,
            on_ratio=self._on_ratio,
            shm=self.shm,
        )

    def _healthy(self, conn: _PooledConnection, deadline: Deadline) -> bool:
        """Ping a connection that sat idle too long; close it if stale."""
        if clock.now() - conn.last_used < HEALTH_CHECK_IDLE_SECONDS:
            return True
        try:
            conn.client.ping(deadline)
        except (ConnectionLostError, NodeUnavailableError, OSError):
            conn.client.close()
            return False
        conn.last_used = clock.now()
        return True

    def _release(self, conn: _PooledConnection) -> None:
        conn.last_used = clock.now()
        with self._available:
            self._checked_out -= 1
            if self._closed or conn.client.closed:
                conn.client.close()
            else:
                self._idle.append(conn)
            self._available.notify()

    def _discard(self, conn: _PooledConnection) -> None:
        conn.client.close()
        self._return_slot()

    def _return_slot(self) -> None:
        with self._available:
            self._checked_out -= 1
            self._available.notify()
