"""Per-host connection pooling with retries.

A :class:`ConnectionPool` fronts one node server.  A call checks a
:class:`~repro.net.client.NodeClient` out, owns it for one request and
its response, and hands it back; concurrent callers get a connection
each, dialled lazily up to the ceiling, and further callers wait inside
their deadline for a checkout.  An idle connection is examined at
checkout: one whose socket is readable — EOF from a node that restarted
or dropped it, or bytes nobody asked for — is closed and skipped, so a
pile of dead connections never costs a call (or a retry) each.

Retries: connection-level failures (:class:`NodeUnavailableError`,
:class:`ConnectionLostError`) are retried with the pool's
:class:`~repro.net.client.RetryPolicy`: every node RPC is a read, so a
replay changes nothing.  Every attempt draws from the one per-request
deadline, so retrying can never extend a request past its budget.  An
attempt's answer is one RESPONSE frame, so a failed attempt leaves
nothing behind for the retry to discard.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from repro.net.client import CallResult, NodeClient, RetryPolicy
from repro.net.codec import TRACE_HEADER_KEY, trace_context_to_wire
from repro.net.compress import CompressionConfig, DEFAULT_COMPRESSION
from repro.net.errors import (
    ConnectionLostError,
    NetError,
    NodeUnavailableError,
)
from repro.net.frame import Buffer, Deadline
from repro.obs import clock, tracing

#: Per-attempt budget for TCP connect + handshake (always additionally
#: capped by the request deadline).
CONNECT_TIMEOUT_S = 2.0

#: Consecutive :meth:`ConnectionPool.ping` failures after which every
#: pooled connection is evicted — a node that stops answering health
#: probes gets a clean slate of dials rather than a pile of half-dead
#: sockets.
MAX_PROBE_FAILURES = 3


class ConnectionPool:
    """A bounded pool of connections to one ``host:port``.

    Args:
        host: node server host.
        port: node server port.
        max_connections: connection ceiling; callers beyond it wait
            (within their deadline) for a checkout.
        retry: backoff policy for connection-level failures.
        on_retry: called once per retry, for the transport's metrics.
        pipeline: accepted and ignored (there is one connection mode).
        compression: codecs to advertise on new connections; defaults
            to the stock zlib configuration.
        on_ratio: callback fed each frame's achieved compression ratio.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_connections: int = 4,
        retry: RetryPolicy | None = None,
        on_retry: Callable[[], None] | None = None,
        # Held by the frozen benchmarks/e2e/probes.py (`_halo_probe`
        # passes pipeline=False); selects nothing.
        pipeline: bool = True,
        compression: CompressionConfig | None = None,
        on_ratio: Callable[[float], None] | None = None,
    ) -> None:
        if max_connections < 1:
            raise ValueError("a pool needs at least one connection")
        self.host = host
        self.port = port
        self.address = f"{host}:{port}"
        self.max_connections = max_connections
        self.retry = retry or RetryPolicy()
        self.compression = (
            compression if compression is not None else DEFAULT_COMPRESSION
        )
        self._on_ratio = on_ratio
        self.probe_failures = 0
        self._on_retry = on_retry
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._idle: list[NodeClient] = []
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
    ) -> CallResult:
        """One RPC with pooling, deadline and retries.

        Raises:
            DeadlineExceededError: the budget ran out (never retried).
            NodeUnavailableError: connection-level failure, once the
                retry policy's attempts are exhausted.
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
        attempt = 0
        while True:
            attempt_started = clock.now()
            try:
                result = self._call_once(method, header, blobs, deadline)
            except (NodeUnavailableError, ConnectionLostError) as error:
                attempt += 1
                if attempt >= self.retry.attempts:
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
                # clock stamps) on the response header; graft them
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
        with self._checkout(deadline) as client:
            return client.ping(deadline)

    def _record_probe_failure(self) -> None:
        """Count one failed probe; evict everything at the threshold."""
        with self._available:
            self.probe_failures += 1
            if self.probe_failures < MAX_PROBE_FAILURES:
                return
            self.probe_failures = 0
            idle, self._idle = self._idle, []
        for client in idle:
            client.close()

    @property
    def open_connections(self) -> int:
        """Connections the pool holds: idle, in a call or being dialled."""
        with self._lock:
            return len(self._idle) + self._checked_out

    def close(self) -> None:
        """Close every connection and refuse new calls."""
        with self._available:
            self._closed = True
            idle, self._idle = self._idle, []
            self._available.notify_all()
        for client in idle:
            client.close()

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
    ) -> CallResult:
        with self._checkout(deadline) as client:
            return client.call(method, header, blobs, deadline)

    @contextmanager
    def _checkout(self, deadline: Deadline) -> Iterator[NodeClient]:
        """A connection owned for one exchange, then handed back."""
        client = self._acquire(deadline)
        try:
            yield client
        except BaseException:
            # Any in-flight failure leaves request/response framing in an
            # unknown state; the connection is poisoned either way.
            self._discard(client)
            raise
        self._release(client)

    def _acquire(self, deadline: Deadline) -> NodeClient:
        """Check a connection out: an idle one, or a fresh dial."""
        while True:
            with self._available:
                if self._closed:
                    raise ConnectionLostError(
                        f"pool for {self.address} is closed"
                    )
                if self._idle:
                    client = self._idle.pop()
                    self._checked_out += 1
                elif self._checked_out < self.max_connections:
                    self._checked_out += 1
                    client = None
                else:
                    self._available.wait(timeout=deadline.remaining())
                    continue
            # Dial (and peek) with the pool unlocked: a connect plus
            # handshake can take the whole connect budget, and holding
            # the lock meanwhile would stall every other caller.
            if client is None:
                try:
                    client = self._connect(deadline)
                except BaseException:
                    self._return_slot()
                    raise
                with self._lock:
                    self.connections_created += 1
                return client
            if not client.stale():
                return client
            self._discard(client)

    def _connect(self, deadline: Deadline) -> NodeClient:
        budget = min(CONNECT_TIMEOUT_S, deadline.remaining())
        connect_deadline = Deadline(clock.now() + budget)
        return NodeClient(
            self.host,
            self.port,
            connect_deadline,
            compression=self.compression,
            on_ratio=self._on_ratio,
        )

    def _release(self, client: NodeClient) -> None:
        with self._available:
            self._checked_out -= 1
            if self._closed or client.closed:
                client.close()
            else:
                self._idle.append(client)
            self._available.notify()

    def _discard(self, client: NodeClient) -> None:
        client.close()
        self._return_slot()

    def _return_slot(self) -> None:
        with self._available:
            self._checked_out -= 1
            self._available.notify()
