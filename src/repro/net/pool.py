"""Per-host connection pooling with retries.

A :class:`ConnectionPool` fronts one node server.  A call checks a
:class:`~repro.net.client.NodeClient` out, owns it for one request and
its response, and hands it back; concurrent callers get a connection
each, dialled lazily up to the ceiling, and further callers wait inside
their deadline for a checkout, in short pauses rather than on a lock: a
driver running several calls on one thread
(:func:`~repro.net.client.run_all`) then goes on reading the replies
that hand connections back.  An idle connection is examined at
checkout: one whose socket is readable — EOF from a node that restarted
or dropped it, or bytes nobody asked for — is closed and skipped, so a
pile of dead connections never costs a call (or a retry) each.

Retries: connection-level failures (:class:`NodeUnavailableError`,
:class:`ConnectionLostError`) are retried with the pool's
:class:`~repro.net.client.RetryPolicy`: every node RPC is a read, so a
replay changes nothing.  Every attempt draws from the one per-request
deadline, so retrying can never extend a request past its budget.  An
attempt's answer is one RESPONSE frame, so a failed attempt leaves
nothing behind for the retry to discard.  The loop is an exchange
(:mod:`repro.net.client`): its backoff is a yielded pause, which
:meth:`ConnectionPool.call` sleeps and :func:`~repro.net.client.run_all`
overlaps with the other parts' replies.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from repro.net.client import (
    CallResult,
    Exchange,
    NodeClient,
    RetryPolicy,
    Wait,
    run_inline,
)
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

#: How long a call at the connection ceiling pauses before it looks for
#: a free connection again.
SLOT_RETRY_S = 0.001


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

        Raises the errors of :meth:`exchange`.
        """
        return run_inline(self.exchange(method, header, blobs, timeout=timeout))

    def exchange(
        self,
        method: str,
        header: dict,
        blobs: Sequence[Buffer],
        *,
        timeout: float,
    ) -> "Exchange[CallResult]":
        """:meth:`call` as an exchange (see :mod:`repro.net.client`).

        A retry's backoff is yielded as a pause, so
        :func:`~repro.net.client.run_all` keeps the other exchanges
        moving meanwhile.

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
                client = yield from self._acquire(deadline)
                with self._owned(client):
                    result = yield from client.exchange(
                        method, header, blobs, deadline
                    )
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
                # Back off inside the request budget; if the pause eats
                # the rest of it the next attempt raises DeadlineExceeded.
                pause = min(
                    self.retry.delay(attempt - 1),
                    deadline.remaining(),
                )
                if pause > 0:
                    yield Wait(None, clock.now() + pause)
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
                        client_recv=result.received_at,
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
        with self._owned(run_inline(self._acquire(deadline))) as client:
            return client.ping(deadline)

    def _record_probe_failure(self) -> None:
        """Count one failed probe; evict everything at the threshold."""
        with self._lock:
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
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for client in idle:
            client.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals -------------------------------------------------------------

    @contextmanager
    def _owned(self, client: NodeClient) -> Iterator[NodeClient]:
        """Own a checked-out connection for one exchange, then hand it back."""
        try:
            yield client
        except BaseException:
            # Any in-flight failure leaves request/response framing in an
            # unknown state; the connection is poisoned either way.
            self._discard(client)
            raise
        self._release(client)

    def _acquire(self, deadline: Deadline) -> "Exchange[NodeClient]":
        """Check a connection out: an idle one, or a fresh dial.

        At the ceiling this pauses (a yielded :class:`Wait`) and looks
        again, rather than waiting on a lock: the parts
        :func:`~repro.net.client.run_all` drives share a thread and may
        hold this pool's other connections, whose replies that thread
        must go on reading to hand them back.
        """
        while True:
            with self._lock:
                if self._closed:
                    raise ConnectionLostError(
                        f"pool for {self.address} is closed"
                    )
                full = not self._idle and (
                    self._checked_out >= self.max_connections
                )
                if not full:
                    self._checked_out += 1
                    client = self._idle.pop() if self._idle else None
            if full:
                deadline.remaining()  # raises once the budget is spent
                yield Wait(
                    None, min(clock.now() + SLOT_RETRY_S, deadline.expires_at)
                )
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
        with self._lock:
            self._checked_out -= 1
            if self._closed or client.closed:
                client.close()
            else:
                self._idle.append(client)

    def _discard(self, client: NodeClient) -> None:
        client.close()
        self._return_slot()

    def _return_slot(self) -> None:
        with self._lock:
            self._checked_out -= 1
