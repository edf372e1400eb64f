"""Where the mediator's per-node query parts execute.

The mediator splits every query into per-node parts (paper §2); a
:class:`Transport` is the seam deciding whether those parts run as
function calls in this process (:class:`InProcessTransport`, the seed
behaviour, bit-for-bit) or as RPCs to node-server processes over the
:mod:`repro.net` wire protocol (:class:`TcpTransport`).

``TcpTransport`` instruments every RPC: a ``net.rpc`` trace span nests
under the query's ``node.part`` span, the ``rpc_*`` metric families
count requests/retries/latency/bytes, and each part result's ledger
carries the *actual* wire bytes under :data:`METER_WIRE_BYTES` so the
cost model's MEDIATOR_DB transfer can be reconciled against reality.
With compression negotiated (the default), those wire bytes are the
*compressed* footprint — what truly crossed the LAN — and the
``net_compression_ratio`` histogram records how far each frame shrank.

Each RPC owns one pooled connection for its request and response (the
mediator sends one part per node per query, so a node sees as many
concurrent RPCs as there are concurrent queries), and a node's whole
share of an answer arrives in that call's one RESPONSE frame.  Every
call is written once, as an exchange (:mod:`repro.net.client`):
:meth:`TcpTransport.part_exchange` is what the mediator's scatter
drives — all parts' requests written, then one wait on all their
sockets on the mediator's own thread — and :meth:`TcpTransport.part`,
:meth:`~TcpTransport.threshold_part` and :meth:`TcpTransport.call`
drive the same exchange inline.

Every transport implements the part path once — :meth:`Transport.part`,
driven by the :class:`~repro.net.kinds.QueryKind` table.  The mediator
calls it for every kind but threshold, which keeps the typed
:meth:`Transport.threshold_part` name the benchmark probe times.

Replication is data, not a second transport: ``TcpTransport`` routes
each *shard* call over the shard's replicas in a
:class:`~repro.ha.placement.PlacementMap` with health/latency awareness
and mid-query failover.  With no placement given it builds the
replication-factor-1 map, which sends shard *i* to node *i* — the
unreplicated layout, answer for answer and error for error.
:data:`repro.ha.HaTcpTransport` is this same class, and node servers
reach their peers' halo bands through one too: :meth:`TcpTransport.call`
is the cluster's only loop that picks a replica and fails over.
"""

from __future__ import annotations

import abc
import threading
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.query import ThresholdQuery
from repro.core.threshold import NodeThresholdResult
from repro.costmodel import ClusterSpec
from repro.costmodel.ledger import METER_WIRE_BYTES
from repro.grid import Box
from repro.net.client import CallResult, Exchange, RetryPolicy, run_inline
from repro.net.compress import CompressionConfig
from repro.net.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    NetError,
    NoLiveReplicaError,
    NodeUnavailableError,
    ProtocolError,
    RemoteCallError,
)
from repro.net.frame import Buffer
from repro.net.kinds import KINDS, NodeContext, QueryKind
from repro.net.pool import ConnectionPool
from repro.obs import clock, tracing
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.mediator import Mediator
    from repro.ha.placement import PlacementMap
    from repro.ha.router import ReplicaRouter

#: Default per-RPC budget: generous enough for a cold full-domain scan
#: on CI hardware, small enough that a hung node fails the query rather
#: than the session.
DEFAULT_RPC_TIMEOUT = 60.0

#: Remote error names (a node's failed halo reads, surfaced as typed
#: ERROR frames) that mean "this replica cannot answer right now" —
#: with the local connection failures, the only failures worth retrying
#: on a different replica.  ``NoLiveReplicaError`` is a node whose own
#: halo call ran out of replicas of a peer shard.
_FAILOVER_TYPES = frozenset(
    {
        "ConnectionLostError",
        "DeadlineExceededError",
        "NodeUnavailableError",
        "NoLiveReplicaError",
    }
)


def failover_worthy(error: NetError) -> bool:
    """Whether an error indicates a dead/unreachable replica.

    Connection loss, node unavailability and a blown deadline all mean
    the *replica* failed, not the request; a typed remote error whose
    remote type is one of those names is a node that answered but could
    not reach a dependency (its own halo peer died mid-query) — another
    replica with a different halo topology may still succeed.
    """
    if isinstance(
        error,
        (ConnectionLostError, DeadlineExceededError, NodeUnavailableError),
    ):
        return True
    return (
        isinstance(error, RemoteCallError)
        and error.remote_type in _FAILOVER_TYPES
    )


class Transport(abc.ABC):
    """The mediator's access path to its per-node query parts."""

    @property
    @abc.abstractmethod
    def node_count(self) -> int:
        """How many nodes answer queries through this transport."""

    @abc.abstractmethod
    def part(
        self,
        kind: QueryKind,
        node_id: int,
        request: Any,
        boxes: list[Box],
        *,
        timeout: float | None = None,
        **options: Any,
    ) -> Any:
        """One node's share of a query of any kind — the one part path.

        ``options`` are the kind's per-part options (``kind.options``).
        ``timeout`` bounds the part in wall seconds on networked
        transports (``None`` uses the transport's configured default);
        in-process parts run inline and ignore it.
        """

    def threshold_part(
        self,
        node_id: int,
        query: ThresholdQuery,
        boxes: list[Box],
        *,
        use_cache: bool,
        processes: int,
        io_only: bool,
        timeout: float | None = None,
    ) -> NodeThresholdResult:
        """One node's share of a threshold query."""
        return self.part(
            KINDS["threshold"], node_id, query, boxes, timeout=timeout,
            use_cache=use_cache, processes=processes, io_only=io_only,
        )

    @abc.abstractmethod
    def dataset_side(self, dataset: str) -> int:
        """Grid side of a hosted dataset (raises :class:`KeyError`)."""

    @abc.abstractmethod
    def dataset_names(self, *, timeout: float | None = None) -> list[str]:
        """Sorted names of every dataset hosted behind this transport."""

    def attach(self, metrics: MetricsRegistry, spec: ClusterSpec) -> None:
        """Hook the mediator's metrics registry and hardware spec in."""

    def close(self) -> None:
        """Release transport resources (idempotent)."""


class InProcessTransport(Transport):
    """Parts run as direct function calls against the mediator's nodes.

    This preserves the seed engine's behaviour exactly: the transport
    reads the mediator's live ``nodes``/``executors``/``caches`` lists
    (not copies), so cache clears and experiment resets keep working.
    """

    def __init__(self, mediator: "Mediator") -> None:
        self._mediator = mediator

    @property
    def node_count(self) -> int:
        return len(self._mediator.nodes)

    def part(
        self,
        kind: QueryKind,
        node_id: int,
        request: Any,
        boxes: list[Box],
        *,
        timeout: float | None = None,
        **options: Any,
    ) -> Any:
        # ``timeout`` is part of the transport contract but has nothing
        # to arm here: in-process parts never touch a socket.
        m = self._mediator
        context = NodeContext(
            m.nodes[node_id],
            m.executors[node_id],
            m.caches[node_id],
            m.pdf_caches[node_id],
            m.registry,
        )
        return kind.run(context, request, boxes, **options)

    def dataset_side(self, dataset: str) -> int:
        return self._mediator.nodes[0].dataset(dataset).side

    def dataset_names(self, *, timeout: float | None = None) -> list[str]:
        return sorted(
            {
                name
                for node in self._mediator.nodes
                for name in node.dataset_names
            }
        )


def parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    """Normalise ``"host:port"`` (or a pre-split pair) to ``(host, port)``."""
    if isinstance(address, tuple):
        host, port = address
        return str(host), int(port)
    host, sep, port_text = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {address!r} is not host:port")
    return host, int(port_text)


class TcpTransport(Transport):
    """Parts run as RPCs to ``serve-node`` processes, routed over replicas.

    Callers address *shards* — the mediator's scatter is one part per
    Morton shard, a node server's halo read one call per peer shard —
    and this transport maps each shard call to the best live
    replica via a :class:`~repro.ha.router.ReplicaRouter` and, when the
    call dies with a connection-level failure, retries the *same part*
    against the next surviving replica:

    * only the lost shard's sub-ranges are re-scattered — the other
      parts of the query never notice;
    * a part's answer is one RESPONSE frame, so a reply cut off by the
      dead node leaves nothing behind and the part restarts clean;
    * parts are gathered in shard order and merged with
      ``merge_sorted_runs``, so the final answer is byte-identical no
      matter which replica served which part.

    Every node RPC is a read, so every one may fail over.  A shard with
    one replica has nowhere to fail over to, so its node's own error
    propagates; otherwise exhausting the replicas raises
    :class:`~repro.net.errors.NoLiveReplicaError` carrying the shard and
    the attempted node ids.

    Args:
        addresses: one ``"host:port"`` (or pair) per node, in node-id
            order matching the cluster's partitioner.
        placement: replica placement of the partitioner's shards onto
            those nodes; defaults to replication factor 1 (shard *i* on
            node *i*, the unreplicated layout).
        router: replica router; built from the placement when omitted.
        heartbeat_interval: when set on a replicated placement, starts
            the router's background health probe at this period
            (seconds, positive), so a dead replica is demoted between
            queries; ``None`` (default) leaves health tracking to the
            calls themselves.  An unreplicated placement never probes:
            its shards have no other replica to prefer.
        timeout: per-RPC deadline in wall seconds.  Retries of a failed
            call share this one budget.
        retry: backoff policy for connection-level failures.
        compression: codecs advertised during the handshake; defaults
            to the stock zlib configuration.  Pass
            :data:`~repro.net.compress.NO_COMPRESSION` to force raw
            frames.
    """

    def __init__(
        self,
        addresses: Sequence["str | tuple[str, int]"],
        *,
        placement: "PlacementMap | None" = None,
        router: "ReplicaRouter | None" = None,
        heartbeat_interval: float | None = None,
        timeout: float = DEFAULT_RPC_TIMEOUT,
        retry: RetryPolicy | None = None,
        compression: CompressionConfig | None = None,
    ) -> None:
        # Imported here, not at module top: repro.ha's package import
        # reaches back into this module (anti-entropy uses
        # DEFAULT_RPC_TIMEOUT, and repro.ha.HaTcpTransport is this class).
        from repro.ha.placement import PlacementMap
        from repro.ha.router import ReplicaRouter

        if not addresses:
            raise ValueError("a TCP transport needs at least one node address")
        if timeout <= 0:
            raise ValueError("the RPC timeout must be positive")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("the heartbeat interval must be positive")
        self.timeout = timeout
        self.pools = [
            ConnectionPool(
                host,
                port,
                # One connection per in-flight part, dialled lazily; a
                # node is asked for one part per query, so this bounds
                # the concurrent queries one node serves for us.
                max_connections=8,
                retry=retry,
                on_retry=self._observe_retry,
                compression=compression,
                on_ratio=self._observe_ratio,
            )
            for host, port in map(parse_address, addresses)
        ]
        if placement is None:
            placement = PlacementMap(len(self.pools), len(self.pools), 1)
        elif placement.nodes != len(self.pools):
            raise ValueError(
                f"placement spans {placement.nodes} nodes but "
                f"{len(self.pools)} addresses were given"
            )
        self.placement = placement
        self.router = router or ReplicaRouter(
            placement,
            probe=self._probe,
            heartbeat_interval=(
                5.0 if heartbeat_interval is None else heartbeat_interval
            ),
        )
        self._describe_lock = threading.Lock()
        self._datasets: list[dict] | None = None
        self._m_requests = None
        self._m_latency = None
        self._m_retries = None
        self._m_sent = None
        self._m_received = None
        self._m_ratio = None
        self._m_failovers = None
        if heartbeat_interval is not None and placement.replication_factor > 1:
            self.router.start_heartbeat()

    def _probe(self, node_id: int) -> float:
        """Heartbeat ping with a budget far below the RPC timeout."""
        return self.ping(node_id, timeout=min(2.0, self.timeout))

    # -- instrumentation -------------------------------------------------------

    def attach(self, metrics: MetricsRegistry, spec: ClusterSpec) -> None:
        self._m_requests = metrics.counter(
            "rpc_requests_total",
            "Node RPCs issued, by method and outcome",
            labelnames=["method", "status"],
        )
        self._m_latency = metrics.histogram(
            "rpc_latency_seconds",
            "Wall seconds per node RPC (including retries)",
            buckets=[0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0],
        )
        self._m_retries = metrics.counter(
            "rpc_retries_total", "Node RPC attempts beyond the first"
        )
        self._m_sent = metrics.counter(
            "rpc_bytes_sent_total", "Request bytes put on the wire"
        )
        self._m_received = metrics.counter(
            "rpc_bytes_received_total", "Response bytes read off the wire"
        )
        self._m_ratio = metrics.histogram(
            "net_compression_ratio",
            "Raw/compressed size ratio per compressed frame",
            buckets=[1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0],
        )
        self._m_failovers = metrics.counter(
            "ha_failovers_total",
            "Shard parts retried on another replica after a node failure",
        )
        metrics.gauge_callback(
            "ha_replica_unhealthy",
            lambda: float(self.router.unhealthy_count()),
            "Nodes currently over the router's failure threshold",
        )

    def _observe_retry(self) -> None:
        if self._m_retries is not None:
            self._m_retries.inc()

    def _observe_ratio(self, ratio: float) -> None:
        if self._m_ratio is not None:
            self._m_ratio.observe(ratio)

    # -- calls -----------------------------------------------------------------

    def _node_exchange(
        self,
        node_id: int,
        method: str,
        header: dict,
        blobs: Sequence[Buffer],
        timeout: float | None,
    ) -> "Exchange[CallResult]":
        """One instrumented RPC to a specific *node*, as an exchange.

        Feeds the ``rpc_*`` metrics, the ``net.rpc`` span and the
        router's health/EWMA record for that node.  A successful call's
        latency ends when its reply was there to read
        (:attr:`CallResult.received_at`).
        """
        pool = self.pools[node_id]
        start = clock.now()
        status = "ok"
        received_at: float | None = None
        with tracing.span(
            "net.rpc", node=node_id, method=method, address=pool.address
        ) as span:
            try:
                result = yield from pool.exchange(
                    method,
                    header,
                    blobs,
                    timeout=timeout if timeout is not None else self.timeout,
                )
                received_at = result.received_at
            except BaseException as error:
                # GeneratorExit included: a scatter that failed elsewhere
                # closed this call before its reply came.
                status = type(error).__name__
                span.set("error", status)
                # The remote side of this call is unaccounted for: its
                # spans never shipped back, so whatever subtree hangs
                # under this RPC is explicitly an orphan, not a gap.
                tracing.mark_orphaned(span, status)
                if isinstance(error, NetError) and failover_worthy(error):
                    self.router.record_failure(node_id)
                raise
            finally:
                elapsed = (
                    clock.now() if received_at is None else received_at
                ) - start
                if self._m_requests is not None:
                    self._m_requests.labels(method=method, status=status).inc()
                if self._m_latency is not None:
                    # The exemplar ties this latency observation back to
                    # the trace that produced it (p99 bucket -> trace id).
                    self._m_latency.observe(
                        elapsed, exemplar=span.trace_id or None
                    )
            self.router.record_success(node_id, elapsed)
            span.set("bytes_sent", result.bytes_sent)
            span.set("bytes_received", result.bytes_received)
        if self._m_sent is not None:
            self._m_sent.inc(result.bytes_sent)
            self._m_received.inc(result.bytes_received)
        return result

    def call(
        self,
        shard: int,
        method: str,
        header: dict,
        blobs: Sequence[Buffer] = (),
        *,
        timeout: float | None = None,
    ) -> CallResult:
        """One *shard* call, failing over across the shard's replicas.

        Halo reads, ``describe`` and catch-up call here; this drives
        :meth:`exchange` on the calling thread.
        """
        return run_inline(
            self.exchange(shard, method, header, blobs, timeout=timeout)
        )

    def exchange(
        self,
        shard: int,
        method: str,
        header: dict,
        blobs: Sequence[Buffer] = (),
        *,
        timeout: float | None = None,
    ) -> "Exchange[CallResult]":
        """:meth:`call` as an exchange (see :mod:`repro.net.client`).

        The cluster's one failover loop: the mediator's query parts and
        a node server's halo reads of a peer shard both run here.  Each
        attempt gets its own deadline.
        """
        candidates = self.router.route(shard)
        attempted: list[int] = []
        last_error: NetError | None = None
        for replica in candidates:
            try:
                if not attempted:
                    return (
                        yield from self._node_exchange(
                            replica, method, header, blobs, timeout
                        )
                    )
                # A failover retry: the previous replica died mid-part.
                # The span brackets the replacement attempt, so its
                # duration is the part's failover-added latency.
                if self._m_failovers is not None:
                    self._m_failovers.inc()
                with tracing.span(
                    "ha.failover", shard=shard, dead=attempted[-1],
                    retry=replica, method=method,
                ) as span:
                    try:
                        return (
                            yield from self._node_exchange(
                                replica, method, header, blobs, timeout
                            )
                        )
                    except NetError as error:
                        span.set("error", type(error).__name__)
                        raise
            except NetError as error:
                if len(candidates) == 1 or not failover_worthy(error):
                    raise
                attempted.append(replica)
                last_error = error
        raise NoLiveReplicaError(
            shard,
            tuple(attempted),
            f"shard {shard}: no live replica (tried nodes "
            f"{attempted}): {last_error}",
        ) from last_error

    # -- query parts -----------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.pools)

    def part(
        self,
        kind: QueryKind,
        node_id: int,
        request: Any,
        boxes: list[Box],
        *,
        timeout: float | None = None,
        **options: Any,
    ) -> Any:
        return run_inline(
            self.part_exchange(
                kind, node_id, request, boxes, timeout=timeout, **options
            )
        )

    def part_exchange(
        self,
        kind: QueryKind,
        node_id: int,
        request: Any,
        boxes: list[Box],
        *,
        timeout: float | None = None,
        **options: Any,
    ) -> "Exchange[Any]":
        """:meth:`part` as an exchange, for the mediator's scatter loop."""
        call = yield from self.exchange(
            node_id,
            kind.name,
            kind.request_header(request, boxes, options),
            timeout=timeout,
        )
        result = kind.result_from_wire(call.header, call.blobs)
        # The mediator separately *models* the mediator<->node transfer
        # (``Category.MEDIATOR_DB``, from the spec's LAN); this meter is
        # the measured footprint the model is reconciled against.
        kind.part_ledger(result).count(
            METER_WIRE_BYTES, call.bytes_sent + call.bytes_received
        )
        return result

    # -- catalogue and control -------------------------------------------------

    def _describe(self, timeout: float | None = None) -> list[dict]:
        """Shard 0's dataset catalogue, fetched once and cached."""
        with self._describe_lock:
            if self._datasets is not None:
                return self._datasets
        # Fetch with the lock released: the RPC can take the full call
        # timeout and must not serialize unrelated catalogue lookups.
        # Concurrent first callers may fetch twice; the first answer to
        # land wins.
        call = self.call(0, "describe", {}, timeout=timeout)
        datasets = call.header.get("datasets")
        if not isinstance(datasets, list):
            raise ProtocolError("describe response has no datasets")
        with self._describe_lock:
            if self._datasets is None:
                self._datasets = datasets
            return self._datasets

    def dataset_side(self, dataset: str) -> int:
        for record in self._describe():
            if record.get("name") == dataset:
                return int(record["side"])
        raise KeyError(f"cluster hosts no dataset {dataset!r}")

    def dataset_names(self, *, timeout: float | None = None) -> list[str]:
        return sorted(
            str(record["name"]) for record in self._describe(timeout)
        )

    def ping(self, node_id: int, timeout: float | None = None) -> float:
        """Health-check one node; returns round-trip wall seconds."""
        return self.pools[node_id].ping(
            timeout if timeout is not None else self.timeout
        )

    def close(self) -> None:
        self.router.close()
        for pool in self.pools:
            pool.close()

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
