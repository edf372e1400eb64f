"""The web-server/mediator tier: request splitting, async scheduling, assembly.

"The Web-server acts as a mediator sending the users' requests to the
database nodes and initiating their distributed evaluation.  Each
request is broken down into multiple parts based on the spatial layout
of the data.  Each part is asynchronously submitted for evaluation to
the database which stores the data needed" (paper §2).

The mediator here does exactly that, then assembles the per-node
results, charges the mediator<->node (LAN) and mediator<->user (WAN,
XML-inflated) transfers, and enforces the global result limit.

Over TCP the submission is literal and needs no thread: on the calling
thread, each part writes its request on its own pooled connection, and
one ``selectors`` wait gathers every reply
(:func:`repro.net.client.run_all`).  A node's whole share of the answer
comes back in its call's one RESPONSE frame — at most the 10^6-point
result limit, 16 MB of columns — so the gather here sees exactly the
Morton-sorted columns the in-process cluster produces.  In-process
parts are compute, and run on a thread pool.
"""

from __future__ import annotations

import contextvars
import functools
import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

import numpy as np

from repro.core.batch import BatchThresholdResult, check_batchable
from repro.core.cache import SemanticCache
from repro.core.executor import NodeExecutor
from repro.core.limits import MAX_RESULT_POINTS
from repro.core.query import (
    PdfQuery,
    PdfResult,
    ThresholdQuery,
    ThresholdResult,
    TopKQuery,
    TopKResult,
)
from repro.cluster.node import DatabaseNode
from repro.cluster.partition import MortonPartitioner
from repro.costmodel import Category, ClusterSpec, CostLedger, paper_cluster
from repro.costmodel.ledger import METER_IO_BYTES
from repro.fields import gradient_tensor_interior, kernel_half_width
from repro.fields.derived import DerivedField, FieldRegistry, default_registry
from repro.net.client import Exchange, run_all, run_inline
from repro.net.errors import (
    DeadlineExceededError,
    NetError,
    PartialFailureError,
    UnsupportedRemoteOperationError,
)
from repro.net.frame import Deadline
from repro.net.kinds import KINDS, Assembled, Gather, QueryKind
from repro.net.transport import InProcessTransport, TcpTransport, Transport
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.grid import Box
from repro.simulation.datasets import SyntheticDataset
from repro.simulation.ingest import atomize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pdfcache import PdfCache

T = TypeVar("T")


@dataclass
class ServiceStatistics:
    """Running counters of the service's workload (paper §5.2 observes
    "fairly high cache-hit ratios as the workload is very structured")."""

    threshold_queries: int = 0
    node_queries: int = 0
    node_cache_hits: int = 0
    points_returned: int = 0
    simulated_seconds: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of node-level queries answered from the cache."""
        if self.node_queries == 0:
            return 0.0
        return self.node_cache_hits / self.node_queries

    def _record(self, nodes: int, hits: int, points: int, seconds: float) -> None:
        with self._lock:
            self.threshold_queries += 1
            self.node_queries += nodes
            self.node_cache_hits += hits
            self.points_returned += points
            self.simulated_seconds += seconds


class Mediator:
    """Front-end of the analysis cluster.

    Args:
        nodes: the database nodes, indexed by node id.
        partitioner: spatial partitioner matching the nodes.
        registry: derived-field registry (defaults to the stock one).
        spec: cluster hardware spec for network charging.
        cache_capacity_bytes: per-node semantic-cache budget; ``None``
            disables the cache entirely.
        transport: where per-node query parts execute.  ``None`` (the
            default) runs them in this process against ``nodes``, the
            seed behaviour; a :class:`~repro.net.transport.TcpTransport`
            runs them against ``serve-node`` processes, in which case
            ``nodes`` is empty and the transport's node count must match
            the partitioner.
        scatter_timeout: wall-second budget for gathering one query's
            node parts; on expiry outstanding parts are closed (TCP) or
            cancelled and drained (in-process) and
            :class:`DeadlineExceededError` is raised.
    """

    def __init__(
        self,
        nodes: Sequence[DatabaseNode],
        partitioner: MortonPartitioner,
        registry: FieldRegistry | None = None,
        spec: ClusterSpec | None = None,
        cache_capacity_bytes: int | None = 256 * 1024 * 1024,
        sequential_scatter: bool = False,
        transport: Transport | None = None,
        scatter_timeout: float = 600.0,
    ) -> None:
        if transport is None:
            if len(nodes) != partitioner.nodes:
                raise ValueError(
                    f"{len(nodes)} nodes but partitioner expects "
                    f"{partitioner.nodes}"
                )
        elif transport.node_count != partitioner.nodes:
            raise ValueError(
                f"transport reaches {transport.node_count} nodes but "
                f"partitioner expects {partitioner.nodes}"
            )
        if scatter_timeout <= 0:
            raise ValueError("scatter_timeout must be positive")
        self.nodes = list(nodes)
        self.partitioner = partitioner
        self.sequential_scatter = sequential_scatter
        self.scatter_timeout = scatter_timeout
        self.statistics = ServiceStatistics()
        # One long-lived scatter pool per mediator, created lazily on
        # first in-process scatter (TCP parts need no thread): building
        # a ThreadPoolExecutor per query costs thread spawns on the
        # latency-critical path and briefly doubles the thread count
        # under concurrent clients.
        self._scatter_pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self.registry = registry or default_registry()
        self.spec = spec or paper_cluster()
        self.executors = [
            NodeExecutor(node, self.nodes, partitioner) for node in self.nodes
        ]
        self.caches: list[SemanticCache | None]
        self.pdf_caches: list["PdfCache | None"]
        if cache_capacity_bytes is None:
            self.caches = [None] * len(self.nodes)
            self.pdf_caches = [None] * len(self.nodes)
        else:
            from repro.core.pdfcache import PdfCache

            self.caches = [
                SemanticCache(
                    node.db,
                    capacity_bytes=cache_capacity_bytes,
                    point_record_bytes=self.spec.point_record_bytes,
                )
                for node in self.nodes
            ]
            self.pdf_caches = [PdfCache(node.db) for node in self.nodes]
        self.transport: Transport = transport or InProcessTransport(self)
        self.metrics = MetricsRegistry()
        self.transport.attach(self.metrics, self.spec)
        self._build_instruments()

    @property
    def node_count(self) -> int:
        """Nodes participating in every query (local or behind RPCs)."""
        return self.partitioner.nodes

    def _build_instruments(self) -> None:
        """Register this mediator's metric families and engine samplers.

        Counters on the query path are incremented once per query (see
        :meth:`_observe_query`); engine-internal statistics the hot paths
        keep as plain integers are exposed through export-time sampling
        callbacks, so an idle (unscraped) cluster pays nothing for them.
        The samplers read the nodes this mediator owns; one that fronts
        remote nodes registers none rather than export zeros for a
        cluster that is busy.
        """
        self._m_queries = self.metrics.counter(
            "queries_total", "Queries served, by kind", labelnames=["kind"]
        )
        self._m_points = self.metrics.counter(
            "result_points_total", "Points returned to clients"
        )
        self._m_cache_hits = self.metrics.counter(
            "semantic_cache_hits_total",
            "Node-level semantic-cache hits (whole node share served)",
        )
        self._m_cache_misses = self.metrics.counter(
            "semantic_cache_misses_total",
            "Node-level semantic-cache misses",
        )
        self._m_sim_seconds = self.metrics.counter(
            "simulated_seconds_total",
            "Simulated seconds, by Figure-9 cost category",
            labelnames=["category"],
        )
        self._m_io_bytes = self.metrics.counter(
            "io_bytes_total", "Raw bytes read from the atom tables"
        )
        self._m_fanout = self.metrics.histogram(
            "scatter_fanout",
            "Participating nodes per query",
            buckets=[1, 2, 4, 8, 16, 32],
        )
        # Pre-resolved series for the hot query path: labels() takes the
        # family lock on every call, so the per-query observation code
        # uses these bound series instead.
        self._m_queries_by_kind = {
            kind: self._m_queries.labels(kind=kind) for kind in KINDS
        }
        self._m_sim_by_category = {
            category.value: self._m_sim_seconds.labels(category=category.value)
            for category in Category
        }
        if not self.nodes:
            return

        storage_keys = (
            "bufferpool_hits", "bufferpool_misses", "btree_splits",
            "txn_begun", "txn_committed", "txn_aborted", "txn_conflicts",
        )
        for key in storage_keys:
            self.metrics.gauge_callback(
                f"storage_{key}",
                lambda key=key: sum(
                    node.db.storage_stats()[key]
                    for node in self.nodes
                ),
                f"Cluster-wide {key.replace('_', ' ')} (sampled at export)",
            )

        def hit_rate() -> float:
            hits = misses = 0.0
            for node in self.nodes:
                stats = node.db.storage_stats()
                hits += stats["bufferpool_hits"]
                misses += stats["bufferpool_misses"]
            return hits / (hits + misses) if hits + misses else 0.0

        self.metrics.gauge_callback(
            "storage_bufferpool_hit_rate",
            hit_rate,
            "Cluster-wide buffer-pool hit rate (sampled at export)",
        )

        # Columnar fast-path observability (ISSUE 3): how many packed
        # chunks lookups skipped without decoding, and how many rows
        # went through the storage engine's bulk-insert path.
        self.metrics.gauge_callback(
            "cache_chunks_pruned",
            lambda: float(sum(
                cache.stats.snapshot()["chunks_pruned"]
                for cache in self.caches
                if cache is not None
            )),
            "Packed cacheData chunks pruned by Morton/value metadata",
        )
        self.metrics.gauge_callback(
            "bulk_insert_rows",
            lambda: sum(
                node.db.storage_stats().get("bulk_insert_rows", 0.0)
                for node in self.nodes
            ),
            "Rows written through Table.insert_many across the cluster",
        )

        cache_keys = (
            "hits", "misses", "dominance_rejections", "evictions",
            "stored_points", "stored_bytes", "chunks_pruned",
        )
        for key in cache_keys:
            self.metrics.gauge_callback(
                f"semantic_cache_probe_{key}",
                lambda key=key: float(sum(
                    cache.stats.snapshot()[key]
                    for cache in self.caches
                    if cache is not None
                )),
                f"Per-box semantic-cache {key.replace('_', ' ')}",
            )
        for key in ("hits", "misses", "evictions"):
            self.metrics.gauge_callback(
                f"pdf_cache_{key}",
                lambda key=key: float(sum(
                    cache.stats.snapshot()[key]
                    for cache in self.pdf_caches
                    if cache is not None
                )),
                f"PDF-cache {key}",
            )

    def _observe_query(
        self, kind: str, ledger: CostLedger, done: Assembled
    ) -> None:
        """Fold one finished query into the metrics registry."""
        series = self._m_queries_by_kind.get(kind)
        (series if series is not None else self._m_queries.labels(kind=kind)).inc()
        if done.points:
            self._m_points.inc(done.points)
        io_bytes = ledger.meter(METER_IO_BYTES)
        if io_bytes:
            self._m_io_bytes.inc(io_bytes)
        for category, seconds in ledger.breakdown().items():
            if seconds:
                self._m_sim_by_category[category].inc(seconds)
        self._m_fanout.observe(done.fanout)
        if done.node_hits:
            self._m_cache_hits.inc(done.node_hits)
        if done.node_misses:
            self._m_cache_misses.inc(done.node_misses)

    # -- data loading ---------------------------------------------------------------

    def load_dataset(
        self,
        dataset: SyntheticDataset,
        timesteps: Sequence[int] | None = None,
        fields: Sequence[str] | None = None,
    ) -> int:
        """Ingest a synthetic dataset into the cluster's atom tables.

        Atoms are routed to nodes by the Morton code of their corner.
        Returns the number of atoms stored.
        """
        self._require_local("load_dataset")
        spec = dataset.spec
        if spec.side != self.partitioner.domain_side:
            raise ValueError(
                f"dataset side {spec.side} does not match partitioner "
                f"domain {self.partitioner.domain_side}"
            )
        for node in self.nodes:
            if spec.name not in node.dataset_names:
                node.register_dataset(spec)
        stored = 0
        for field in fields or spec.fields:
            for timestep in timesteps or range(spec.timesteps):
                array = dataset.field_array(field, timestep)
                per_node: dict[int, list[tuple[int, bytes]]] = {}
                for zindex, blob in atomize(array):
                    node_id = self.partitioner.node_of_atom(zindex)
                    per_node.setdefault(node_id, []).append((zindex, blob))
                for node_id, atoms in per_node.items():
                    node = self.nodes[node_id]
                    with node.db.transaction() as txn:
                        stored += node.store_atoms(
                            txn, spec.name, field, timestep, atoms
                        )
        self.drop_page_caches()
        return stored

    # -- queries ----------------------------------------------------------------------

    def threshold(
        self,
        query: ThresholdQuery,
        processes: int = 1,
        use_cache: bool = True,
        io_only: bool = False,
        max_points: int = MAX_RESULT_POINTS,
        timeout: float | None = None,
    ) -> ThresholdResult:
        """Evaluate a threshold query across the cluster.

        Args:
            processes: worker processes per node.
            use_cache: probe/maintain the semantic cache (the "no cache"
                baseline sets this false).
            io_only: only perform the raw reads (Fig. 8).
            max_points: global result limit.
            timeout: per-node-part budget in wall seconds on networked
                transports (``None`` uses the transport's default).

        Raises:
            ThresholdTooLowError: when more than ``max_points`` match.
        """
        return self._run(
            KINDS["threshold"], query, self.transport.threshold_part,
            max_points=max_points, timeout=timeout,
            use_cache=use_cache, processes=processes, io_only=io_only,
        )

    def batch_threshold(
        self,
        queries: list[ThresholdQuery],
        processes: int = 1,
        use_cache: bool = True,
        max_points: int = MAX_RESULT_POINTS,
        timeout: float | None = None,
    ) -> BatchThresholdResult:
        """Evaluate several same-source threshold queries in one pass.

        Queries must share dataset, timestep, region, FD order and raw
        source field (e.g. vorticity + Q-criterion, both from the
        velocity); the raw data are then read once for the whole batch
        (see :mod:`repro.core.batch`).

        Returns a :class:`repro.core.batch.BatchThresholdResult` whose
        ``results`` align with the submitted queries.

        Raises:
            ValueError: if the queries cannot share a scan.
            ThresholdTooLowError: when any query exceeds ``max_points``.
        """
        check_batchable(queries, self.registry)
        return self._run(
            KINDS["batch_threshold"], queries,
            max_points=max_points, timeout=timeout,
            use_cache=use_cache, processes=processes,
        )

    def pdf(
        self,
        query: PdfQuery,
        processes: int = 1,
        use_cache: bool = True,
        timeout: float | None = None,
    ) -> PdfResult:
        """Histogram a field's norm over an entire timestep (Fig. 2)."""
        return self._run(
            KINDS["pdf"], query, timeout=timeout,
            use_cache=use_cache, processes=processes,
        )

    def topk(
        self,
        query: TopKQuery,
        processes: int = 1,
        use_cache: bool = True,
        timeout: float | None = None,
    ) -> TopKResult:
        """The k highest-norm locations of a timestep.

        A node whose cached threshold entry holds at least ``k`` points
        answers its share from the cache (see
        :func:`repro.core.topk.get_topk_on_node`).
        """
        return self._run(
            KINDS["topk"], query, timeout=timeout,
            use_cache=use_cache, processes=processes,
        )

    def _run(
        self,
        kind: QueryKind,
        request: Any,
        part: Callable[..., Any] | None = None,
        *,
        max_points: int = MAX_RESULT_POINTS,
        timeout: float | None = None,
        **options: Any,
    ) -> Any:
        """Run one query of any kind: scatter its parts, assemble them.

        The one path behind the four public query methods.  ``part`` is
        the transport's part method to call per node; ``None`` uses the
        generic :meth:`~repro.net.transport.Transport.part`.  Only
        :meth:`threshold` passes one, the typed
        :meth:`~repro.net.transport.Transport.threshold_part` that the
        benchmark probe times by name.  Over a
        :class:`~repro.net.transport.TcpTransport` every kind's parts run
        as :meth:`~repro.net.transport.TcpTransport.part_exchange`
        instead (see :meth:`_scatter`).  ``options`` are the kind's
        per-part options.
        """
        # Chosen by type, not by attribute: a wrapper that only forwards
        # attributes (the benchmark probe's timer) keeps the plain part
        # calls it is there to time.
        remote = isinstance(self.transport, TcpTransport)
        if remote:
            exchange = functools.partial(self.transport.part_exchange, kind)
        else:
            exchange = _computed(
                part or functools.partial(self.transport.part, kind)
            )
        query_id = tracing.new_trace_id()
        with tracing.span(
            f"query.{kind.name}", trace_id=query_id,
            **kind.span_attributes(request),
        ) as root:
            box = self._query_box(*kind.region(request))
            parts = self._scatter(
                lambda node_id: exchange(
                    node_id,
                    request,
                    self.partitioner.query_boxes(node_id, box),
                    timeout=timeout,
                    **options,
                ),
                kind.part_ledger,
                remote,
            )
            ledger = CostLedger.parallel([kind.part_ledger(p) for p in parts])
            done = kind.assemble(
                Gather(query_id, self.node_count, self.spec, ledger, max_points),
                request,
                parts,
            )
            for i, (nodes, hits, points) in enumerate(done.served):
                # Batched answers share one ledger: count its seconds once.
                self.statistics._record(
                    nodes, hits, points, ledger.total if i == 0 else 0.0
                )
            self._observe_query(kind.name, ledger, done)
            root.set("points", done.points)
            root.attach_ledger(ledger)
            return done.result

    def get_field(
        self,
        dataset: str,
        field: str,
        timestep: int,
        box: Box,
        fd_order: int = 4,
    ) -> tuple[np.ndarray, CostLedger]:
        """Server-side evaluation of a derived field's norm over a box.

        This is the "request the values of the derived field directly"
        path (paper §4) that the local-evaluation baseline uses; the
        result array crosses the WAN with XML inflation.
        """
        self._require_local("get_field")
        derived = self.registry.get(field)
        return self._dense_scatter(
            dataset, derived, timestep, box, derived.halo(fd_order),
            lambda block, spacing: derived.norm(block, spacing, fd_order),
            derived.units_per_point, (),
        )

    def get_gradient(
        self,
        dataset: str,
        field: str,
        timestep: int,
        box: Box,
        fd_order: int = 4,
    ) -> tuple[np.ndarray, CostLedger]:
        """Server-side velocity-gradient tensor over a box, shipped raw.

        This is the transfer the paper's §5.3 local-evaluation story is
        about: the 9-component gradient is at least 3x the size of the
        stored vector field, and it crosses the WAN wrapped in XML.
        Returns ``(tensor, ledger)`` with tensor shape ``box.shape + (3, 3)``.
        """
        self._require_local("get_gradient")
        derived = self.registry.get(field)
        half = kernel_half_width(fd_order)
        return self._dense_scatter(
            dataset, derived, timestep, box, half,
            lambda block, spacing: gradient_tensor_interior(block, spacing, fd_order, half),
            1.0, (3, 3),
        )

    def _dense_scatter(
        self,
        dataset: str,
        derived: DerivedField,
        timestep: int,
        box: Box,
        halo: int,
        kernel: Callable[[np.ndarray, float], np.ndarray],
        units_per_point: float,
        trailing: tuple[int, ...],
    ) -> tuple[np.ndarray, CostLedger]:
        """Evaluate ``kernel`` densely over ``box``, node by node.

        Per node, per piece: fetch the block with ``halo`` cells, run
        ``kernel(block, spacing)``, charge ``units_per_point`` of compute
        and place the values; the float32 payload is then charged once
        over the LAN and once over the WAN.  Returns ``(array, ledger)``
        with array shape ``box.shape + trailing``.
        """
        ledger = CostLedger()
        out = np.empty(box.shape + trailing, dtype=np.float64)
        for node_id, node in enumerate(self.nodes):
            pieces = self.partitioner.query_boxes(node_id, box)
            if not pieces:
                continue
            dataset_spec = node.dataset(dataset)
            node_ledger = CostLedger()
            with node.db.transaction(node_ledger) as txn:
                for piece in pieces:
                    block = self.executors[node_id].fetch_block(
                        txn, node_ledger, dataset_spec, derived,
                        timestep, piece, halo,
                    )
                    values = kernel(block, dataset_spec.spacing)
                    node_ledger.charge(
                        Category.COMPUTE,
                        self.spec.cpu.compute_time(piece.volume, units_per_point),
                    )
                    dst = tuple(
                        slice(p - b, q - b)
                        for p, q, b in zip(piece.lo, piece.hi, box.lo)
                    )
                    out[dst] = values
            ledger = CostLedger.parallel([ledger, node_ledger])
        payload = out.size * 4  # float32 on the wire
        ledger.charge(
            Category.MEDIATOR_DB,
            self.spec.lan.transfer_time(payload, round_trips=len(self.nodes)),
        )
        ledger.charge(
            Category.MEDIATOR_USER, self.spec.wan.transfer_time(payload)
        )
        return out, ledger

    # -- maintenance -------------------------------------------------------------------

    def drop_cache_entries(self, dataset: str, field: str, timestep: int) -> int:
        """Drop semantic-cache entries on every node (cold-cache resets)."""
        return sum(
            cache.drop_timestep(dataset, field, timestep)
            for cache in self.caches
            if cache is not None
        )

    def clear_caches(self) -> int:
        """Empty every node's semantic cache."""
        return sum(cache.clear() for cache in self.caches if cache is not None)

    def drop_page_caches(self) -> None:
        """Empty every node's buffer pools (cold I/O)."""
        for node in self.nodes:
            node.db.drop_page_cache()

    # -- catalogue and control -----------------------------------------------------------

    def dataset_names(self, timeout: float | None = None) -> list[str]:
        """Sorted names of every dataset hosted by the cluster."""
        return self.transport.dataset_names(timeout=timeout)

    def _require_local(self, operation: str) -> None:
        """Refuse an operation that touches node storage directly.

        Raises:
            UnsupportedRemoteOperationError: when this mediator fronts
                remote node servers instead of in-process nodes.
        """
        if not self.nodes:
            raise UnsupportedRemoteOperationError(
                f"{operation} runs where the storage lives; this mediator "
                f"fronts remote node servers (load data through each "
                f"server's own ingest instead)"
            )

    # -- internals ----------------------------------------------------------------------

    def _query_box(self, dataset: str, box: Box | None) -> Box:
        side = self.transport.dataset_side(dataset)
        if box is None:
            return Box.cube(side)
        domain = Box.cube(side)
        if not domain.contains_box(box):
            raise ValueError(f"query box {box} outside domain of side {side}")
        return box

    def _scatter(
        self,
        exchange_of: Callable[[int], "Exchange[T]"],
        ledger_of: Callable[[T], CostLedger],
        remote: bool,
    ) -> list[T]:
        """Submit a per-node part asynchronously and gather the results.

        ``exchange_of(node_id)`` is the node's part as an exchange (see
        :mod:`repro.net.client`).  When the parts are ``remote`` RPCs
        they all run on this thread: every request is written, then one
        wait on every socket gathers the replies under
        :attr:`scatter_timeout` and each part's own deadline, and a
        part's retry backoff holds up no other part.  Parts
        that are compute (the in-process transport) run on the shared
        scatter pool, one worker each, under :meth:`_gather`.

        With ``sequential_scatter`` the parts run one after another
        instead: simulated times are identical by construction (parallel
        composition happens in the ledgers, not the threads), but buffer-
        pool races between concurrent halo reads disappear, making the
        simulated-second output bit-for-bit reproducible.  Experiments
        use this; interactive use keeps the asynchronous scheduling of
        the paper's mediator.

        Each node part runs under its own trace span carrying the
        part's ledger (``ledger_of`` extracts it from a result), in its
        own copy of the current context — that is what parents the part
        spans under the query's root span, whether the parts interleave
        on this thread or run on pool workers.

        Raises:
            DeadlineExceededError: the gather outlived its budget, or a
                part's own RPC deadline expired (a slow node).
            PartialFailureError: a part failed with any other transport
                error after its retries were exhausted (a dead node).
        """
        def run(node_id: int) -> "Exchange[T]":
            with tracing.span("node.part", node=node_id) as part:
                try:
                    result = yield from exchange_of(node_id)
                except Exception as error:
                    # This node's subtree ends here — the trace shows an
                    # explicitly-marked orphan instead of silent loss.
                    tracing.mark_orphaned(part, type(error).__name__)
                    if isinstance(error, NetError) and not isinstance(
                        error, (DeadlineExceededError, PartialFailureError)
                    ):
                        raise self._part_failure(node_id, error) from error
                    raise
                part.attach_ledger(ledger_of(result))
                return result

        if self.sequential_scatter:
            return [run_inline(run(node_id)) for node_id in range(self.node_count)]
        if remote:
            return run_all(
                [run(node_id) for node_id in range(self.node_count)],
                Deadline.after(self.scatter_timeout),
            )
        pool = self._ensure_pool()
        futures = [
            pool.submit(contextvars.copy_context().run, run_inline, run(node_id))
            for node_id in range(self.node_count)
        ]
        return self._gather(futures)

    def _part_failure(self, node_id: int, error: NetError) -> PartialFailureError:
        """A machine-readable part failure: which nodes, which curve spans.

        On a replicated cluster the transport's
        :class:`~repro.net.errors.NoLiveReplicaError` names every
        replica it tried; those node ids and the shard's Morton range
        ride on the exception so callers (retry layers, tests, the web
        tier's error mapper) can target exactly what was lost.
        """
        attempted = tuple(getattr(error, "attempted", ()) or (node_id,))
        return PartialFailureError(
            node_id,
            f"node {node_id} part failed: {error}",
            node_ids=attempted,
            ranges=(self.partitioner.node_ranges(node_id),),
        )

    def _gather(self, futures: "list[Future[T]]") -> list[T]:
        """Collect part futures under the scatter deadline.

        On the first failure — or when :attr:`scatter_timeout` expires —
        the remaining parts are cancelled where still queued and drained
        where already running (every part is bounded: in-process parts
        terminate on their own, RPC parts carry per-request deadlines),
        and their exceptions consumed so none leaks to the pool.

        Raises:
            DeadlineExceededError: the gather outlived its budget.
        """
        deadline = Deadline.after(self.scatter_timeout)
        results: list[T] = []
        try:
            for node_id, future in enumerate(futures):
                try:
                    results.append(future.result(timeout=deadline.remaining()))
                except FuturesTimeoutError:
                    raise DeadlineExceededError(
                        f"scatter gather exceeded its {self.scatter_timeout}s "
                        f"budget waiting on node {node_id}"
                    ) from None
        except BaseException:
            self._drain(futures)
            raise
        return results

    def _drain(self, futures: "list[Future[T]]") -> None:
        """Cancel queued parts, wait out running ones, eat their errors."""
        for future in futures:
            future.cancel()
        wait(futures, timeout=self.scatter_timeout)
        for future in futures:
            if future.done() and not future.cancelled():
                future.exception()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        """The shared scatter pool, created on first asynchronous query.

        Sized at nodes x a small oversubscription factor so that several
        concurrent client queries scatter without queueing behind each
        other (the paper's mediator keeps every data node busy per
        request; concurrent requests interleave at the node level).
        """
        with self._pool_lock:
            if self._scatter_pool is None:
                self._scatter_pool = ThreadPoolExecutor(
                    max_workers=max(8, 4 * len(self.nodes)),
                    thread_name_prefix="scatter",
                )
            return self._scatter_pool

    def close(self) -> None:
        """Tear the whole service down (idempotent).

        Shuts down the scatter pool, closes the transport (for TCP, every
        pooled connection), and closes each in-process node's database,
        releasing its buffer-pool frames.  The scatter pool alone restarts
        lazily, but a query after ``close`` on an in-process cluster fails
        in the storage layer because the node databases refuse new
        transactions.
        """
        with self._pool_lock:
            pool, self._scatter_pool = self._scatter_pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self.transport.close()
        for node in self.nodes:
            node.close()

    def __enter__(self) -> "Mediator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _computed(part: Callable[..., T]) -> Callable[..., "Exchange[T]"]:
    """A part that is compute, as an exchange that never waits."""
    def exchange(*args: Any, **kwargs: Any) -> "Exchange[T]":
        return part(*args, **kwargs)
        yield  # unreachable: it makes this function a generator

    return exchange


def build_cluster(
    dataset: SyntheticDataset,
    nodes: int = 4,
    spec: ClusterSpec | None = None,
    registry: FieldRegistry | None = None,
    cache_capacity_bytes: int | None = 256 * 1024 * 1024,
    buffer_pages: int = 256,
    load: bool = True,
    sequential_scatter: bool = False,
) -> Mediator:
    """Stand up a cluster and (optionally) ingest a dataset into it.

    Args:
        dataset: the synthetic dataset to host.
        nodes: node count (1, 2, 4 or 8).
        spec: hardware spec (defaults to the paper-calibrated cluster).
        cache_capacity_bytes: per-node cache budget; ``None`` = no cache.
        buffer_pages: buffer-pool frames per table — small by default so
            that a timestep's share exceeds the pool, as at production
            scale.
        load: ingest every field and timestep now.
    """
    spec = spec or paper_cluster()
    partitioner = MortonPartitioner(dataset.spec.side, nodes)
    cluster_nodes = [
        DatabaseNode(node_id, spec, buffer_pages=buffer_pages)
        for node_id in range(nodes)
    ]
    mediator = Mediator(
        cluster_nodes,
        partitioner,
        registry=registry,
        spec=spec,
        cache_capacity_bytes=cache_capacity_bytes,
        sequential_scatter=sequential_scatter,
    )
    for node in cluster_nodes:
        node.register_dataset(dataset.spec)
    if load:
        mediator.load_dataset(dataset)
    return mediator
