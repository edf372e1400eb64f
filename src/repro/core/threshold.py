"""Algorithm 1: per-node threshold evaluation through the cache.

Each node runs GetThreshold for its share of the query inside a single
snapshot-isolation transaction: probe the cache; on a hit, serve the
points straight from ``cacheData``; on a miss (no entry, or an entry
whose threshold is higher than requested), evaluate from the raw data
via the :class:`~repro.core.executor.NodeExecutor` and store the fresh
result back — replacing a stale entry when one was found.

There is one driver, :func:`get_batch_on_node`: it answers a batch of
same-source queries from one shared scan (:mod:`repro.core.batch`), and
a lone threshold query is a batch of one.

A concurrent cache refresh of the same entry surfaces as a
snapshot-isolation write conflict; the computation's result is still
returned to the user, only the cache update is skipped (the winning
writer's entry is equivalent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.costmodel import CostLedger
from repro.core.cache import SemanticCache
from repro.core.executor import NodeExecutor, Prefetched
from repro.core.pointset import merge_sorted_runs, value_text
from repro.core.query import ThresholdQuery
from repro.fields.derived import FieldRegistry
from repro.grid import Box
from repro.obs import tracing
from repro.storage import SerializationConflictError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import DatabaseNode


@dataclass
class NodeThresholdResult:
    """One node's contribution to a threshold query (with its points'
    value text when rendering, ``held_text`` of them held by the cache)."""

    zindexes: np.ndarray
    values: np.ndarray
    ledger: CostLedger
    cache_hit: bool
    boxes_evaluated: int
    cache_stored: bool
    text: np.ndarray | None = None
    held_text: int = 0

    def __len__(self) -> int:
        return len(self.zindexes)


@dataclass
class RenderedPart:
    """One node's contribution to a threshold query as its point count
    and the answer's JSON: :func:`~repro.core.pointset.points_json` of
    its points (nothing when the count is over the query's limit), and
    the other fields of :class:`NodeThresholdResult`."""

    count: int
    fragment: "bytes | memoryview"
    ledger: CostLedger
    cache_hit: bool
    boxes_evaluated: int
    cache_stored: bool

    def __len__(self) -> int:
        return self.count


def get_batch_on_node(
    node: "DatabaseNode",
    executor: NodeExecutor,
    cache: SemanticCache | None,
    registry: FieldRegistry,
    queries: list[ThresholdQuery],
    boxes: list[Box],
    processes: int = 1,
    io_only: bool = False,
    render: bool = False,
) -> list[NodeThresholdResult]:
    """Run Algorithm 1 for this node's ``boxes`` of a batch's region.

    The queries share dataset, timestep, region, FD order and raw source
    field (:func:`repro.core.batch.check_batchable`).  Per box, the
    cache is probed for every query; the queries that miss are evaluated
    together from a single assembled block (widest halo wins), and each
    fresh result is stored back under its own cache entry.

    Args:
        cache: the node's semantic cache, or ``None`` to bypass caching
            entirely (the paper's "no cache" baseline).
        boxes: the node's rectangular pieces of the query box; each piece
            is cached as its own entry, so partially-cached node shares
            re-evaluate only the missing pieces.
        io_only: perform only the raw-data reads (Fig. 8's I/O-only mode;
            implies no caching and returns no points).
        render: carry each point's :func:`~repro.core.pointset.value_text`
            beside its value: a hit's from the cache, a miss's built here.

    Returns one result per query, in order, all carrying the *same*
    ledger (the queries were answered by one pass).
    """
    ledger = CostLedger()
    first = queries[0]
    if not boxes:
        return [
            NodeThresholdResult(
                np.empty(0, np.uint64), np.empty(0, np.float64),
                ledger, cache_hit=False, boxes_evaluated=0, cache_stored=False,
                text=value_text(np.empty(0)) if render else None,
            )
            for _ in queries
        ]
    if io_only:
        cache = None
    dataset_spec = node.dataset(first.dataset)
    deriveds = [registry.get(query.field) for query in queries]

    runs: list[list[tuple[np.ndarray, ...]]] = [[] for _ in queries]
    hits = [0] * len(queries)
    held = [0] * len(queries)
    evaluated = [0] * len(queries)
    stored = True

    # Remote boundary atoms for every box still to be evaluated are
    # fetched in one RPC per peer at the first cache miss (a warm cache
    # never pays for it), with the widest halo among the batch's fields;
    # each per-box evaluation then runs without any halo round trip of
    # its own.  Only a single chain is charged for that shared fetch —
    # with processes > 1 the executor charges each chain its own
    # redundant boundary, as the paper's parallelism model assumes.
    prefetched: Prefetched | None = None
    txn = node.db.begin(ledger)
    try:
        for index, box in enumerate(boxes):
            missed: dict[int, int | None] = {}  # query -> stale ordinal
            for i, query in enumerate(queries):
                if cache is None:
                    missed[i] = None
                    continue
                with tracing.span("cache.lookup", category="cache_lookup") as probe:
                    lookup = cache.lookup(
                        txn, query.dataset, query.field, query.timestep,
                        box, query.threshold, text=render,
                    )
                    probe.set("hit", lookup.hit)
                if lookup.hit:
                    hits[i] += 1
                    held[i] += lookup.held_text
                    run = (lookup.zindexes, lookup.values, lookup.text)
                    runs[i].append(run if render else run[:2])
                else:
                    missed[i] = lookup.stale_ordinal
            if not missed:
                continue
            if prefetched is None:
                widest = max(deriveds, key=lambda d: d.halo(first.fd_order))
                prefetched = executor.prefetch_halo(
                    ledger if processes == 1 else None, dataset_spec, widest,
                    first.timestep, boxes[index:], first.fd_order,
                ) or {}
            with tracing.span("node.evaluate") as evaluation_span:
                evaluations = executor.evaluate_batch(
                    txn, ledger, dataset_spec,
                    [deriveds[i] for i in missed], first.timestep, [box],
                    [queries[i].threshold for i in missed], first.fd_order,
                    processes=processes, io_only=io_only,
                    prefetched=prefetched,
                )
                evaluation_span.set(
                    "points", sum(len(e.zindexes) for e in evaluations)
                )
            for (i, stale_ordinal), evaluation in zip(missed.items(), evaluations):
                query = queries[i]
                evaluated[i] += 1
                run = (evaluation.zindexes, evaluation.values)
                runs[i].append((*run, value_text(run[1])) if render else run)
                if cache is None:
                    continue
                try:
                    with tracing.span("cache.store", category="cache_lookup"):
                        cache.store(
                            txn, query.dataset, query.field, query.timestep,
                            box, query.threshold,
                            evaluation.zindexes, evaluation.values,
                            replace_ordinal=stale_ordinal,
                        )
                except SerializationConflictError:
                    # A concurrent query refreshed the same entry first;
                    # keep the computed points, skip our cache update and
                    # finish the REMAINING stores and boxes under a fresh
                    # snapshot (aborting mid-loop must not truncate the
                    # result).
                    txn.abort()
                    stored = False
                    txn = node.db.begin(ledger)
        txn.commit()
    except SerializationConflictError:
        txn.abort()
        stored = False
    except Exception:
        txn.abort()
        raise

    # Per-box runs interleave on the curve; merge them so every node
    # hands the mediator one Morton-sorted run per query (gather is then
    # a concatenation across the nodes' disjoint spans).
    merged = [merge_sorted_runs(query_runs) for query_runs in runs]
    return [
        NodeThresholdResult(
            *columns[:2], ledger,
            cache_hit=hits[i] == len(boxes),
            boxes_evaluated=evaluated[i],
            cache_stored=stored and evaluated[i] > 0,
            text=columns[2] if render else None, held_text=held[i],
        )
        for i, columns in enumerate(merged)
    ]


def get_threshold_on_node(
    node: "DatabaseNode",
    executor: NodeExecutor,
    cache: SemanticCache | None,
    registry: FieldRegistry,
    query: ThresholdQuery,
    boxes: list[Box],
    processes: int = 1,
    io_only: bool = False,
    render: bool = False,
) -> NodeThresholdResult:
    """Algorithm 1 for one query: a batch of one (see
    :func:`get_batch_on_node` for the arguments)."""
    return get_batch_on_node(
        node, executor, cache, registry, [query], boxes, processes, io_only,
        render,
    )[0]
