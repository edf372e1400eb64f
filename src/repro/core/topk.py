"""Per-node top-k evaluation.

Top-k queries use the same data-parallel machinery as threshold queries
(paper §1: "our approach applies to the evaluation of top-k queries ...
and data-reducing queries in general"): each node returns its local top
k and the mediator keeps the k globally largest.  Unlike classic top-k
pruning, no monotone-score assumption is needed — the kernel computation
runs at every grid point regardless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.costmodel import CostLedger
from repro.core.executor import NodeExecutor
from repro.core.query import TopKQuery
from repro.fields.derived import FieldRegistry
from repro.grid import Box

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import DatabaseNode


@dataclass
class NodeTopKResult:
    """One node's local top-k candidates."""

    zindexes: np.ndarray
    values: np.ndarray
    ledger: CostLedger


def get_topk_on_node(
    node: "DatabaseNode",
    executor: NodeExecutor,
    registry: FieldRegistry,
    query: TopKQuery,
    boxes: list[Box],
    processes: int = 1,
    cache=None,
) -> NodeTopKResult:
    """The local top ``query.k`` points over this node's ``boxes``.

    With a semantic cache attached, a box whose cached threshold entry
    holds at least ``k`` points answers from the cache: every point of
    the box's true top-k is at least as large as the k-th largest cached
    value, which itself is at or above the cached threshold — so the
    top-k is a subset of the cached points.  Boxes without such an entry
    are evaluated from the raw data.
    """
    ledger = CostLedger()
    if not boxes:
        return NodeTopKResult(
            np.empty(0, np.uint64), np.empty(0, np.float64), ledger
        )
    dataset_spec = node.dataset(query.dataset)
    derived = registry.get(query.field)
    all_z: list[np.ndarray] = []
    all_v: list[np.ndarray] = []
    with node.db.transaction(ledger) as txn:
        pending: list[Box] = []
        for box in boxes:
            served = False
            if cache is not None:
                lookup = cache.lookup(
                    txn, query.dataset, query.field, query.timestep,
                    box, threshold=0.0,
                )
                # threshold=0 only hits an entry cached at threshold 0;
                # probe instead for any entry covering the box and take
                # its points when there are at least k of them.
                if not lookup.hit and lookup.stale_ordinal is not None:
                    zindexes, values, *_ = cache._read_points(
                        txn, lookup.stale_ordinal, box, lookup.stale_box,
                        threshold=0.0,
                    )
                    if len(values) >= query.k:
                        keep = np.argpartition(values, -query.k)[-query.k:]
                        all_z.append(zindexes[keep])
                        all_v.append(values[keep])
                        served = True
                elif lookup.hit and len(lookup.values) >= query.k:
                    keep = np.argpartition(lookup.values, -query.k)[-query.k:]
                    all_z.append(lookup.zindexes[keep])
                    all_v.append(lookup.values[keep])
                    served = True
            if not served:
                pending.append(box)
        if pending:
            evaluation = executor.evaluate(
                txn, ledger, dataset_spec, derived, query.timestep,
                pending, threshold=0.0, fd_order=query.fd_order,
                processes=processes, topk=query.k,
            )
            all_z.append(evaluation.zindexes)
            all_v.append(evaluation.values)
    zindexes = np.concatenate(all_z) if all_z else np.empty(0, np.uint64)
    values = np.concatenate(all_v) if all_v else np.empty(0, np.float64)
    return NodeTopKResult(zindexes, values, ledger)
