"""Per-node probability-density (histogram) evaluation.

"If they are interested in the density distribution of values they can
examine the probability density function (e.g. Fig. 2), which is
computed using a similar strategy to threshold queries" (paper §4).
The node reads its share of the timestep, computes the derived field's
norm, and histograms it; the mediator sums the per-node counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.costmodel import CostLedger
from repro.core.executor import NodeExecutor
from repro.core.pointset import pack_i64
from repro.core.query import PdfQuery
from repro.fields.derived import FieldRegistry
from repro.grid import Box
from repro.obs import tracing
from repro.storage import SerializationConflictError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import DatabaseNode
    from repro.core.pdfcache import PdfCache


@dataclass
class NodePdfResult:
    """One node's histogram contribution."""

    counts: np.ndarray
    ledger: CostLedger
    cache_hit: bool = False


def get_pdf_on_node(
    node: "DatabaseNode",
    executor: NodeExecutor,
    registry: FieldRegistry,
    query: PdfQuery,
    boxes: list[Box],
    processes: int = 1,
    pdf_cache: "PdfCache | None" = None,
) -> NodePdfResult:
    """Histogram the field norm over this node's ``boxes``.

    With a :class:`~repro.core.pdfcache.PdfCache`, the node's share of a
    previously-computed histogram (same field, timestep, FD order and
    bin edges) is answered from the SSD table without touching the raw
    data — the "other query types" cache extension of paper §4.
    """
    ledger = CostLedger()
    if not boxes:
        return NodePdfResult(np.zeros(len(query.bin_edges), np.int64), ledger)
    dataset_spec = node.dataset(query.dataset)
    derived = registry.get(query.field)
    # Which share of the timestep this histogram covers: a replica may
    # answer for more than one shard of the same query.
    share = pack_i64(
        np.array([box.as_corners() for box in boxes], dtype=np.int64)
    )
    txn = node.db.begin(ledger)
    try:
        if pdf_cache is not None:
            with tracing.span("cache.lookup", category="cache_lookup") as probe:
                cached = pdf_cache.lookup(
                    txn, query.dataset, query.field, query.timestep,
                    query.fd_order, query.bin_edges, share,
                )
                probe.set("hit", cached is not None)
            if cached is not None:
                txn.commit()
                return NodePdfResult(cached, ledger, cache_hit=True)
        with tracing.span("node.evaluate"):
            evaluation = executor.evaluate(
                txn, ledger, dataset_spec, derived, query.timestep,
                boxes, threshold=np.inf, fd_order=query.fd_order,
                processes=processes, bin_edges=query.bin_edges,
            )
        if pdf_cache is not None:
            pdf_cache.store(
                txn, query.dataset, query.field, query.timestep,
                query.fd_order, query.bin_edges, evaluation.histogram, share,
            )
        txn.commit()
    except SerializationConflictError:
        # A concurrent query stored the same histogram first; theirs is
        # identical, so keep our computed counts and drop the store.
        txn.abort()
    except Exception:
        txn.abort()
        raise
    return NodePdfResult(evaluation.histogram, ledger)
