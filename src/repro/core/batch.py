"""Batch evaluation of threshold queries with shared scans.

The JHTDB serves its data-intensive workloads through "data-driven batch
processing techniques" (paper §2, citing the authors' I/O-streaming
work), and §7 envisions users submitting batches server-side.  This
module applies the idea to threshold queries: queries over *different
derived fields of the same raw source* (e.g. vorticity and Q-criterion,
both derived from the velocity) are evaluated in one pass — the atoms
are read once, every kernel runs on the same in-memory block, and only
the kernels' compute time multiplies.

For a batch of k fields sharing a source, I/O drops from k scans to one;
with I/O roughly half the total (paper Fig. 8), a vorticity+Q batch runs
~25 % faster than back-to-back queries.

The per-node driver is Algorithm 1 itself,
:func:`repro.core.threshold.get_batch_on_node`; this module holds the
batch's admission check and its result type.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.query import BadRequestError, ThresholdQuery, ThresholdResult
from repro.costmodel import CostLedger
from repro.fields.derived import FieldRegistry


@dataclass
class BatchThresholdResult:
    """Results of a batch, aligned with the submitted query list.

    Each per-query :class:`ThresholdResult` carries the *shared* batch
    ledger (the queries were answered by one pass; their costs are not
    separable).
    """

    results: list[ThresholdResult]
    ledger: CostLedger

    def __len__(self) -> int:
        return len(self.results)


def check_batchable(queries: list[ThresholdQuery], registry: FieldRegistry) -> str:
    """Validate that the queries can share one scan; returns the source.

    Raises:
        BadRequestError: on an empty batch or mismatched dataset /
            timestep / region / FD order / source field.
    """
    if not queries:
        raise BadRequestError("empty batch")
    first = queries[0]
    source = registry.get(first.field).source
    for query in queries[1:]:
        if (
            query.dataset != first.dataset
            or query.timestep != first.timestep
            or query.box != first.box
            or query.fd_order != first.fd_order
        ):
            raise BadRequestError(
                "batched queries must share dataset, timestep, region and "
                "FD order"
            )
        if registry.get(query.field).source != source:
            raise BadRequestError(
                "batched queries must derive from the same raw field "
                f"({registry.get(query.field).source} != {source})"
            )
    return source
