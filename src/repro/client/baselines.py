"""The paper's baseline: threshold evaluation performed locally by the user.

"To perform the evaluation locally the user requests the derived field
of interest from the database by submitting multiple queries over
subregions of a time-step ... the velocity gradient (needed for the
computation of the vorticity) has 9 components compared with the 3
components of the velocity ... A Web-service request will be much larger
due to the overhead of wrapping the data in an xml format.  After the
field of interest is obtained locally the user has to threshold it"
(paper §5.3).  One collaborator measured this at over 20 hours per
timestep; the integrated server-side evaluation takes minutes.

:func:`local_threshold_evaluation` reproduces that workflow faithfully:
subregion-by-subregion gradient downloads over the modelled WAN, local
curl + norm computation, local thresholding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.mediator import Mediator
from repro.core.executor import threshold_scan
from repro.core.pointset import merge_sorted_runs
from repro.costmodel import Category, CostLedger
from repro.fields.operators import CURL_TERMS, vector_norm
from repro.grid import Box


@dataclass
class LocalEvaluation:
    """Result and cost of the client-side baseline."""

    zindexes: np.ndarray
    values: np.ndarray
    ledger: CostLedger
    subqueries: int
    bytes_downloaded: int

    def __len__(self) -> int:
        return len(self.zindexes)

    @property
    def elapsed(self) -> float:
        return self.ledger.total


def local_threshold_evaluation(
    mediator: Mediator,
    dataset: str,
    timestep: int,
    threshold: float,
    chunk_side: int = 32,
    fd_order: int = 4,
) -> LocalEvaluation:
    """Threshold the vorticity *locally*, the way the paper's user did.

    Splits the timestep into ``chunk_side``-cubes ("requesting a derived
    field over an entire time-step will overload the network"), downloads
    each chunk's velocity-gradient tensor through the WAN model, derives
    the vorticity norm from the tensor's antisymmetric part on the client,
    and keeps the points at/above ``threshold``.

    Returns the same points the integrated evaluation produces, plus the
    (much larger) simulated cost.
    """
    side = mediator.nodes[0].dataset(dataset).side
    if side % chunk_side:
        raise ValueError(f"chunk side {chunk_side} does not divide domain {side}")
    ledger = CostLedger()
    runs: list[tuple[np.ndarray, np.ndarray]] = []
    subqueries = 0
    bytes_downloaded = 0
    for x0 in range(0, side, chunk_side):
        for y0 in range(0, side, chunk_side):
            for z0 in range(0, side, chunk_side):
                box = Box(
                    (x0, y0, z0),
                    (x0 + chunk_side, y0 + chunk_side, z0 + chunk_side),
                )
                tensor, chunk_ledger = mediator.get_gradient(
                    dataset, "velocity", timestep, box, fd_order
                )
                # Sequential downloads: the user's client issues them one
                # after another, so the chunks' times sum.
                ledger.add(chunk_ledger)
                subqueries += 1
                bytes_downloaded += tensor.size * 4
                # Client-side vorticity from the gradient tensor:
                # w_i = eps_ijk A_kj  ->  (A21-A12, A02-A20, A10-A01).
                norm = vector_norm(
                    tensor[..., i, j] - tensor[..., k, m] for (i, j), (k, m) in CURL_TERMS
                )
                # The local thresholding itself is "reasonably fast"; its
                # cost is charged as client compute at the server's rate.
                ledger.charge(
                    Category.COMPUTE,
                    mediator.spec.cpu.compute_time(box.volume, 0.1),
                )
                runs.append(threshold_scan(norm, box, threshold))
    zindexes, values = merge_sorted_runs(runs)
    return LocalEvaluation(zindexes, values, ledger, subqueries, bytes_downloaded)
