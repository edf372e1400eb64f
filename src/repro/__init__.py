"""turbdb-repro: threshold queries of derived fields in a simulation database.

A from-scratch reproduction of Kanov, Burns & Lalescu, *"Efficient
evaluation of threshold queries of derived fields in a numerical
simulation database"* (EDBT 2015): a sharded relational database cluster
for numerical-simulation output, on-demand derived-field computation
(vorticity, Q/R invariants, electric current), distributed data-parallel
threshold/top-k/PDF queries, and the application-aware semantic cache
that makes repeated threshold queries over an order of magnitude faster.

Quickstart::

    from repro import build_cluster, mhd_dataset, TurbulenceClient
    from repro.obs import report

    dataset = mhd_dataset(side=64, timesteps=4)
    mediator = build_cluster(dataset, nodes=4)
    client = TurbulenceClient(mediator)

    result = client.get_threshold("mhd", "vorticity", timestep=0,
                                  threshold=3.0)
    report(len(result), "intense points in",
           f"{result.elapsed:.1f} simulated seconds")

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for the
paper-figure reproductions.
"""

from repro.analysis import (
    Cluster,
    friends_of_friends,
    friends_of_friends_4d,
    norm_rms,
    threshold_at_rms_multiple,
    threshold_for_fraction,
)
from repro.client import TurbulenceClient, local_threshold_evaluation
from repro.cluster import DatabaseNode, Mediator, MortonPartitioner, build_cluster
from repro.core import (
    MAX_RESULT_POINTS,
    BatchThresholdResult,
    PdfCache,
    PdfQuery,
    PdfResult,
    SemanticCache,
    ThresholdQuery,
    ThresholdResult,
    ThresholdTooLowError,
    TopKQuery,
    TopKResult,
)
from repro.costmodel import Category, ClusterSpec, CostLedger, paper_cluster
from repro.fields import default_registry
from repro.grid import Box
from repro.simulation import (
    channel_dataset,
    isotropic_dataset,
    load_dataset,
    mhd_dataset,
    save_dataset,
)

__version__ = "1.0.0"

__all__ = [
    "BatchThresholdResult",
    "Box",
    "Category",
    "Cluster",
    "ClusterSpec",
    "CostLedger",
    "DatabaseNode",
    "MAX_RESULT_POINTS",
    "PdfCache",
    "Mediator",
    "MortonPartitioner",
    "PdfQuery",
    "PdfResult",
    "SemanticCache",
    "ThresholdQuery",
    "ThresholdResult",
    "ThresholdTooLowError",
    "TopKQuery",
    "TopKResult",
    "TurbulenceClient",
    "build_cluster",
    "channel_dataset",
    "default_registry",
    "friends_of_friends",
    "friends_of_friends_4d",
    "isotropic_dataset",
    "load_dataset",
    "local_threshold_evaluation",
    "mhd_dataset",
    "norm_rms",
    "paper_cluster",
    "save_dataset",
    "threshold_at_rms_multiple",
    "threshold_for_fraction",
]
