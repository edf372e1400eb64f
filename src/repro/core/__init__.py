"""The paper's core contribution: threshold queries with a semantic cache.

* :mod:`~repro.core.query` — query and result types.
* :mod:`~repro.core.limits` — the 10^6-point result limit (paper §4).
* :mod:`~repro.core.cache` — the application-aware semantic cache
  (cacheInfo/cacheData tables, LRU replacement, threshold dominance).
* :mod:`~repro.core.executor` — per-node data-parallel evaluation from
  raw atoms (halo assembly, kernel computation, threshold scan).
* :mod:`~repro.core.threshold` — Algorithm 1 (GetThreshold with cache).
* :mod:`~repro.core.pdf` — probability-density queries (Fig. 2).
* :mod:`~repro.core.topk` — top-k queries via the same machinery.
"""

from repro.core.query import (
    PdfQuery,
    PdfResult,
    ThresholdQuery,
    ThresholdResult,
    TopKQuery,
    TopKResult,
)
from repro.core.limits import MAX_RESULT_POINTS, ThresholdTooLowError
from repro.core.cache import CacheLookup, SemanticCache
from repro.core.threshold import NodeThresholdResult, get_threshold_on_node
from repro.core.batch import BatchThresholdResult
from repro.core.pdfcache import PdfCache

__all__ = [
    "BatchThresholdResult",
    "CacheLookup",
    "PdfCache",
    "MAX_RESULT_POINTS",
    "NodeThresholdResult",
    "PdfQuery",
    "PdfResult",
    "SemanticCache",
    "ThresholdQuery",
    "ThresholdResult",
    "ThresholdTooLowError",
    "TopKQuery",
    "TopKResult",
    "get_threshold_on_node",
]
