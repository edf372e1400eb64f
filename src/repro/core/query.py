"""Query and result types of the threshold engine."""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from repro.costmodel import CostLedger
from repro.fields.finite_difference import fd_coefficients
from repro.grid import Box
from repro.morton import decode_array


@dataclass(frozen=True)
class ThresholdQuery:
    """Find all locations where a field's norm is at or above a threshold.

    Attributes:
        dataset: dataset name (``"mhd"`` etc.).
        field: derived or raw field name from the field registry.
        timestep: timestep to examine.
        threshold: the cut value; points with ``norm >= threshold`` match.
        box: spatial region, or ``None`` for the entire timestep.
        fd_order: finite-difference order for differential kernels.
    """

    dataset: str
    field: str
    timestep: int
    threshold: float
    box: Box | None = None
    fd_order: int = 4

    def __post_init__(self) -> None:
        fd_coefficients(self.fd_order)
        if self.timestep < 0:
            raise ValueError("timestep must be non-negative")
        if not 0 <= self.threshold < np.inf:  # NaN fails both comparisons
            raise ValueError(
                "threshold must be finite and non-negative (norms are non-negative)"
            )


@dataclass
class ThresholdResult:
    """Points above threshold, with the query's simulated-time ledger.

    ``zindexes`` are Morton codes of matching grid points, sorted
    ascending; ``values`` are the field norms at those points, aligned
    with ``zindexes``.
    """

    zindexes: np.ndarray
    values: np.ndarray
    ledger: CostLedger
    cache_hits: int = 0
    nodes: int = 0
    #: Trace id assigned by the mediator; keys ``GET /trace/<query_id>``.
    query_id: str | None = None

    def __post_init__(self) -> None:
        if len(self.zindexes) != len(self.values):
            raise ValueError("zindexes and values must align")

    def __len__(self) -> int:
        return len(self.zindexes)

    def coordinates(self) -> np.ndarray:
        """Matching grid points as an ``(n, 3)`` integer array."""
        x, y, z = decode_array(self.zindexes)
        return np.stack([x, y, z], axis=1).astype(np.int64)

    @property
    def elapsed(self) -> float:
        """Total simulated seconds of the query."""
        return self.ledger.total


@dataclass
class RenderedThresholdResult:
    """A threshold answer whose nodes rendered its points as JSON.

    ``fragments`` are the non-empty node parts'
    :func:`~repro.core.pointset.points_json`, in curve order: joined
    with ``b", "`` and bracketed, they are the answer's point list.
    """

    count: int
    fragments: "list[bytes | memoryview]"
    ledger: CostLedger
    cache_hits: int
    query_id: str

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class PdfQuery:
    """Histogram of a field's norm over an entire timestep (paper Fig. 2)."""

    dataset: str
    field: str
    timestep: int
    bin_edges: tuple[float, ...]
    fd_order: int = 4

    def __post_init__(self) -> None:
        fd_coefficients(self.fd_order)
        edges = tuple(float(e) for e in self.bin_edges)
        if len(edges) < 2 or list(edges) != sorted(edges):
            raise ValueError("bin_edges must be at least two ascending values")
        object.__setattr__(self, "bin_edges", edges)


@dataclass
class PdfResult:
    """Per-bin counts; the final bin is open-ended above the last edge."""

    counts: np.ndarray
    bin_edges: tuple[float, ...]
    ledger: CostLedger
    query_id: str | None = None

    @property
    def total_points(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class TopKQuery:
    """The k grid locations with the largest field norm in a timestep."""

    dataset: str
    field: str
    timestep: int
    k: int
    fd_order: int = 4

    def __post_init__(self) -> None:
        fd_coefficients(self.fd_order)
        if self.k <= 0:
            raise ValueError("k must be positive")


@dataclass
class TopKResult:
    """Top-k points sorted by descending norm."""

    zindexes: np.ndarray
    values: np.ndarray
    ledger: CostLedger = dataclass_field(default_factory=CostLedger)
    query_id: str | None = None

    def __len__(self) -> int:
        return len(self.zindexes)

    def coordinates(self) -> np.ndarray:
        """Top-k grid points as an ``(k, 3)`` integer array."""
        x, y, z = decode_array(self.zindexes)
        return np.stack([x, y, z], axis=1).astype(np.int64)
