"""Shared experiment configuration, threshold selection and reporting."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster import Mediator, build_cluster
from repro.costmodel import ClusterSpec, paper_scale_spec
from repro.fields import curl_periodic, gradient_tensor_periodic
from repro.fields.operators import (
    q_criterion_from_gradient,
    r_invariant_from_gradient,
)
from repro.simulation import mhd_dataset
from repro.simulation.datasets import SyntheticDataset

#: The paper's threshold selectivities (fraction of the 1024^3 grid above
#: threshold): 4,247 / 86,580 / 909,274 points (§5.2).
PAPER_FRACTIONS = {
    "high": 4247 / 1024**3,
    "medium": 86580 / 1024**3,
    "low": 909274 / 1024**3,
}

#: The paper's matching absolute counts, for side-by-side reporting.
PAPER_POINT_COUNTS = {"high": 4247, "medium": 86580, "low": 909274}


@dataclass
class ExperimentConfig:
    """Knobs shared by every experiment.

    The default 64^3 grid keeps each experiment to seconds of wall time.
    """

    side: int = 64
    timesteps: int = 4
    nodes: int = 4
    processes: int = 4
    seed: int = 11
    spec: ClusterSpec | None = None

    def __post_init__(self) -> None:
        if self.spec is None:
            # Charge paper-scale seconds: each byte of the small grid
            # stands for (1024/side)^3 bytes of the production grid, so
            # the reported simulated seconds compare directly with the
            # paper's tables (see costmodel.paper_scale_spec).
            self.spec = paper_scale_spec(self.side)

    def make_dataset(self) -> SyntheticDataset:
        """The MHD dataset this configuration describes."""
        return mhd_dataset(side=self.side, timesteps=self.timesteps, seed=self.seed)

    def make_cluster(
        self, nodes: int | None = None, **kwargs
    ) -> tuple[SyntheticDataset, Mediator]:
        """Build and load a cluster for this configuration."""
        dataset = self.make_dataset()
        kwargs.setdefault("sequential_scatter", True)  # deterministic sims
        kwargs.setdefault("spec", self.spec)
        mediator = build_cluster(dataset, nodes=nodes or self.nodes, **kwargs)
        return dataset, mediator

    @property
    def paper_scale_factor(self) -> float:
        """Volume ratio to the paper's 1024^3 grids, for projections."""
        return (1024 / self.side) ** 3


#: A column of a report: its header and how a value cell renders.
Column = tuple[str, Callable[[Any], str]]


@dataclass
class ExperimentReport:
    """A reproduced table/figure: columns, rows of values and commentary.

    Cells stay values (numbers, tuples) for the claims to read; each
    column's format renders them, and a ``str`` cell is a label that
    renders as it is.
    """

    title: str
    columns: Sequence[Column]
    rows: list[list[Any]]
    notes: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        headers = [header for header, _ in self.columns]
        cells = [
            [cell if isinstance(cell, str) else render(cell)
             for cell, (_, render) in zip(row, self.columns)]
            for row in self.rows
        ]
        widths = [
            max(len(text) for text in [header] + [row[i] for row in cells])
            for i, header in enumerate(headers)
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def column(self, header: str) -> list[Any]:
        """Every row's value in the column of that header."""
        index = [name for name, _ in self.columns].index(header)
        return [row[index] for row in self.rows]

    def row_dict(self, key_column: int = 0) -> dict[Any, list[Any]]:
        """Rows keyed by the given column, for programmatic checks."""
        return {row[key_column]: row for row in self.rows}


def ground_truth_norm(
    dataset: SyntheticDataset, fieldname: str, timestep: int, order: int = 4
) -> np.ndarray:
    """Exact norm field used to pick thresholds (harness-side shortcut)."""
    spacing = dataset.spec.spacing
    if fieldname == "vorticity":
        velocity = dataset.field_array("velocity", timestep).astype(np.float64)
        return np.linalg.norm(curl_periodic(velocity, spacing, order), axis=-1)
    if fieldname == "q_criterion":
        velocity = dataset.field_array("velocity", timestep).astype(np.float64)
        gradient = gradient_tensor_periodic(velocity, spacing, order)
        return np.abs(q_criterion_from_gradient(gradient))
    if fieldname == "r_invariant":
        velocity = dataset.field_array("velocity", timestep).astype(np.float64)
        gradient = gradient_tensor_periodic(velocity, spacing, order)
        return np.abs(r_invariant_from_gradient(gradient))
    if fieldname == "electric_current":
        magnetic = dataset.field_array("magnetic", timestep).astype(np.float64)
        return np.linalg.norm(curl_periodic(magnetic, spacing, order), axis=-1)
    if fieldname in ("magnetic", "velocity"):
        raw = dataset.field_array(fieldname, timestep).astype(np.float64)
        return np.linalg.norm(raw, axis=-1)
    if fieldname == "pressure":
        return np.abs(dataset.field_array("pressure", timestep)[..., 0])
    raise ValueError(f"no ground truth for field {fieldname!r}")


def threshold_levels(
    dataset: SyntheticDataset, fieldname: str, timestep: int
) -> dict[str, float]:
    """Thresholds matching the paper's high/medium/low selectivities."""
    norm = ground_truth_norm(dataset, fieldname, timestep)
    return {
        level: float(np.quantile(norm, 1.0 - fraction))
        for level, fraction in PAPER_FRACTIONS.items()
    }


def fmt(seconds: float) -> str:
    """Compact human-readable seconds."""
    if seconds >= 3600:
        return f"{seconds / 3600:.1f} h"
    if seconds >= 100:
        return f"{seconds:.0f} s"
    if seconds >= 1:
        return f"{seconds:.1f} s"
    return f"{seconds * 1000:.0f} ms"
