"""The derived-field registry.

A :class:`DerivedField` ties together everything the threshold engine
needs to know about one quantity: which raw stored field it derives
from, how wide its computation kernel is (and hence how much halo the
executor must fetch), how expensive it is per grid point, and how to
compute its thresholdable norm on a halo-padded block.

The production stored procedure "must have an implementation for each
derived field of interest" (paper §7); the registry is this
reproduction's equivalent, and :meth:`FieldRegistry.register` is how new
fields are added: as a Python kernel.  The declarative interface the
paper names as future work is not reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.fields.finite_difference import Derivatives, kernel_half_width
from repro.fields.operators import (
    curl_components,
    q_criterion_from_gradient,
    r_invariant_from_gradient,
    vector_norm,
)

#: A kernel's block: an array with the field's halo, or :class:`Derivatives` with at least it.
Block = np.ndarray | Derivatives


class UnknownFieldError(KeyError):
    """Requested field is not in the registry."""


@dataclass(frozen=True)
class DerivedField:
    """Metadata and kernel of one thresholdable field.

    Attributes:
        name: public field name used in queries.
        source: name of the raw stored field the kernel reads.
        source_components: component count of the source field.
        differential: whether the kernel applies finite differences (its
            halo is then the FD order's half-width; raw fields need none).
        units_per_point: compute cost in work units per grid point
            (vorticity defines 1.0; see
            :class:`repro.costmodel.devices.CpuSpec`).
        norm: function ``(block, spacing, order) -> norm array`` mapping
            a halo-padded source block to the interior's scalar norm.
    """

    name: str
    source: str
    source_components: int
    differential: bool
    units_per_point: float
    norm: Callable[[Block, float, int], np.ndarray]

    def halo(self, order: int) -> int:
        """Halo points needed per face at the given FD order."""
        return kernel_half_width(order) if self.differential else 0


def derivatives_of(block: Block, spacing: float, order: int) -> Derivatives:
    """``block`` itself if it is one, else those of an array with one half-width of halo."""
    return block if isinstance(block, Derivatives) else Derivatives(block, spacing, order)


def source_array(block: Block) -> np.ndarray:
    """The array a kernel was handed, cut to the interior (no halo)."""
    if isinstance(block, Derivatives):
        return block.block[(slice(block.margin, -block.margin or None),) * 3]
    return block


def _curl_norm(block: Block, spacing: float, order: int) -> np.ndarray:
    stencil = derivatives_of(block, spacing, order)
    return vector_norm(curl_components(stencil), stencil.scratch)


def _q_norm(block: Block, spacing: float, order: int) -> np.ndarray:
    return np.abs(q_criterion_from_gradient(derivatives_of(block, spacing, order)))


def _r_norm(block: Block, spacing: float, order: int) -> np.ndarray:
    return np.abs(r_invariant_from_gradient(derivatives_of(block, spacing, order)))


def _raw_vector_norm(block: Block, spacing: float, order: int) -> np.ndarray:
    return vector_norm(np.moveaxis(source_array(block), 3, 0))


def _raw_scalar_norm(block: Block, spacing: float, order: int) -> np.ndarray:
    return np.abs(source_array(block)[..., 0].astype(np.float64))


class FieldRegistry:
    """Name -> :class:`DerivedField` lookup with registration."""

    def __init__(self) -> None:
        self._fields: dict[str, DerivedField] = {}

    def register(self, field: DerivedField) -> DerivedField:
        """Add a field definition; returns it.

        Raises:
            ValueError: if the name is already taken.
        """
        if field.name in self._fields:
            raise ValueError(f"field {field.name!r} already registered")
        self._fields[field.name] = field
        return field

    def get(self, name: str) -> DerivedField:
        """Look up a field.  Raises :class:`UnknownFieldError`."""
        try:
            return self._fields[name]
        except KeyError:
            raise UnknownFieldError(
                f"unknown field {name!r}; known: {sorted(self._fields)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def names(self) -> list[str]:
        """All registered field names, sorted."""
        return sorted(self._fields)


def default_registry() -> FieldRegistry:
    """The stock registry covering every field the paper evaluates.

    * ``vorticity`` — curl of the velocity (Fig. 2/4/6, Table 1, Fig. 9a/d);
    * ``q_criterion`` — second velocity-gradient invariant (Fig. 9b/e);
    * ``r_invariant`` — third invariant (§3);
    * ``electric_current`` — curl of the magnetic field (§3);
    * ``magnetic``, ``velocity`` — raw stored fields thresholded on their
      norm with a single-point kernel (Fig. 9c/f);
    * ``pressure`` — raw stored scalar.
    """
    registry = FieldRegistry()
    registry.register(DerivedField("vorticity", "velocity", 3, True, 1.0, _curl_norm))
    registry.register(DerivedField("q_criterion", "velocity", 3, True, 1.8, _q_norm))
    registry.register(DerivedField("r_invariant", "velocity", 3, True, 2.4, _r_norm))
    registry.register(DerivedField("electric_current", "magnetic", 3, True, 1.0, _curl_norm))
    registry.register(DerivedField("magnetic", "magnetic", 3, False, 0.02, _raw_vector_norm))
    registry.register(DerivedField("velocity", "velocity", 3, False, 0.02, _raw_vector_norm))
    registry.register(DerivedField("pressure", "pressure", 1, False, 0.02, _raw_scalar_norm))
    return registry
