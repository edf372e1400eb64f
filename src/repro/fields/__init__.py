"""Derived fields: finite differences, differential operators, registry.

The database stores only raw simulation fields (velocity, pressure,
magnetic field); the scientifically interesting quantities — vorticity,
the Q and R velocity-gradient invariants, the electric current — are
*derived* on demand through kernel computations with local support
(paper §3, §4).  This package provides:

* central finite differences of order 2/4/6/8, one primitive for every
  kernel (:mod:`~repro.fields.finite_difference`),
* differential operators built on them — gradient, curl, divergence,
  the velocity-gradient tensor (:mod:`~repro.fields.operators`),
* the derived-field registry mapping field names to their source field,
  kernel half-width and per-point compute cost
  (:mod:`~repro.fields.derived`).
"""

from repro.fields.finite_difference import (
    SUPPORTED_ORDERS,
    Derivatives,
    derivative_interior,
    derivative_periodic,
    fd_coefficients,
    kernel_half_width,
)
from repro.fields.operators import (
    curl_interior,
    curl_periodic,
    divergence_periodic,
    gradient_tensor_interior,
    gradient_tensor_periodic,
)
from repro.fields.derived import (
    DerivedField,
    FieldRegistry,
    UnknownFieldError,
    default_registry,
)

__all__ = [
    "SUPPORTED_ORDERS",
    "Derivatives",
    "DerivedField",
    "FieldRegistry",
    "UnknownFieldError",
    "curl_interior",
    "curl_periodic",
    "default_registry",
    "derivative_interior",
    "derivative_periodic",
    "divergence_periodic",
    "fd_coefficients",
    "gradient_tensor_interior",
    "gradient_tensor_periodic",
    "kernel_half_width",
]
