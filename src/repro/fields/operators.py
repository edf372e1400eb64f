"""Differential operators on 3-D vector and scalar fields.

Vector fields are arrays of shape ``(nx, ny, nz, 3)`` indexed ``[x, y,
z, component]``; scalars drop the trailing axis.  Every operator comes
in a ``_periodic`` flavour (whole wrapped domain) and an ``_interior``
flavour (halo-padded block, as assembled by the per-node executor).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.fields.finite_difference import Derivatives, derivative_periodic

#: Curl component n is ``∂_a f_c − ∂_b f_d``, as ``((c, a), (d, b))``.
CURL_TERMS = (((2, 1), (1, 2)), ((0, 2), (2, 0)), ((1, 0), (0, 1)))


def _check_vector(field: np.ndarray) -> None:
    if field.ndim != 4 or field.shape[3] != 3:
        raise ValueError(f"expected (nx, ny, nz, 3) vector field, got {field.shape}")


def curl_periodic(field: np.ndarray, spacing: float, order: int = 4) -> np.ndarray:
    """Curl of a periodic vector field (paper Eq. 1).

    Returns an array of the same shape.  For the velocity this is the
    vorticity; for the magnetic field, the electric current.
    """
    _check_vector(field)

    def d(comp: int, axis: int) -> np.ndarray:
        return derivative_periodic(field[..., comp], axis, spacing, order)

    return np.stack(
        [d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)], axis=-1
    )


def curl_components(stencil: Derivatives) -> Iterator[np.ndarray]:
    """The curl's components in turn, each in ``stencil.scratch``: read it before the next."""
    for plus, minus in CURL_TERMS:
        yield np.subtract(stencil.take(*plus), stencil.take(*minus), out=stencil.scratch)


def curl_interior(
    block: np.ndarray, spacing: float, order: int = 4, margin: int | None = None
) -> np.ndarray:
    """Curl on the interior of a halo-padded vector block."""
    _check_vector(block)
    stencil = Derivatives(block, spacing, order, margin)
    out = np.empty(stencil.shape + (3,))
    for n, component in enumerate(curl_components(stencil)):
        out[..., n] = component
    return out


def divergence_periodic(
    field: np.ndarray, spacing: float, order: int = 4
) -> np.ndarray:
    """Divergence of a periodic vector field (0 for solenoidal fields)."""
    _check_vector(field)
    return sum(
        derivative_periodic(field[..., comp], comp, spacing, order)
        for comp in range(3)
    )


def gradient_tensor_periodic(
    field: np.ndarray, spacing: float, order: int = 4
) -> np.ndarray:
    """Velocity-gradient tensor A_ij = dv_i/dx_j of a periodic field.

    Returns shape ``(nx, ny, nz, 3, 3)``.  The paper notes this tensor
    has 9 components versus the velocity's 3, which is why shipping it to
    a client is prohibitively expensive (§5.3).
    """
    _check_vector(field)
    rows = [
        np.stack(
            [
                derivative_periodic(field[..., i], j, spacing, order)
                for j in range(3)
            ],
            axis=-1,
        )
        for i in range(3)
    ]
    return np.stack(rows, axis=-2)


def gradient_tensor_interior(
    block: np.ndarray, spacing: float, order: int = 4, margin: int | None = None
) -> np.ndarray:
    """Velocity-gradient tensor on the interior of a halo-padded block."""
    _check_vector(block)
    stencil = Derivatives(block, spacing, order, margin)
    out = np.empty(stencil.shape + (3, 3))
    for i, j in np.ndindex(3, 3):
        out[..., i, j] = stencil.take(i, j)
    return out


def vector_norm(components: Iterable[np.ndarray], scratch: np.ndarray | None = None) -> np.ndarray:
    """``sqrt((c₀² + c₁²) + c₂²)`` in float64; later squares pass through ``scratch``."""
    parts = iter(components)
    out = np.square(next(parts), dtype=np.float64)
    for component in parts:
        out += np.square(component, dtype=np.float64, out=scratch)
    return np.sqrt(out, out=out)


def _rows(gradient: np.ndarray | Derivatives) -> list[list[np.ndarray]]:
    """``A[i][j] = ∂_j f_i`` as nine arrays, from a ``(..., 3, 3)`` tensor or with none built."""
    if isinstance(gradient, Derivatives):
        return [[gradient.take(i, j) for j in range(3)] for i in range(3)]
    return [[gradient[..., i, j] for j in range(3)] for i in range(3)]


def q_criterion_from_gradient(gradient: np.ndarray | Derivatives) -> np.ndarray:
    """Second velocity-gradient invariant Q = -tr(A^2)/2.

    For incompressible flow Q = (||Omega||^2 - ||S||^2)/2, positive in
    rotation-dominated regions (vortex cores).  Computed from all nine
    tensor components — the non-linear combination the paper cites as
    the reason Q costs more to evaluate than the vorticity (§5.4) — and
    summed row by row, each row left to right.
    """
    a = _rows(gradient)
    row = [a[i][0] * a[0][i] + a[i][1] * a[1][i] + a[i][2] * a[2][i] for i in range(3)]
    return -0.5 * (row[0] + row[1] + row[2])


def r_invariant_from_gradient(gradient: np.ndarray | Derivatives) -> np.ndarray:
    """Third velocity-gradient invariant R = -det(A), expanded along the
    first row (no pivoting: within 1e-14 max|R| of LAPACK's LU)."""
    (a, b, c), (d, e, f), (g, h, i) = _rows(gradient)
    return -(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
