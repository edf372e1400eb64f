"""Central finite-difference derivatives of order 2, 4, 6 and 8.

The JHTDB evaluates spatial derivatives with centred finite differencing
of selectable order (paper Eq. 2 shows the 4th-order stencil).  An
order-``2m`` centred first derivative uses the ``2m`` neighbours within
distance ``m`` along the axis, so the *kernel half-width* — the halo of
extra data a node must fetch from its neighbours — is ``order // 2``.

Two evaluation modes are provided:

* :func:`derivative_periodic` differentiates a whole periodic domain
  (ground truth for tests and for client-side baselines);
* :class:`Derivatives` (:func:`derivative_interior` is one call of it)
  differentiates the interior of a block that carries a halo of ``margin``
  points on every face: the per-node executor's assembled atom data.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

#: Finite-difference orders with known centred coefficients.
SUPPORTED_ORDERS = (2, 4, 6, 8)

# Coefficients c_k of sum_k c_k * (f(x + k*dx) - f(x - k*dx)) / dx for the
# centred first derivative, indexed by order.
_COEFFICIENTS: dict[int, tuple[float, ...]] = {
    2: (1 / 2,),
    4: (2 / 3, -1 / 12),
    6: (3 / 4, -3 / 20, 1 / 60),
    8: (4 / 5, -1 / 5, 4 / 105, -1 / 280),
}


def fd_coefficients(order: int) -> tuple[float, ...]:
    """Centred-difference coefficients ``(c_1, ..., c_m)`` for ``order``.

    Raises:
        ValueError: for an unsupported order.
    """
    try:
        return _COEFFICIENTS[order]
    except KeyError:
        raise ValueError(
            f"order {order} unsupported; pick one of {SUPPORTED_ORDERS}"
        ) from None


def kernel_half_width(order: int) -> int:
    """Halo points needed on each face for an ``order`` derivative."""
    fd_coefficients(order)
    return order // 2


def derivative_periodic(
    data: np.ndarray, axis: int, spacing: float, order: int = 4
) -> np.ndarray:
    """First derivative along ``axis`` of a periodic field.

    ``data`` may have trailing component axes; only ``axis`` (0, 1 or 2)
    is differentiated.

    Raises:
        ValueError: bad axis, non-positive spacing or unsupported order.
    """
    _check_axis_spacing(axis, spacing)
    out = np.zeros_like(data, dtype=np.result_type(data, np.float64))
    for k, coeff in enumerate(fd_coefficients(order), start=1):
        out += coeff * (np.roll(data, -k, axis=axis) - np.roll(data, k, axis=axis))
    return out / spacing


class Derivatives:
    """``∂_axis f_comp`` on the interior of one halo-padded block: the
    one stencil loop, each derivative computed at most once.

    ``block`` is ``(nx, ny, nz, ...)`` of any dtype with a halo of
    ``margin`` points (default: the kernel half-width) on every face of
    its first three axes; derivatives have the interior ``shape`` and
    ``computed`` counts them.  While ``retain`` is set :meth:`take`
    keeps each for the block's later readers, else hands it out for good.

    Raises:
        ValueError: unsupported order, or a block thinner than its halo.
    """

    def __init__(
        self, block: np.ndarray, spacing: float, order: int = 4, margin: int | None = None
    ) -> None:
        self._coefficients = fd_coefficients(order)
        self.block, self.spacing = block, spacing
        self.margin = margin = order // 2 if margin is None else margin
        for ax, n in enumerate(block.shape[:3]):
            if n < 2 * margin + 1:
                raise ValueError(f"block axis {ax} of size {n} thinner than halo")
        self.shape = tuple(n - 2 * margin for n in block.shape[:3])
        self.scratch = np.empty(self.shape)
        self.retain, self.computed = False, 0
        self._memo: dict[tuple[int, int], np.ndarray] = {}

    @cached_property
    def components(self) -> np.ndarray:
        """The block as contiguous float64 ``(ncomp, nx, ny, nz)``: converted
        once, so every shifted view is unit-stride and nothing is cast again."""
        cells = self.block.reshape(self.block.shape[:3] + (-1,))
        return np.ascontiguousarray(np.moveaxis(cells, 3, 0), dtype=np.float64)

    def take(self, comp: int, axis: int) -> np.ndarray:
        """``∂_axis`` of component ``comp``, read-only to the caller: per
        point ``Σ_k c_k (f₊ₖ − f₋ₖ)`` in coefficient order, then ``/ spacing``.

        Raises:
            ValueError: bad axis or spacing, or a halo thinner than the stencil.
        """
        _check_axis_spacing(axis, self.spacing)
        half, margin = len(self._coefficients), self.margin
        if margin < half:
            raise ValueError(f"margin {margin} too small for order {2 * half} (needs {half})")
        key = (comp, axis)
        if key not in self._memo:
            field = self.components[comp]
            window = [slice(margin, n - margin) for n in field.shape]
            stop = field.shape[axis] - margin
            out = self._memo[key] = np.empty(self.shape)
            for k, coeff in enumerate(self._coefficients, start=1):
                term = out if k == 1 else self.scratch  # no temporaries
                window[axis] = slice(margin + k, stop + k)
                plus = field[tuple(window)]
                window[axis] = slice(margin - k, stop - k)
                np.subtract(plus, field[tuple(window)], out=term)
                term *= coeff
                if k > 1:
                    out += term
            out /= self.spacing
            self.computed += 1
        return self._memo[key] if self.retain else self._memo.pop(key)


def derivative_interior(
    block: np.ndarray, axis: int, spacing: float, order: int = 4, margin: int | None = None
) -> np.ndarray:
    """First derivative along ``axis`` on the interior of a halo-padded
    block (see :class:`Derivatives`), trailing component axes kept.

    Raises:
        ValueError: if the halo is thinner than the stencil needs.
    """
    stencil = Derivatives(block, spacing, order, margin)
    parts = [stencil.take(comp, axis) for comp in range(len(stencil.components))]
    return np.moveaxis(np.array(parts), 0, -1).reshape(stencil.shape + block.shape[3:])


def _check_axis_spacing(axis: int, spacing: float) -> None:
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
