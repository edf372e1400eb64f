"""Tests for finite differences and differential operators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fields import (
    SUPPORTED_ORDERS,
    Derivatives,
    curl_interior,
    curl_periodic,
    derivative_interior,
    derivative_periodic,
    divergence_periodic,
    fd_coefficients,
    gradient_tensor_interior,
    gradient_tensor_periodic,
    kernel_half_width,
)
from repro.fields.derived import default_registry
from repro.fields.operators import (
    q_criterion_from_gradient,
    r_invariant_from_gradient,
)

SIDE = 32
SPACING = 2 * np.pi / SIDE


def grid():
    coords = np.arange(SIDE) * SPACING
    return np.meshgrid(coords, coords, coords, indexing="ij")


class TestCoefficients:
    def test_supported_orders(self):
        for order in SUPPORTED_ORDERS:
            coeffs = fd_coefficients(order)
            assert len(coeffs) == order // 2

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            fd_coefficients(3)

    def test_half_width(self):
        assert kernel_half_width(2) == 1
        assert kernel_half_width(4) == 2
        assert kernel_half_width(8) == 4

    def test_fourth_order_matches_paper_eq2(self):
        # Paper Eq. 2: 2/3 (f+1 - f-1) - 1/12 (f+2 - f-2).
        assert fd_coefficients(4) == (2 / 3, -1 / 12)

    def test_coefficients_are_consistent(self):
        # A centred first-derivative stencil must reproduce d(x)/dx = 1:
        # sum_k c_k * 2k = 1.
        for order in SUPPORTED_ORDERS:
            total = sum(2 * k * c for k, c in enumerate(fd_coefficients(order), 1))
            assert total == pytest.approx(1.0)


class TestPeriodicDerivative:
    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_derivative_of_sine(self, order):
        x, _, _ = grid()
        data = np.sin(x)
        out = derivative_periodic(data, 0, SPACING, order)
        error = np.max(np.abs(out - np.cos(x)))
        assert error < 10.0 ** (-(order - 1))

    def test_higher_order_is_more_accurate(self):
        x, _, _ = grid()
        data = np.sin(3 * x)
        errors = [
            np.max(np.abs(derivative_periodic(data, 0, SPACING, o) - 3 * np.cos(3 * x)))
            for o in SUPPORTED_ORDERS
        ]
        assert errors == sorted(errors, reverse=True)

    def test_axis_selection(self):
        _, y, _ = grid()
        data = np.sin(y)
        out = derivative_periodic(data, 1, SPACING, 4)
        assert np.allclose(out, np.cos(y), atol=1e-3)
        assert np.allclose(derivative_periodic(data, 0, SPACING, 4), 0, atol=1e-10)

    def test_constant_has_zero_derivative(self):
        data = np.full((8, 8, 8), 3.14)
        assert np.allclose(derivative_periodic(data, 2, 1.0, 4), 0)

    def test_invalid_arguments(self):
        data = np.zeros((8, 8, 8))
        with pytest.raises(ValueError):
            derivative_periodic(data, 3, 1.0)
        with pytest.raises(ValueError):
            derivative_periodic(data, 0, 0.0)

    def test_trailing_component_axes_pass_through(self):
        x, _, _ = grid()
        data = np.stack([np.sin(x), np.cos(x)], axis=-1)
        out = derivative_periodic(data, 0, SPACING, 4)
        assert np.allclose(out[..., 0], np.cos(x), atol=1e-3)
        assert np.allclose(out[..., 1], -np.sin(x), atol=1e-3)


class TestInteriorDerivative:
    @pytest.mark.parametrize("order", SUPPORTED_ORDERS)
    def test_matches_periodic_on_interior(self, order):
        x, y, z = grid()
        data = np.sin(x) * np.cos(2 * y) + np.sin(z)
        margin = kernel_half_width(order)
        padded = np.pad(data, margin, mode="wrap")
        interior = derivative_interior(padded, 0, SPACING, order)
        full = derivative_periodic(data, 0, SPACING, order)
        assert np.allclose(interior, full, atol=1e-10)

    def test_margin_larger_than_stencil(self):
        x, _, _ = grid()
        data = np.sin(x)
        padded = np.pad(data, 4, mode="wrap")
        out = derivative_interior(padded, 0, SPACING, 2, margin=4)
        assert out.shape == data.shape
        assert np.allclose(out, np.cos(x), atol=1e-1)

    def test_margin_too_small_rejected(self):
        with pytest.raises(ValueError):
            derivative_interior(np.zeros((10, 10, 10)), 0, 1.0, 8, margin=1)

    def test_block_thinner_than_halo_rejected(self):
        with pytest.raises(ValueError):
            derivative_interior(np.zeros((3, 10, 10)), 0, 1.0, 4)


class TestCurl:
    def test_curl_of_known_field(self):
        # v = (0, 0, sin(x)) -> curl = (0, -cos(x), 0)... wait:
        # curl = (dvz/dy - dvy/dz, dvx/dz - dvz/dx, dvy/dx - dvx/dy)
        x, _, _ = grid()
        field = np.zeros(x.shape + (3,))
        field[..., 2] = np.sin(x)
        curl = curl_periodic(field, SPACING, 4)
        assert np.allclose(curl[..., 0], 0, atol=1e-10)
        assert np.allclose(curl[..., 1], -np.cos(x), atol=1e-3)
        assert np.allclose(curl[..., 2], 0, atol=1e-10)

    def test_curl_of_gradient_vanishes(self):
        x, y, z = grid()
        phi = np.sin(x) * np.cos(y) * np.sin(2 * z)
        gradient = np.stack(
            [derivative_periodic(phi, ax, SPACING, 8) for ax in range(3)], axis=-1
        )
        curl = curl_periodic(gradient, SPACING, 8)
        assert np.max(np.abs(curl)) < 1e-4

    def test_interior_matches_periodic(self):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(16, 16, 16, 3))
        margin = kernel_half_width(4)
        padded = np.pad(field, [(margin,) * 2] * 3 + [(0, 0)], mode="wrap")
        interior = curl_interior(padded, 1.0, 4)
        full = curl_periodic(field, 1.0, 4)
        assert np.allclose(interior, full, atol=1e-10)

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError):
            curl_periodic(np.zeros((8, 8, 8)), 1.0)


class TestGradientTensorAndInvariants:
    def test_tensor_shape_and_values(self):
        x, y, _ = grid()
        field = np.zeros(x.shape + (3,))
        field[..., 0] = np.sin(y)  # dvx/dy = cos(y)
        tensor = gradient_tensor_periodic(field, SPACING, 4)
        assert tensor.shape == x.shape + (3, 3)
        assert np.allclose(tensor[..., 0, 1], np.cos(y), atol=1e-3)
        assert np.allclose(tensor[..., 1, 0], 0, atol=1e-10)

    def test_interior_matches_periodic(self):
        rng = np.random.default_rng(1)
        field = rng.normal(size=(16, 16, 16, 3))
        margin = kernel_half_width(6)
        padded = np.pad(field, [(margin,) * 2] * 3 + [(0, 0)], mode="wrap")
        interior = gradient_tensor_interior(padded, 1.0, 6)
        assert np.allclose(interior, gradient_tensor_periodic(field, 1.0, 6), atol=1e-10)

    def test_q_criterion_of_pure_rotation_positive(self):
        # Solid-body rotation: A = [[0, -w, 0], [w, 0, 0], [0, 0, 0]].
        omega = 2.0
        tensor = np.zeros((4, 4, 4, 3, 3))
        tensor[..., 0, 1] = -omega
        tensor[..., 1, 0] = omega
        q = q_criterion_from_gradient(tensor)
        assert np.allclose(q, omega**2)

    def test_q_criterion_of_pure_strain_negative(self):
        tensor = np.zeros((2, 2, 2, 3, 3))
        tensor[..., 0, 0] = 1.0
        tensor[..., 1, 1] = -1.0
        q = q_criterion_from_gradient(tensor)
        assert np.all(q < 0)

    def test_r_invariant_is_negative_determinant(self):
        # The cofactor expansion is the one value the single-primitive
        # kernel moved: no pivoting, so not LAPACK's last bits.
        rng = np.random.default_rng(2)
        tensor = rng.normal(size=(3, 3, 3, 3, 3))
        r = r_invariant_from_gradient(tensor)
        expected = -np.linalg.det(tensor)
        assert np.max(np.abs(r - expected)) <= 1e-14 * np.max(np.abs(expected))


class TestDivergence:
    def test_divergence_of_solenoidal_projection(self):
        from repro.simulation import solenoidal_field

        field = solenoidal_field(SIDE, seed=5, dtype=np.float64)
        div = divergence_periodic(field, SPACING, 8)
        scale = np.sqrt(np.mean(np.sum(field**2, axis=-1)))
        assert np.max(np.abs(div)) / scale < 0.35  # FD residual of spectral solenoidality


# -- the seed's formulas, kept as the reference --------------------------------
#
# What ``repro.fields`` computed before every kernel moved onto one
# derivative primitive: a cast, a difference, a scaled temporary and an
# ``out +=`` per coefficient, stacked tensors, ``einsum`` and ``det``.


def seed_derivative(block, axis, spacing, order, margin):
    def shifted(offset):
        return block[tuple(
            slice(margin + (offset if ax == axis else 0),
                  n - margin + (offset if ax == axis else 0))
            for ax, n in enumerate(block.shape[:3])
        )]

    out = np.zeros(shifted(0).shape, dtype=np.float64)
    for k, coeff in enumerate(fd_coefficients(order), start=1):
        out += coeff * (shifted(+k).astype(np.float64) - shifted(-k))
    return out / spacing


def seed_curl(block, spacing, order, margin):
    def d(comp, axis):
        return seed_derivative(block[..., comp], axis, spacing, order, margin)

    return np.stack(
        [d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)], axis=-1
    )


def seed_gradient(block, spacing, order, margin):
    rows = [
        np.stack(
            [
                seed_derivative(block[..., i], j, spacing, order, margin)
                for j in range(3)
            ],
            axis=-1,
        )
        for i in range(3)
    ]
    return np.stack(rows, axis=-2)


def seed_vector_norm(field):
    return np.sqrt(np.sum(np.square(field, dtype=np.float64), axis=-1))


def seed_q(gradient):
    return -0.5 * np.einsum("...ij,...ji->...", gradient, gradient)


def halo_block(
    seed, order, interior, *, extra=0, trim=0, dtype=np.float64, spacing=1.0
):
    """``(block, spacing, order, margin)`` of one draw of :func:`halo_blocks`."""
    margin = kernel_half_width(order) + extra
    rng = np.random.default_rng(seed)
    full = rng.normal(size=tuple(n + 2 * (margin + trim) for n in interior) + (3,))
    block = full.astype(dtype)[(slice(trim, -trim or None),) * 3]
    return block, spacing, order, margin


@st.composite
def halo_blocks(draw):
    """``(block, spacing, order, margin)``: a vector block as the executor
    hands it over — a trimmed, non-contiguous view as often as not —
    cubic or lopsided, down to one interior point an axis."""
    return halo_block(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(SUPPORTED_ORDERS)),
        draw(st.tuples(*[st.integers(1, 7)] * 3)),
        extra=draw(st.integers(0, 2)),
        trim=draw(st.integers(0, 2)),
        dtype=draw(st.sampled_from([np.float32, np.float64])),
        spacing=draw(st.sampled_from([1.0, 0.1, 2 * np.pi / 64])),
    )


class TestOnePrimitiveIsBitIdenticalToTheSeed:
    @settings(max_examples=60, deadline=None)
    @given(halo_blocks(), st.integers(0, 2))
    def test_operators(self, drawn, axis):
        block, spacing, order, margin = drawn
        for view in (block, block[..., :1], block[..., 1]):  # ncomp 3, 1, none
            assert np.array_equal(
                derivative_interior(view, axis, spacing, order, margin),
                seed_derivative(view, axis, spacing, order, margin),
            )
        assert np.array_equal(
            curl_interior(block, spacing, order, margin),
            seed_curl(block, spacing, order, margin),
        )
        assert np.array_equal(
            gradient_tensor_interior(block, spacing, order, margin),
            seed_gradient(block, spacing, order, margin),
        )

    @settings(max_examples=60, deadline=None)
    @given(halo_blocks())
    # One point whose |R| is 3.5e-4: a bound relative to max|R| (1e-14
    # of it) was below the 1.5e-17 two determinant algorithms differ by.
    @example(halo_block(1312, 4, (1, 1, 1)))
    def test_registry_norms(self, drawn):
        block, spacing, order, margin = drawn
        registry = default_registry()
        # A halo of exactly one half-width goes in as the array (the
        # benchmark's probe, get_field); a wider one as the executor
        # hands it over, shared by every field of the batch.
        handed = block
        if margin > kernel_half_width(order):
            handed = Derivatives(block, spacing, order, margin)
            handed.retain = True
        curl = seed_vector_norm(seed_curl(block, spacing, order, margin))
        gradient = seed_gradient(block, spacing, order, margin)
        for name in ("vorticity", "electric_current"):
            norm = registry.get(name).norm(handed, spacing, order)
            assert np.array_equal(norm, curl)
        q = registry.get("q_criterion").norm(handed, spacing, order)
        assert np.array_equal(q, np.abs(seed_q(gradient)))
        # R is the one value that moved: cofactors, not a pivoted LU.
        # Either way a 3x3 determinant loses a few eps times the product
        # of its row norms (Hadamard's bound on |det|), per point,
        # however small |R| itself is; 32 eps covers both algorithms.
        r = registry.get("r_invariant").norm(handed, spacing, order)
        expected = np.abs(np.linalg.det(gradient))
        rows = np.prod(np.linalg.norm(gradient, axis=-1), axis=-1)
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(r - expected) <= 32 * eps * rows)
        # A raw field has no halo: its array is the interior itself.
        interior = block[(slice(margin, -margin),) * 3]
        raw = registry.get("velocity").norm
        assert np.array_equal(
            raw(interior if handed is block else handed, spacing, order),
            seed_vector_norm(interior),
        )

    def test_a_point_has_one_r_whatever_box_holds_it(self):
        # Cache containment serves a 16^3 box from the 32^3 one around it.
        rng = np.random.default_rng(7)
        field = rng.normal(size=(32, 32, 32, 3)).astype(np.float32)
        r_norm, halo = default_registry().get("r_invariant").norm, kernel_half_width(4)
        padded = np.pad(field, [(halo, halo)] * 3 + [(0, 0)], mode="wrap")
        outer = r_norm(padded, 0.1, 4)
        inner = r_norm(padded[8:24 + 2 * halo, 4:20 + 2 * halo, 16:32 + 2 * halo], 0.1, 4)
        assert np.array_equal(inner, outer[8:24, 4:20, 16:32])

    @pytest.mark.parametrize("call, message", [
        (lambda: derivative_interior(np.zeros((9, 9, 9)), 3, 1.0), "axis must be 0, 1 or 2, got 3"),
        (lambda: derivative_interior(np.zeros((9, 9, 9)), 0, 0.0), "spacing must be positive, got 0.0"),
        (lambda: curl_interior(np.zeros((9, 9, 9, 3)), -1.0), "spacing must be positive, got -1.0"),
        (lambda: derivative_interior(np.zeros((9, 9, 9)), 0, 1.0, 5), "order 5 unsupported"),
        (
            lambda: derivative_interior(np.zeros((10, 10, 10)), 0, 1.0, 8, margin=1),
            r"margin 1 too small for order 8 \(needs 4\)",
        ),
        (
            lambda: gradient_tensor_interior(np.zeros((9, 4, 9, 3)), 1.0, 4),
            "block axis 1 of size 4 thinner than halo",
        ),
        (
            lambda: curl_interior(np.zeros((9, 9, 9, 2)), 1.0),
            r"expected \(nx, ny, nz, 3\) vector field, got \(9, 9, 9, 2\)",
        ),
    ])
    def test_the_errors_keep_their_messages(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()
