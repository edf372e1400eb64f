"""Tests for spectral synthesis, dataset generators and atomization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.executor import _assemble
from repro.grid import ATOM_SIDE, Box
from repro.morton import encode
from repro.simulation import (
    DatasetSpec,
    array_from_atoms,
    atomize,
    blob_to_array,
    channel_dataset,
    isotropic_dataset,
    mhd_dataset,
    solenoidal_field,
    von_karman_spectrum,
)
from repro.simulation.ingest import AtomRun


class TestSpectral:
    def test_shape_and_dtype(self):
        field = solenoidal_field(16, seed=1)
        assert field.shape == (16, 16, 16, 3)
        assert field.dtype == np.float32

    def test_deterministic(self):
        a = solenoidal_field(16, seed=5)
        b = solenoidal_field(16, seed=5)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        a = solenoidal_field(16, seed=1)
        b = solenoidal_field(16, seed=2)
        assert not np.array_equal(a, b)

    def test_rms_normalisation(self):
        field = solenoidal_field(32, seed=3, rms=2.0)
        rms = np.sqrt(np.mean(np.sum(field.astype(np.float64) ** 2, axis=-1)))
        assert rms == pytest.approx(2.0, rel=1e-5)

    def test_zero_mean(self):
        field = solenoidal_field(32, seed=4)
        assert np.abs(field.mean(axis=(0, 1, 2))).max() < 1e-5

    def test_spectrally_solenoidal(self):
        """Divergence in spectral space (exact for the synthesis) is ~0."""
        field = solenoidal_field(16, seed=6, dtype=np.float64)
        spectral = [np.fft.rfftn(field[..., c]) for c in range(3)]
        k1 = np.fft.fftfreq(16, d=1 / 16)
        kz = np.fft.rfftfreq(16, d=1 / 16)
        kx, ky, kzz = np.meshgrid(k1, k1, kz, indexing="ij")
        div = kx * spectral[0] + ky * spectral[1] + kzz * spectral[2]
        scale = max(np.abs(s).max() for s in spectral)
        assert np.abs(div).max() / scale < 1e-10

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            solenoidal_field(15)
        with pytest.raises(ValueError):
            solenoidal_field(0)

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            von_karman_spectrum(0)

    def test_long_tailed_norm_distribution(self):
        """Max |field| well above RMS: thresholds can target rare events."""
        field = solenoidal_field(64, seed=7)
        norms = np.linalg.norm(field.astype(np.float64), axis=-1)
        rms = np.sqrt(np.mean(norms**2))
        assert norms.max() > 2.5 * rms


class TestDatasetSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec("d", 12, 1, 1.0, {"velocity": 3})  # not multiple of 8
        with pytest.raises(ValueError):
            DatasetSpec("d", 16, 0, 1.0, {"velocity": 3})
        with pytest.raises(ValueError):
            DatasetSpec("d", 16, 1, 0.0, {"velocity": 3})
        with pytest.raises(ValueError):
            DatasetSpec("d", 16, 1, 1.0, {})

    def test_bytes_per_timestep(self):
        spec = DatasetSpec("d", 16, 1, 1.0, {"velocity": 3, "pressure": 1})
        assert spec.bytes_per_timestep("velocity") == 16**3 * 12
        assert spec.bytes_per_timestep("pressure") == 16**3 * 4


class TestSyntheticDatasets:
    def test_mhd_fields(self):
        ds = mhd_dataset(side=16, timesteps=3)
        assert set(ds.spec.fields) == {"velocity", "magnetic", "pressure"}
        velocity = ds.field_array("velocity", 0)
        assert velocity.shape == (16, 16, 16, 3)
        pressure = ds.field_array("pressure", 0)
        assert pressure.shape == (16, 16, 16, 1)

    def test_unknown_field_rejected(self):
        ds = isotropic_dataset(side=16)
        with pytest.raises(KeyError):
            ds.field_array("magnetic", 0)

    def test_timestep_bounds(self):
        ds = isotropic_dataset(side=16, timesteps=2)
        with pytest.raises(ValueError):
            ds.field_array("velocity", 2)
        with pytest.raises(ValueError):
            ds.field_array("velocity", -1)

    def test_deterministic_across_instances(self):
        a = mhd_dataset(side=16).field_array("velocity", 1)
        b = mhd_dataset(side=16).field_array("velocity", 1)
        assert np.array_equal(a, b)

    def test_timesteps_evolve_smoothly(self):
        ds = isotropic_dataset(side=32, timesteps=4)
        t0 = ds.field_array("velocity", 0).astype(np.float64)
        t1 = ds.field_array("velocity", 1).astype(np.float64)
        t3 = ds.field_array("velocity", 3).astype(np.float64)

        def correlation(a, b):
            return float(np.sum(a * b) / np.sqrt(np.sum(a * a) * np.sum(b * b)))

        near = correlation(t0, t1)
        far = correlation(t0, t3)
        assert near > 0.9  # adjacent steps strongly correlated
        assert far < near  # correlation decays with separation

    def test_energy_roughly_stationary(self):
        # The spectral background keeps constant energy; the intense
        # structures add a time-varying but bounded contribution.
        ds = isotropic_dataset(side=32, timesteps=4)
        energies = [
            float(np.mean(np.sum(ds.field_array("velocity", t).astype(np.float64) ** 2, -1)))
            for t in range(4)
        ]
        assert max(energies) / min(energies) < 2.0

    def test_background_energy_exactly_stationary(self):
        from repro.simulation.datasets import DatasetSpec, SyntheticDataset

        spec = DatasetSpec(
            "plain", 32, 4, 1.0, {"velocity": 3}, structures=None
        )
        ds = SyntheticDataset(spec)
        energies = [
            float(np.mean(np.sum(ds.field_array("velocity", t).astype(np.float64) ** 2, -1)))
            for t in range(4)
        ]
        # A and B are only statistically orthogonal, so allow the small
        # cross-term wobble of a finite grid.
        assert max(energies) / min(energies) < 1.2

    def test_array_cache_reuses_objects(self):
        ds = mhd_dataset(side=16)
        a = ds.field_array("velocity", 0)
        b = ds.field_array("velocity", 0)
        assert a is b

    def test_channel_mean_profile(self):
        ds = channel_dataset(side=32)
        velocity = ds.field_array("velocity", 0).astype(np.float64)
        streamwise_mean = velocity[..., 0].mean(axis=(0, 2))
        centre = streamwise_mean[16]
        wall = streamwise_mean[0]
        assert centre > wall + 0.5  # parabolic profile peaks mid-channel

    def test_channel_fluctuations_damped_at_walls(self):
        ds = channel_dataset(side=32)
        velocity = ds.field_array("velocity", 0).astype(np.float64)
        fluct = velocity[..., 1]  # wall-normal component has no mean
        wall_rms = np.sqrt((fluct[:, 0, :] ** 2).mean())
        centre_rms = np.sqrt((fluct[:, 16, :] ** 2).mean())
        assert wall_rms < 0.3 * centre_rms


class TestAtomize:
    def test_atom_count_and_order(self):
        field = np.zeros((16, 16, 16, 3), dtype=np.float32)
        atoms = list(atomize(field))
        assert len(atoms) == 8
        codes = [code for code, _ in atoms]
        assert codes == sorted(codes)

    def test_blob_round_trip(self):
        rng = np.random.default_rng(0)
        field = rng.normal(size=(16, 16, 16, 3)).astype(np.float32)
        for code, blob in atomize(field):
            block = blob_to_array(blob, 3)
            assert block.shape == (8, 8, 8, 3)
        # Check one specific atom's content.
        atoms = dict(atomize(field))
        blob = atoms[encode(8, 0, 0)]
        assert np.array_equal(blob_to_array(blob, 3), field[8:16, 0:8, 0:8])

    def test_scalar_field_atomizes(self):
        field = np.ones((8, 8, 8), dtype=np.float32)
        atoms = list(atomize(field))
        assert len(atoms) == 1
        assert blob_to_array(atoms[0][1], 1).shape == (8, 8, 8, 1)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            list(atomize(np.zeros((12, 12, 12, 3))))
        with pytest.raises(ValueError):
            list(atomize(np.zeros((8, 8, 16, 3))))
        with pytest.raises(ValueError):
            list(atomize(np.zeros((8, 8))))

    def test_blob_size_validation(self):
        with pytest.raises(ValueError):
            blob_to_array(b"123", 3)


class TestArrayFromAtoms:
    def test_reassemble_full_domain(self):
        rng = np.random.default_rng(1)
        field = rng.normal(size=(16, 16, 16, 3)).astype(np.float32)
        atoms = dict(atomize(field))
        out = array_from_atoms(Box.cube(16), atoms, 3)
        assert np.array_equal(out, field)

    def test_reassemble_partial_box(self):
        rng = np.random.default_rng(2)
        field = rng.normal(size=(16, 16, 16, 3)).astype(np.float32)
        atoms = dict(atomize(field))
        box = Box((3, 5, 6), (11, 13, 14))
        out = array_from_atoms(box, atoms, 3)
        assert np.array_equal(out, field[3:11, 5:13, 6:14])

    def test_missing_atom_detected(self):
        field = np.ones((16, 16, 16, 3), dtype=np.float32)
        atoms = dict(atomize(field))
        del atoms[encode(0, 0, 0)]
        with pytest.raises(ValueError):
            array_from_atoms(Box.cube(16), atoms, 3)

    def test_accepts_iterable_of_pairs(self):
        field = np.ones((8, 8, 8), dtype=np.float32)
        out = array_from_atoms(Box.cube(8), atomize(field), 1)
        assert out.shape == (8, 8, 8, 1)


# -- the one assembly, against np.pad(mode="wrap") -----------------------------

FIELDS = {
    (side, ncomp): np.random.default_rng(side + ncomp)
    .normal(size=(side,) * 3 + (ncomp,))
    .astype(np.float32)
    for side in (16, 32)
    for ncomp in (1, 3)
}


def two_runs(atoms: dict, cut: int) -> list[AtomRun]:
    """``atoms`` as the two kinds of run an executor holds: the first
    ``cut`` along the curve as a wire reply's 2-D view, the rest as a
    local scan's list of the stored blobs."""
    zindexes = np.array(sorted(atoms), dtype=np.uint64)
    tiles = [atoms[z] for z in zindexes.tolist()]
    body = np.frombuffer(b"".join(tiles[:cut]), dtype=np.uint8)
    return [
        AtomRun(zindexes[:cut], body.reshape(cut, len(tiles[0]))),
        AtomRun(zindexes[cut:], tiles[cut:]),
    ]


@st.composite
def blocks(draw):
    side = draw(st.sampled_from((16, 32)))
    lo = draw(st.tuples(*[st.integers(0, side - 1)] * 3))
    shape = draw(st.tuples(*[st.integers(1, side)] * 3))
    box = Box(lo, tuple(min(l + n, side) for l, n in zip(lo, shape)))
    atoms = (side // ATOM_SIDE) ** 3
    return (
        side, draw(st.sampled_from((1, 3))), draw(st.integers(0, 4)), box,
        draw(st.integers(0, atoms)),
    )


@settings(max_examples=60, deadline=None)
@given(blocks())
# Every overhang of test_executor_model.LOPSIDED (one side only, the
# block wider than the domain along x; x and z with y the other way).
@example((32, 3, 4, Box((3, 7, 3), (32, 20, 27)), 20))
@example((32, 3, 4, Box((0, 7, 3), (29, 20, 27)), 0))
@example((32, 3, 4, Box((3, 0, 2), (32, 29, 32)), 64))
# Wider than the domain on one, two and three axes; no halo at all.
@example((16, 1, 2, Box((0, 3, 5), (16, 9, 6)), 3))
@example((16, 3, 1, Box((0, 0, 5), (16, 16, 11)), 7))
@example((16, 3, 4, Box.cube(16), 8))
@example((32, 1, 0, Box.cube(32), 11))
# Inside one atom, with and without a halo that leaves it.
@example((16, 3, 0, Box((9, 10, 11), (12, 11, 14)), 5))
@example((16, 1, 3, Box((9, 10, 11), (12, 11, 14)), 3))
def test_a_block_is_the_matching_slice_of_the_wrapped_field(block):
    side, ncomp, halo, box, cut = block
    field = FIELDS[side, ncomp]
    atoms = dict(atomize(field))
    wrapped = np.pad(field, [(halo, halo)] * 3 + [(0, 0)], mode="wrap")
    expected = wrapped[
        tuple(slice(lo, hi + 2 * halo) for lo, hi in zip(box.lo, box.hi))
    ]
    runs = two_runs(atoms, cut)
    assert np.array_equal(_assemble(box.expand(halo), side, runs, ncomp), expected)
    inner = tuple(slice(halo, halo + n) for n in box.shape)
    assert np.array_equal(array_from_atoms(box, atoms, ncomp), expected[inner])

    # An atom the transaction cannot see is simply not in its run.
    corner = tuple(lo // ATOM_SIDE * ATOM_SIDE for lo in box.lo)
    needed = encode(*corner)
    for run in runs:
        keep = run.zindexes != needed
        run.zindexes, run.tiles = run.zindexes[keep], [
            tile for tile, kept in zip(run.tiles, keep) if kept
        ]
    with pytest.raises(ValueError, match="uncovered grid points"):
        _assemble(box.expand(halo), side, runs, ncomp)
    with pytest.raises(ValueError, match="does not hold"):
        array_from_atoms(box, {**atoms, needed: atoms[needed][:-4]}, ncomp)
