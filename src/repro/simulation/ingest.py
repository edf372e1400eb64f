"""Cutting fields into 8^3 database atoms and reassembling them.

Each timestep is "spatially subdivided into database atoms of size 8^3
... indexed by the time-step and the Morton code of its lower left
corner" (paper §2).  :func:`atomize` produces exactly those records; a
read hands them back as an :class:`AtomRun` — columns, not per-atom
objects — and :func:`gather_box` reassembles any box from such runs
(:func:`array_from_atoms` from a plain mapping).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from repro.grid import ATOM_SIDE, Box, snap_to_atoms
from repro.morton import encode_array


def atomize(field: np.ndarray) -> Iterator[tuple[int, bytes]]:
    """Cut a full-domain field into ``(zindex, blob)`` atom records.

    ``field`` has shape ``(side, side, side, ncomp)`` (or 3-D for a
    scalar, treated as one component).  Blobs are C-order float32 bytes
    of shape ``(ATOM_SIDE,)*3 + (ncomp,)``, yielded in Morton order of
    their lower corner.

    The whole cut is vectorised: one reshape/transpose views the domain
    as an ``(atoms, ATOM_SIDE^3 * ncomp)`` array, the corner codes come
    from one :func:`~repro.morton.encode_array` call, and a single
    argsort yields the atoms in curve order — no per-atom Python Morton
    arithmetic.

    Raises:
        ValueError: if the domain is not an atom multiple or not cubic.
    """
    if field.ndim == 3:
        field = field[..., None]
    if field.ndim != 4:
        raise ValueError(f"expected 3-D or 4-D field, got shape {field.shape}")
    side = field.shape[0]
    if field.shape[:3] != (side, side, side):
        raise ValueError(f"field must be cubic, got shape {field.shape}")
    if side % ATOM_SIDE:
        raise ValueError(f"side {side} is not a multiple of {ATOM_SIDE}")
    data = np.ascontiguousarray(field, dtype=np.float32)
    na = side // ATOM_SIDE
    ncomp = data.shape[3]
    # (na, A, na, A, na, A, c) -> (na, na, na, A, A, A, c): every atom's
    # cells become one contiguous run, in the atom's own C order.
    blocks = data.reshape(
        na, ATOM_SIDE, na, ATOM_SIDE, na, ATOM_SIDE, ncomp
    ).transpose(0, 2, 4, 1, 3, 5, 6)
    flat = np.ascontiguousarray(blocks).reshape(
        na**3, ATOM_SIDE**3 * ncomp
    )
    ax, ay, az = np.meshgrid(
        np.arange(na), np.arange(na), np.arange(na), indexing="ij"
    )
    codes = encode_array(
        ax.ravel() * ATOM_SIDE, ay.ravel() * ATOM_SIDE, az.ravel() * ATOM_SIDE
    )
    for i in np.argsort(codes, kind="stable").tolist():
        yield int(codes[i]), flat[i].tobytes()


def blob_to_array(blob: bytes, ncomp: int) -> np.ndarray:
    """Decode one atom blob back to ``(ATOM_SIDE,)*3 + (ncomp,)`` float32.

    Raises:
        ValueError: when the blob size does not match ``ncomp``.
    """
    expected = ATOM_SIDE**3 * ncomp * 4
    if len(blob) != expected:
        raise ValueError(
            f"blob of {len(blob)} bytes does not hold {ncomp}-component atom"
        )
    return np.frombuffer(blob, dtype=np.float32).reshape(
        (ATOM_SIDE,) * 3 + (ncomp,)
    )


#: One atom's blob: the stored ``bytes`` or a view of a received body.
Tile = Union[bytes, memoryview]


class AtomRun(Mapping[int, Tile]):
    """The atoms of one read, as columns.

    Attributes:
        zindexes: the atoms' corner codes, strictly increasing (uint64).
        tiles: their blobs in the same order — the list of the stored
            ``bytes`` objects of a local scan, held by reference, or a
            ``(count, atom_bytes)`` uint8 view of a halo reply's body.
        pages: for a local read, the heap page each atom came from (what
            the executor's model replays); ``None`` otherwise.

    Assembly bisects the code column (:func:`gather_box`); for callers
    that want single atoms the run also reads as a read-only
    ``zindex -> blob`` mapping.
    """

    __slots__ = ("zindexes", "tiles", "pages")

    def __init__(
        self,
        zindexes: np.ndarray,
        tiles: list[bytes] | np.ndarray,
        pages: list[int] | None = None,
    ) -> None:
        self.zindexes = zindexes
        self.tiles = tiles
        self.pages = pages

    @property
    def nbytes(self) -> int:
        """Total size of the tile column."""
        if isinstance(self.tiles, np.ndarray):
            return self.tiles.nbytes
        return sum(map(len, self.tiles))

    def nbytes_in(self, bounds: np.ndarray) -> int:
        """Size of the tiles whose codes fall in the disjoint ``[start,
        stop)`` rows of ``bounds``, found by bisecting the bounds."""
        cuts = np.searchsorted(self.zindexes, bounds)
        if isinstance(self.tiles, np.ndarray):
            return int((cuts[:, 1] - cuts[:, 0]).sum()) * self.tiles.shape[1]
        return sum(
            sum(map(len, self.tiles[start:stop])) for start, stop in cuts.tolist()
        )

    def tile_bytes(self) -> Tile:
        """The tile column end to end, as one flat byte buffer."""
        if isinstance(self.tiles, np.ndarray):
            return memoryview(self.tiles).cast("B")
        return b"".join(self.tiles)

    def find(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where ``codes`` sit in the run: ``(positions, found)``; a
        position is only meaningful where ``found``."""
        at = np.searchsorted(self.zindexes, codes)
        found = at < len(self.zindexes)
        found[found] = self.zindexes[at[found]] == codes[found]
        return at, found

    def __getitem__(self, zindex: int) -> Tile:
        at = bisect.bisect_left(self.zindexes, zindex)
        if at == len(self.zindexes) or self.zindexes[at] != zindex:
            raise KeyError(zindex)
        tile = self.tiles[at]
        return tile if isinstance(tile, bytes) else memoryview(tile)

    def __iter__(self) -> Iterator[int]:
        return iter(self.zindexes.tolist())

    def __len__(self) -> int:
        return len(self.zindexes)


def tile_codes(box: Box, side: int | None = None) -> np.ndarray:
    """Corner codes of the atom grid under ``box``, in the grid's C order.

    On a periodic domain of ``side`` the corners are taken modulo it, so
    a box overhanging the domain — or wider than it — names the atoms it
    wraps onto, the same atom as often as it repeats.
    """
    snapped = snap_to_atoms(box)
    axes = [
        np.arange(lo, hi, ATOM_SIDE) for lo, hi in zip(snapped.lo, snapped.hi)
    ]
    if side is not None:
        axes = [axis % side for axis in axes]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return encode_array(gx.ravel(), gy.ravel(), gz.ravel())


def gather_box(
    box: Box, codes: np.ndarray, runs: Sequence[AtomRun], ncomp: int
) -> np.ndarray:
    """Assemble the exact region ``box`` from the runs holding its atoms.

    ``codes`` is :func:`tile_codes` of ``box``; each is looked up in
    ``runs`` by bisection (an atom in several runs comes from the last)
    and the tiles, in grid order, go through the one :func:`_interleave`.
    Surplus atoms are never looked at.

    Raises:
        ValueError: if any grid point of ``box`` is not covered, or a
            blob's size does not match ``ncomp``.
    """
    tiles: list[Any] = [None] * len(codes)
    covered = np.zeros(len(codes), dtype=bool)
    for run in runs:
        at, found = run.find(codes)
        column = run.tiles
        for slot, i in zip(np.flatnonzero(found).tolist(), at[found].tolist()):
            tiles[slot] = column[i]
        covered |= found
    if not covered.all():
        raise ValueError("assembled region has uncovered grid points")
    return _interleave(box, tiles, ncomp)


def array_from_atoms(
    box: Box, atoms: Mapping[int, Tile] | Iterable[tuple[int, Tile]], ncomp: int
) -> np.ndarray:
    """Assemble the in-domain region ``box`` from atom records.

    ``atoms`` maps the zindex of each atom intersecting ``box`` to its
    blob (or iterates such pairs); the same assembly as
    :func:`gather_box`, the tiles looked up by key.
    """
    if not isinstance(atoms, Mapping):
        atoms = dict(atoms)
    try:
        tiles = [atoms[code] for code in tile_codes(box).tolist()]
    except KeyError:
        raise ValueError("assembled region has uncovered grid points") from None
    return _interleave(box, tiles, ncomp)


def _interleave(box: Box, tiles: Sequence[Any], ncomp: int) -> np.ndarray:
    """``box`` from the tiles of its atom grid, in the grid's C order.

    Every tile is copied once, into tile order; one reshape/transpose
    interleaves the ``(tiles, cells)`` layout back into grid order; the
    requested box is a plain slice of that (atoms that only partially
    overlap it are trimmed).
    """
    odd_sizes = set(map(len, tiles)) - {ATOM_SIDE**3 * ncomp * 4}
    if odd_sizes:
        raise ValueError(
            f"blob of {odd_sizes.pop()} bytes does not hold "
            f"{ncomp}-component atom"
        )
    snapped = snap_to_atoms(box)
    nax, nay, naz = (span // ATOM_SIDE for span in snapped.shape)
    # (tx, ty, tz, A, A, A, c) -> (tx, A, ty, A, tz, A, c): undo the
    # per-atom C order back into grid order, then slice the exact box.
    # The tile-ordered buffer is not named: it is freed before the trim.
    assembled = np.ascontiguousarray(
        np.frombuffer(b"".join(tiles), dtype=np.float32)
        .reshape(nax, nay, naz, ATOM_SIDE, ATOM_SIDE, ATOM_SIDE, ncomp)
        .transpose(0, 3, 1, 4, 2, 5, 6)
    ).reshape(snapped.shape + (ncomp,))
    trim = tuple(
        slice(b - a, b2 - a)
        for a, b, b2 in zip(snapped.lo, box.lo, box.hi)
    )
    return np.ascontiguousarray(assembled[trim])
