"""Decomposition of spatial boxes into contiguous Morton-code ranges.

A clustered index keyed on Morton codes serves an axis-aligned box query
as a union of contiguous key ranges.  The recursion below walks the
implicit octree of the z-order curve: an octant wholly inside the query
box contributes one contiguous range covering all of its codes, an octant
that misses the box contributes nothing, and a partially-overlapping
octant is split into its eight children.  Adjacent ranges are merged so
the result is minimal.

The same machinery shards a dataset across cluster nodes: the curve over
the whole domain is cut into ``n`` contiguous, near-equal pieces
(:func:`split_curve`), mirroring the JHTDB's partitioning of each dataset
"spatially along contiguous ranges of the Morton z-curve" (paper, §5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.morton.codec import MAX_COORD_BITS, encode


@dataclass(frozen=True, order=True)
class MortonRange:
    """A half-open range ``[start, stop)`` of Morton codes."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid Morton range [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    def __contains__(self, code: int) -> bool:
        return self.start <= code < self.stop

    def overlaps(self, other: "MortonRange") -> bool:
        """Whether the two half-open ranges share at least one code."""
        return self.start < other.stop and other.start < self.stop

    def intersection(self, other: "MortonRange") -> "MortonRange | None":
        """The overlap of the two ranges, or ``None`` when disjoint."""
        start = max(self.start, other.start)
        stop = min(self.stop, other.stop)
        if start >= stop:
            return None
        return MortonRange(start, stop)


def merge_ranges(ranges: list[MortonRange]) -> list[MortonRange]:
    """Merge sorted, possibly-adjacent ranges into a minimal list."""
    merged: list[MortonRange] = []
    for rng in ranges:
        if merged and merged[-1].stop >= rng.start:
            merged[-1] = MortonRange(merged[-1].start, max(merged[-1].stop, rng.stop))
        else:
            merged.append(rng)
    return merged


def _cover(
    lo: tuple[int, int, int],
    hi: tuple[int, int, int],
    origin: tuple[int, int, int],
    side: int,
    out: list[MortonRange],
) -> None:
    """Recursively cover box ``[lo, hi)`` within the octant at ``origin``."""
    ox, oy, oz = origin
    # Octant completely misses the query box.
    if (
        ox >= hi[0]
        or oy >= hi[1]
        or oz >= hi[2]
        or ox + side <= lo[0]
        or oy + side <= lo[1]
        or oz + side <= lo[2]
    ):
        return
    base = encode(ox, oy, oz)
    # Octant completely inside the query box: one contiguous code range.
    if (
        lo[0] <= ox
        and lo[1] <= oy
        and lo[2] <= oz
        and ox + side <= hi[0]
        and oy + side <= hi[1]
        and oz + side <= hi[2]
    ):
        out.append(MortonRange(base, base + side**3))
        return
    half = side // 2
    if half == 0:  # single cell, partially covered is impossible here
        out.append(MortonRange(base, base + 1))
        return
    for child in _octants(ox, oy, oz, half):
        _cover(lo, hi, child, half, out)


def _octants(
    ox: int, oy: int, oz: int, half: int
) -> Iterator[tuple[int, int, int]]:
    """The eight child-octant origins, in Morton (z, y, x nesting) order."""
    for dz in (0, half):
        for dy in (0, half):
            for dx in (0, half):
                yield (ox + dx, oy + dy, oz + dz)


def box_to_ranges(
    lo: Sequence[int], hi: Sequence[int], domain_side: int
) -> list[MortonRange]:
    """Cover the half-open box ``[lo, hi)`` with contiguous Morton ranges.

    Args:
        lo: inclusive lower corner ``(x, y, z)`` in grid units.
        hi: exclusive upper corner ``(x, y, z)``.
        domain_side: side length of the (cubic, power-of-two) domain the
            Morton curve is defined over.

    Returns:
        A minimal, sorted list of :class:`MortonRange` whose union is
        exactly the set of Morton codes of grid points inside the box.

    Raises:
        ValueError: if the domain side is not a power of two, or the box
            does not fit inside the domain.
    """
    if domain_side <= 0 or domain_side & (domain_side - 1):
        raise ValueError(f"domain side {domain_side} is not a power of two")
    if domain_side > 1 << MAX_COORD_BITS:
        raise ValueError(f"domain side {domain_side} exceeds codec capacity")
    lo = tuple(int(v) for v in lo)
    hi = tuple(int(v) for v in hi)
    if any(l < 0 for l in lo) or any(h > domain_side for h in hi):
        raise ValueError(f"box [{lo}, {hi}) outside domain of side {domain_side}")
    if any(l >= h for l, h in zip(lo, hi)):
        return []
    out: list[MortonRange] = []
    _cover(lo, hi, (0, 0, 0), domain_side, out)
    out.sort()
    return merge_ranges(out)


def split_curve(domain_side: int, parts: int) -> list[MortonRange]:
    """Cut the Morton curve over a cubic domain into contiguous pieces.

    Used to shard a dataset across ``parts`` database nodes.  The pieces
    are aligned to whole octants where possible so each node's share is a
    union of compact spatial blocks, and their sizes differ by at most
    one curve step.

    Raises:
        ValueError: on a non-power-of-two domain or ``parts < 1``.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if domain_side <= 0 or domain_side & (domain_side - 1):
        raise ValueError(f"domain side {domain_side} is not a power of two")
    total = domain_side**3
    bounds = [round(i * total / parts) for i in range(parts + 1)]
    return [
        MortonRange(bounds[i], bounds[i + 1])
        for i in range(parts)
        if bounds[i + 1] > bounds[i]
    ]
