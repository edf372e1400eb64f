"""Packed Morton-sorted point chunks — the columnar point-set format.

The paper's cache stores one SQL Server row per matching point; the
array-database literature it draws on (Dobos et al.'s SQL Server array
extension, SAVIME) instead packs scientific point/array data into binary
chunks inside the relational engine, exactly as the JHTDB's own raw
atoms are 8^3 blobs.  This module is that format for *query results*:
a point set ``(zindexes, values)`` is sorted by Morton code and cut into
chunks of up to :data:`CHUNK_POINTS` points, each packed as two
little-endian column blobs (``uint64`` zindexes, ``float64`` values)
plus the metadata (``z_lo``, ``z_hi``, ``value_max``, ``count``) that
lets readers prune whole chunks by Morton interval and threshold before
decoding a single point.

Chunk rows are what :class:`~repro.core.cache.SemanticCache` persists in
``cacheData`` and what the mediator/executor merge paths operate on.

A point set's JSON is rendered in two steps: :func:`value_text` spells
each value once (the cache keeps a hit's spellings beside its entry),
and :func:`points_json` assembles the fragment from them with numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.morton.codec import decode_array
from repro.morton.ranges import MortonRange

#: Points per packed chunk.  8^3 atoms hold 512 cells, a 16^3 subcube
#: 4096 — one chunk row per ~16^3 worth of matching points keeps row
#: count (and WAL/B+-tree work) three orders of magnitude below
#: row-per-point while each blob stays well under the 8 KiB heap page.
CHUNK_POINTS = 4096


@dataclass(frozen=True)
class PointChunk:
    """One packed chunk of a Morton-sorted point set.

    ``z_lo``/``z_hi`` are the inclusive Morton bounds of the chunk's
    points and ``value_max`` its largest field value — together they let
    a reader skip the chunk entirely when its interval misses the query
    box or ``value_max`` falls below the query threshold.
    """

    seq: int
    z_lo: int
    z_hi: int
    value_max: float
    count: int
    zblob: bytes
    vblob: bytes


# -- column codecs ----------------------------------------------------------


def pack_u64(array: np.ndarray) -> bytes:
    """Pack an array as little-endian ``uint64`` bytes."""
    return np.ascontiguousarray(array, dtype="<u8").tobytes()


def pack_i64(array: np.ndarray) -> bytes:
    """Pack an array as little-endian ``int64`` bytes."""
    return np.ascontiguousarray(array, dtype="<i8").tobytes()


def pack_f64(array: np.ndarray) -> bytes:
    """Pack an array as little-endian ``float64`` bytes."""
    return np.ascontiguousarray(array, dtype="<f8").tobytes()


def unpack_u64(blob: bytes) -> np.ndarray:
    """Decode a :func:`pack_u64` blob (zero-copy, native ``uint64``)."""
    return np.frombuffer(blob, dtype="<u8").astype(np.uint64, copy=False)


def unpack_i64(blob: bytes) -> np.ndarray:
    """Decode a :func:`pack_i64` blob (zero-copy, native ``int64``)."""
    return np.frombuffer(blob, dtype="<i8").astype(np.int64, copy=False)


def unpack_f64(blob: bytes) -> np.ndarray:
    """Decode a :func:`pack_f64` blob (zero-copy, native ``float64``)."""
    return np.frombuffer(blob, dtype="<f8").astype(np.float64, copy=False)


# -- chunking ---------------------------------------------------------------


def pack_chunks(
    zindexes: np.ndarray,
    values: np.ndarray,
    chunk_points: int = CHUNK_POINTS,
) -> list[PointChunk]:
    """Sort a point set by Morton code and pack it into chunks.

    Raises:
        ValueError: misaligned arrays, a non-positive ``chunk_points``,
            or a repeated zindex (a point set maps each cell to one
            value; the row-per-point schema enforced this via its
            primary key, so the packed format must as well).
    """
    if chunk_points <= 0:
        raise ValueError("chunk_points must be positive")
    z = np.asarray(zindexes, dtype=np.uint64).ravel()
    v = np.asarray(values, dtype=np.float64).ravel()
    if z.size != v.size:
        raise ValueError("zindexes and values must align")
    order = np.argsort(z, kind="stable")
    z = z[order]
    v = v[order]
    if z.size > 1 and bool(np.any(z[1:] == z[:-1])):
        raise ValueError("duplicate zindex in point set")
    chunks: list[PointChunk] = []
    for seq, start in enumerate(range(0, int(z.size), chunk_points)):
        zs = z[start : start + chunk_points]
        vs = v[start : start + chunk_points]
        chunks.append(
            PointChunk(
                seq=seq,
                z_lo=int(zs[0]),
                z_hi=int(zs[-1]),
                value_max=float(vs.max()),
                count=int(zs.size),
                zblob=pack_u64(zs),
                vblob=pack_f64(vs),
            )
        )
    return chunks


def chunk_arrays(zblob: bytes, vblob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Decode one chunk's column blobs back into ``(zindexes, values)``."""
    return unpack_u64(zblob), unpack_f64(vblob)


def chunks_overlapping_ranges(
    z_lo: np.ndarray,
    z_hi: np.ndarray,
    ranges: Sequence[MortonRange],
) -> np.ndarray:
    """Boolean mask of chunks whose Morton interval meets any range.

    ``z_lo``/``z_hi`` are the chunks' inclusive Morton bounds; ``ranges``
    is a sorted, disjoint cover (e.g. from
    :func:`~repro.morton.ranges.box_to_ranges`).  A chunk ``[lo, hi]``
    overlaps the union iff the first range ending past ``lo`` starts at
    or before ``hi`` — one :func:`np.searchsorted` over the range stops
    decides every chunk at once.
    """
    lo = np.asarray(z_lo, dtype=np.uint64)
    hi = np.asarray(z_hi, dtype=np.uint64)
    if not len(ranges):
        return np.zeros(lo.shape, dtype=bool)
    starts = np.array([r.start for r in ranges], dtype=np.uint64)
    stops = np.array([r.stop for r in ranges], dtype=np.uint64)
    idx = np.searchsorted(stops, lo, side="right")
    hit = idx < len(ranges)
    hit[hit] = starts[idx[hit]] <= hi[hit]
    return hit


# -- merging ----------------------------------------------------------------


def merge_sorted_runs(
    runs: Sequence[tuple[np.ndarray, ...]],
) -> tuple[np.ndarray, ...]:
    """Merge ``(zindexes, values, *extra)`` runs into one zindex-sorted
    tuple of the same columns.

    The gather paths (executor slabs, mediator nodes, per-box cache
    results) each produce runs already sorted by Morton code; when the
    run boundaries are non-decreasing — always true for disjoint curve
    spans concatenated in curve order — the merge is a plain
    concatenation.  Interleaved runs fall back to one stable argsort,
    matching the seed's ordering exactly; an extra column (a run's
    :func:`value_text`) is permuted by the same order.
    """
    typed = [
        (np.asarray(z, dtype=np.uint64), np.asarray(v, dtype=np.float64), *extra)
        for z, v, *extra in runs
    ]
    live = [run for run in typed if len(run[0])] or typed[:1]
    if not live:
        return np.empty(0, np.uint64), np.empty(0, np.float64)
    columns = live[0] if len(live) == 1 else tuple(map(np.concatenate, zip(*live)))
    z = columns[0]
    # A single run may still be internally unsorted (a raw scan emits
    # points in coordinate order, not curve order), so the check runs
    # unconditionally.
    if bool(np.all(z[1:] >= z[:-1])):
        return columns
    order = np.argsort(z, kind="stable")
    return tuple(column[order] for column in columns)


# -- the JSON answer --------------------------------------------------------

#: Points per block of :func:`points_json`'s byte matrix.
_BLOCK = 4096


def point_dicts(zindexes: np.ndarray, values: np.ndarray) -> list[dict]:
    """A point set as the web service's ``points`` list: one dict each."""
    x, y, z = (axis.tolist() for axis in decode_array(zindexes))
    return [
        {"x": x, "y": y, "z": z, "value": v}
        for x, y, z, v in zip(x, y, z, values.tolist())
    ]


def value_text(values: np.ndarray) -> np.ndarray:
    """Each value as ``json.dumps`` spells it (``repr`` when finite,
    ``NaN`` / ``Infinity`` / ``-Infinity`` otherwise), in an ``S`` array
    as wide as the longest: the one place a value meets ``repr``."""
    if not len(values):
        return np.empty(0, "S1")
    return np.array(json.dumps(values.tolist())[1:-1].encode().split(b", "), "S")


def points_json(zindexes: np.ndarray, text: np.ndarray) -> bytes:
    """``json.dumps(point_dicts(...))`` without its brackets, as UTF-8,
    from the points' :func:`value_text`, with no per-point Python work.

    Each block of points is a byte matrix, one row per point: the
    constant pieces, each coordinate's decimal digits (leading zeros as
    NUL) and its value text (NUL-padded), then one boolean compress
    drops every NUL.  Fragments of point sets on disjoint, ascending
    curve spans joined with ``b", "`` are the fragment of their union.
    """
    if text.dtype.kind != "S":
        raise TypeError("points_json takes value_text(values), not values")
    if not len(text):
        return b""
    width = text.dtype.itemsize
    blocks = []
    for start in range(0, len(text), _BLOCK):
        rest = np.stack(decode_array(zindexes[start:start + _BLOCK]), axis=1).astype(np.uint32)
        digits = len(str(rest.max()))
        row = b'{"x": %s, "y": %s, "z": %s, "value": %s}, ' % (*[b"\0" * digits] * 3, b"\0" * width)
        *at, value_at = [row.index(b'"%s": ' % key) + len(key) + 4 for key in (b"x", b"y", b"z", b"value")]
        matrix = np.empty((len(rest), len(row)), np.uint8)
        matrix[:] = np.frombuffer(row, np.uint8)
        for digit in reversed(range(digits)):
            tens = rest // 10
            chars = (rest - tens * 10 + ord("0")).astype(np.uint8)
            if digit < digits - 1:
                chars[rest == 0] = 0  # a leading zero
            matrix[:, [column + digit for column in at]] = chars
            rest = tens
        block = np.ascontiguousarray(text[start:start + _BLOCK])
        matrix[:, value_at:value_at + width] = block.view(np.uint8).reshape(len(matrix), width)
        flat = matrix.ravel()
        blocks.append(flat[flat != 0].tobytes())
    blocks[-1] = blocks[-1][:-2]  # the last point's ", "
    return b"".join(blocks)
