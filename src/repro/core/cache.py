"""The application-aware semantic cache for threshold-query results.

The cache is "comprised of two database tables" (paper §4): ``cacheInfo``
holds per-entry metadata (dataset, field, timestep, spatial region,
threshold, recency) and ``cacheData`` holds the matching points, foreign-
key constrained to its ``cacheInfo`` entry.  Both live on the node's SSD
device and are accessed under snapshot-isolation transactions.

A cached entry answers a later query when the query asks for the same
(dataset, field, timestep), a region contained in the cached region, and
a threshold at or above the cached one (*threshold dominance*) — the
matching points are then a subset of the cached points, so the query is
served by an index scan of ``cacheData`` with no raw I/O and no kernel
computation.  Queries below the cached threshold or outside the cached
region must be re-evaluated from the raw data, and the fresher, larger
result replaces the entry.

Replacement is least-recently-used across all cached quantities, bounded
by a byte budget (the paper's per-node SSD space).

Unlike the paper's literal per-point ``cacheData`` table, points are
persisted as packed Morton-sorted chunks (:mod:`repro.core.pointset`):
one row per ~4096 points with per-chunk Morton bounds and value maximum,
so ``store`` issues O(points/4096) inserts through
:meth:`~repro.storage.table.Table.insert_many` and ``lookup`` prunes
whole chunks against the query box and threshold before decoding any
point.  Hit/miss/eviction semantics and byte accounting
(``point_count * point_record_bytes``) are unchanged — see DESIGN.md.

A lookup may also ask for its points' JSON value text: built once per chunk,
held in memory (outside the cost model) until the entry's deleted
``cacheInfo`` version is reclaimed, when no open snapshot can see it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

import numpy as np

from repro.core import pointset
from repro.grid import Box
from repro.morton import decode_array
from repro.morton.ranges import box_to_ranges
from repro.storage import (
    Column,
    ColumnType,
    Database,
    DuplicateKeyError,
    ForeignKey,
    SerializationConflictError,
    TableSchema,
    Transaction,
)

#: Default cache capacity per node; the paper's nodes had ~200 GB of SSD,
#: scaled here for laptop-size datasets.
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024


def _covering_side(box: Box) -> int:
    """Smallest power-of-two domain side enclosing ``box``.

    Morton codes are domain-independent, so any power-of-two side at or
    beyond the box's upper corner yields the same exact range cover.
    """
    side = 1
    while side < max(box.hi):
        side *= 2
    return side


@dataclass
class CacheLookup:
    """Outcome of a cache probe.

    ``hit`` carries the points answering the query (and their value text
    when asked for; ``held_text`` of them were held already).  On a miss,
    ``stale_ordinal`` identifies an existing entry for the same
    (dataset, field, timestep, region) whose threshold was too high to
    answer from — the update path replaces it.
    """

    hit: bool
    zindexes: np.ndarray | None = None
    values: np.ndarray | None = None
    text: np.ndarray | None = None
    held_text: int = 0
    stale_ordinal: int | None = None
    stale_box: Box | None = None


class CacheStats:
    """Thread-safe workload counters for a cache instance.

    Updated on the query path (plain increments under a lock —
    concurrent clients probe one node's cache from several threads) and
    sampled by the observability layer at export time.
    """

    __slots__ = (
        "_lock", "hits", "misses", "dominance_rejections",
        "evictions", "stored_points", "stored_bytes", "chunks_pruned",
        "text_bytes", "text_built_points",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.dominance_rejections = 0
        self.evictions = 0
        self.stored_points = 0
        self.stored_bytes = 0
        self.chunks_pruned = 0
        self.text_bytes = 0
        self.text_built_points = 0

    def record_hit(self) -> None:
        """Count one probe answered from the cache."""
        with self._lock:
            self.hits += 1

    def record_miss(self, dominance_rejected: bool = False) -> None:
        """Count one probe that fell through to raw evaluation.

        ``dominance_rejected`` marks misses where an entry covered the
        region but its threshold was too high to answer from (threshold
        dominance failed, paper §4).
        """
        with self._lock:
            self.misses += 1
            if dominance_rejected:
                self.dominance_rejections += 1

    def record_store(self, points: int, nbytes: int) -> None:
        """Count one freshly-stored entry of ``points`` / ``nbytes``."""
        with self._lock:
            self.stored_points += points
            self.stored_bytes += nbytes

    def record_eviction(self) -> None:
        """Count one capacity eviction."""
        with self._lock:
            self.evictions += 1

    def record_pruned(self, chunks: int) -> None:
        """Count stored chunks a hit skipped without decoding."""
        with self._lock:
            self.chunks_pruned += chunks

    def record_text(self, built_points: int, held_bytes: int) -> None:
        """Count value text built for ``built_points``; ``held_bytes`` more held."""
        with self._lock:
            self.text_built_points += built_points
            self.text_bytes += held_bytes

    def snapshot(self) -> dict[str, int]:
        """A consistent copy of all counters."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "dominance_rejections": self.dominance_rejections,
                "evictions": self.evictions,
                "stored_points": self.stored_points,
                "stored_bytes": self.stored_bytes,
                "chunks_pruned": self.chunks_pruned,
                "text_bytes": self.text_bytes,
                "text_built_points": self.text_built_points,
            }


class SemanticCache:
    """Per-node query-result cache backed by SSD-resident tables.

    Args:
        db: the node's database (must already have an ``ssd`` device).
        capacity_bytes: byte budget over all cached points.
        point_record_bytes: stored bytes per cached point, for budget
            accounting (index + row overhead included, paper §4).
    """

    #: Supported replacement policies.  The paper uses LRU; FIFO is kept
    #: as an ablation baseline.
    POLICIES = ("lru", "fifo")

    def __init__(
        self,
        db: Database,
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
        point_record_bytes: int = 20,
        policy: str = "lru",
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}")
        self._db = db
        self.capacity_bytes = capacity_bytes
        self.point_record_bytes = point_record_bytes
        self.policy = policy
        self._ordinals = itertools.count(1)
        self._recency = itertools.count(1)
        self.stats = CacheStats()
        # ordinal -> chunkSeq -> value text (see _hold and _delete).
        self._text: dict[int, dict[int, np.ndarray]] = {}
        self._text_lock = threading.Lock()
        self._create_tables()

    def _create_tables(self) -> None:
        self._db.create_table(
            TableSchema(
                "cacheInfo",
                (
                    Column("ordinal", ColumnType.INTEGER),
                    Column("dataset", ColumnType.TEXT),
                    Column("field", ColumnType.TEXT),
                    Column("timestep", ColumnType.INTEGER),
                    Column("threshold", ColumnType.FLOAT),
                    Column("xl", ColumnType.INTEGER),
                    Column("yl", ColumnType.INTEGER),
                    Column("zl", ColumnType.INTEGER),
                    Column("xu", ColumnType.INTEGER),
                    Column("yu", ColumnType.INTEGER),
                    Column("zu", ColumnType.INTEGER),
                    Column("last_used", ColumnType.BIGINT),
                    Column("point_count", ColumnType.INTEGER),
                    Column("byte_size", ColumnType.BIGINT),
                ),
                primary_key=("ordinal",),
                indexes={"by_query": ("dataset", "field", "timestep")},
            ),
            device="ssd",
        )
        # One row per packed point chunk, not per point: the column
        # blobs hold up to pointset.CHUNK_POINTS Morton-sorted points
        # and the metadata columns support pruning without decoding.
        self._db.create_table(
            TableSchema(
                "cacheData",
                (
                    Column("cacheInfoOrdinal", ColumnType.INTEGER),
                    Column("chunkSeq", ColumnType.INTEGER),
                    Column("zLo", ColumnType.BIGINT),
                    Column("zHi", ColumnType.BIGINT),
                    Column("valueMax", ColumnType.FLOAT),
                    Column("pointCount", ColumnType.INTEGER),
                    Column("zBlob", ColumnType.BLOB),
                    Column("vBlob", ColumnType.BLOB),
                ),
                primary_key=("cacheInfoOrdinal", "chunkSeq"),
                indexes={"by_info": ("cacheInfoOrdinal",)},
                foreign_keys=(
                    ForeignKey(("cacheInfoOrdinal",), "cacheInfo", cascade=True),
                ),
            ),
            device="ssd",
        )

    # -- probe ---------------------------------------------------------------

    def lookup(
        self,
        txn: Transaction,
        dataset: str,
        field: str,
        timestep: int,
        box: Box,
        threshold: float,
        text: bool = False,
    ) -> CacheLookup:
        """Probe the cache for a query (Algorithm 1, lines 4-28).

        Returns a hit when some entry's region contains ``box`` and its
        stored threshold is at or below ``threshold``; the returned
        points (with their value text when ``text``) are filtered to
        ``box`` and ``threshold``.
        """
        entries = self._db.table("cacheInfo").lookup(
            txn, "by_query", (dataset, field, timestep)
        )
        stale_ordinal = None
        stale_box = None
        for entry in entries:
            cached_box = Box.from_corners(
                (entry["xl"], entry["yl"], entry["zl"],
                 entry["xu"], entry["yu"], entry["zu"])
            )
            if not cached_box.contains_box(box):
                continue
            if not (entry["threshold"] <= threshold):  # NaN never dominates
                stale_ordinal = entry["ordinal"]
                stale_box = cached_box
                continue
            points = self._read_points(
                txn, entry["ordinal"], box, cached_box, threshold, text
            )
            self._touch(txn, entry["ordinal"])
            self.stats.record_hit()
            return CacheLookup(True, *points)
        self.stats.record_miss(dominance_rejected=stale_ordinal is not None)
        return CacheLookup(
            hit=False, stale_ordinal=stale_ordinal, stale_box=stale_box
        )

    def _read_points(
        self,
        txn: Transaction,
        ordinal: int,
        box: Box,
        cached_box: Box,
        threshold: float,
        text: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, int]:
        """Decode an entry's points filtered to ``box`` and ``threshold``,
        with their value text and how much of it was held, when ``text``.

        Chunk metadata is consulted first: chunks whose ``valueMax``
        falls below the threshold, or whose Morton interval misses the
        query box's range cover, are skipped without touching their
        blobs (counted in ``stats.chunks_pruned``).  Surviving chunks
        are decoded and mask-filtered exactly as the seed filtered
        individual rows; chunks are stored in global Morton order, so
        the concatenated result is already sorted.
        """
        rows = list(
            self._db.table("cacheData").lookup(txn, "by_info", (ordinal,))
        )
        keep = np.array([r["valueMax"] >= threshold for r in rows], dtype=bool)
        if box != cached_box:
            keep &= pointset.chunks_overlapping_ranges(
                np.array([r["zLo"] for r in rows], dtype=np.uint64),
                np.array([r["zHi"] for r in rows], dtype=np.uint64),
                box_to_ranges(box.lo, box.hi, _covering_side(box)),
            )
        self.stats.record_pruned(len(rows) - int(keep.sum()))
        survivors = [row for row, live in zip(rows, keep.tolist()) if live]
        # Chunks are stored in global Morton order, so joining the
        # surviving blobs decodes straight into sorted columns — one
        # frombuffer per column and one mask pass over all points,
        # instead of decode/filter/collect per chunk.
        zindexes, values = pointset.chunk_arrays(
            b"".join(row["zBlob"] for row in survivors),
            b"".join(row["vBlob"] for row in survivors),
        )
        mask = values >= threshold
        if box != cached_box:
            x, y, z = decode_array(zindexes)
            for axis, coords in enumerate((x, y, z)):
                mask &= (coords >= box.lo[axis]) & (coords < box.hi[axis])
        columns, held = [zindexes, values], 0
        if text:
            value_text, held = self._value_text(ordinal, survivors, values, mask)
            columns.append(value_text)
        if not mask.all():
            columns = [column[mask] for column in columns]
        zindexes, values, *value_text = pointset.merge_sorted_runs([columns])
        return zindexes, values, value_text[0] if text else None, held

    def _value_text(
        self, ordinal: int, rows: list, values: np.ndarray, mask: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """The value text of the ``rows``' points (decoded as ``values``),
        each chunk's built once and then held, and how many points under
        ``mask`` had theirs held already."""
        chunks = self._text.get(ordinal, {})
        pieces, held, start = [pointset.value_text(values[:0])], 0, 0
        for row in rows:
            seq, stop = row["chunkSeq"], start + row["pointCount"]
            piece = chunks.get(seq)
            if piece is not None:
                held += int(np.count_nonzero(mask[start:stop]))
            else:
                piece = pointset.value_text(values[start:stop])
                self.stats.record_text(len(piece), self._hold(ordinal, seq, piece))
            pieces.append(piece)
            start = stop
        return np.concatenate(pieces), held

    def _hold(self, ordinal: int, seq: int, piece: np.ndarray) -> int:
        """Hold one chunk's text; returns the bytes newly held."""
        with self._text_lock:
            held = self._text.setdefault(ordinal, {}).setdefault(seq, piece)
            return piece.nbytes if held is piece else 0

    def _drop_text(self, ordinal: int) -> None:
        """Forget an entry's value text."""
        with self._text_lock:
            chunks = self._text.pop(ordinal, {})
        self.stats.record_text(0, -sum(piece.nbytes for piece in chunks.values()))

    def _delete(self, txn: Transaction, ordinal: int) -> bool:
        """Delete one entry.  Its value text goes when the deleted version
        is reclaimed: no snapshot can then see the entry and hold it again."""
        txn.on_reclaim(lambda: self._drop_text(ordinal))
        return self._db.table("cacheInfo").delete(txn, (ordinal,))

    def _touch(self, txn: Transaction, ordinal: int) -> None:
        """Bump an entry's recency; lost races are harmless.

        A concurrent refresh of the same entry makes this update a
        snapshot-isolation write conflict.  Recency is advisory — losing
        one bump cannot affect correctness — so the conflict is swallowed
        rather than failing the read that produced the hit.
        """
        try:
            self._db.table("cacheInfo").update(
                txn, (ordinal,), {"last_used": next(self._recency)}
            )
        except SerializationConflictError:
            pass

    # -- update --------------------------------------------------------------

    def store(
        self,
        txn: Transaction,
        dataset: str,
        field: str,
        timestep: int,
        box: Box,
        threshold: float,
        zindexes: np.ndarray,
        values: np.ndarray,
        replace_ordinal: int | None = None,
    ) -> int:
        """Insert a freshly-evaluated result (Algorithm 1, line 37).

        Evicts least-recently-used entries until the new entry fits, and
        replaces ``replace_ordinal`` (the stale entry found at lookup)
        when given.  Returns the new entry's ordinal.

        Raises:
            ValueError: if the result alone exceeds the cache capacity.
        """
        if len(zindexes) != len(values):
            raise ValueError("zindexes and values must align")
        try:
            chunks = pointset.pack_chunks(zindexes, values)
        except ValueError as exc:
            # The row-per-point schema rejected repeated zindexes via its
            # (ordinal, zindex) primary key; keep raising the same error.
            raise DuplicateKeyError(f"cacheData: {exc}") from exc
        new_bytes = len(zindexes) * self.point_record_bytes
        if new_bytes > self.capacity_bytes:
            raise ValueError(
                f"result of {new_bytes} bytes exceeds cache capacity "
                f"{self.capacity_bytes}"
            )
        if replace_ordinal is not None:
            self._delete(txn, replace_ordinal)
        self._evict_until_fits(txn, new_bytes)

        ordinal = next(self._ordinals)
        txn.on_abort(lambda: self._drop_text(ordinal))
        info = self._db.table("cacheInfo")
        info.insert(
            txn,
            {
                "ordinal": ordinal,
                "dataset": dataset,
                "field": field,
                "timestep": timestep,
                "threshold": float(threshold),
                "xl": box.lo[0], "yl": box.lo[1], "zl": box.lo[2],
                "xu": box.hi[0], "yu": box.hi[1], "zu": box.hi[2],
                "last_used": next(self._recency),
                "point_count": len(zindexes),
                "byte_size": new_bytes,
            },
        )
        self._db.table("cacheData").insert_many(
            txn,
            [
                {
                    "cacheInfoOrdinal": ordinal,
                    "chunkSeq": chunk.seq,
                    "zLo": chunk.z_lo,
                    "zHi": chunk.z_hi,
                    "valueMax": chunk.value_max,
                    "pointCount": chunk.count,
                    "zBlob": chunk.zblob,
                    "vBlob": chunk.vblob,
                }
                for chunk in chunks
            ],
        )
        self.stats.record_store(len(zindexes), new_bytes)
        return ordinal

    def _evict_until_fits(self, txn: Transaction, new_bytes: int) -> None:
        """Eviction "across all quantities" (paper §4): LRU, or FIFO
        (insertion order) under the ablation policy."""
        victim_order = "last_used" if self.policy == "lru" else "ordinal"
        info = self._db.table("cacheInfo")
        while self.used_bytes(txn) + new_bytes > self.capacity_bytes:
            victim = min(info.scan(txn), key=lambda r: r[victim_order])
            self._delete(txn, victim["ordinal"])
            self.stats.record_eviction()

    # -- introspection ----------------------------------------------------------

    def used_bytes(self, txn: Transaction) -> int:
        """Bytes currently accounted to cached entries."""
        return sum(r["byte_size"] for r in self._db.table("cacheInfo").scan(txn))

    def data_point_count(self, txn: Transaction) -> int:
        """Total points across all stored chunks (visible to ``txn``)."""
        return sum(r["pointCount"] for r in self._db.table("cacheData").scan(txn))

    def entry_points(
        self, txn: Transaction, ordinal: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode every point of one entry, unfiltered, in Morton order."""
        rows = list(
            self._db.table("cacheData").lookup(txn, "by_info", (ordinal,))
        )
        parts = [pointset.chunk_arrays(r["zBlob"], r["vBlob"]) for r in rows]
        return pointset.merge_sorted_runs(parts)

    def entry_count(self, txn: Transaction) -> int:
        """Number of cached entries visible to ``txn``."""
        return self._db.table("cacheInfo").count(txn)

    def drop_timestep(self, dataset: str, field: str, timestep: int) -> int:
        """Drop all entries for one (dataset, field, timestep).

        Used by the experiments to force cache misses ("cache entries for
        the particular time-step queried were dropped before each run",
        paper §5.2).  Returns the number of entries removed.
        """
        info = self._db.table("cacheInfo")
        with self._db.transaction() as txn:
            entries = info.lookup(txn, "by_query", (dataset, field, timestep))
            return sum(self._delete(txn, e["ordinal"]) for e in entries)

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        info = self._db.table("cacheInfo")
        with self._db.transaction() as txn:
            return sum(self._delete(txn, e["ordinal"]) for e in info.scan(txn))
