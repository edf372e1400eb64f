"""Caching PDF (histogram) query results.

The paper's cache "currently stores only the results of threshold
queries.  Nevertheless, it can easily be extended to cache the results
of other query types as well if that becomes advantageous" (§4).  PDF
queries are exactly such a type: they scan a full timestep, their result
is a handful of numbers, and scientists re-examine the same distribution
while choosing thresholds.

Each node caches the histogram of a share it evaluated, keyed by
(dataset, field, timestep, FD order, bin edges, share); a probe must
match the edges exactly.  The share — the boxes the histogram covers —
is part of the key because on a replicated cluster one node answers
for several shards' shares of the same query.  Entries live in one SSD
table next to the threshold cache.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.cache import CacheStats
from repro.core.pointset import pack_f64, pack_i64, unpack_i64
from repro.storage import (
    Column,
    ColumnType,
    Database,
    SerializationConflictError,
    TableSchema,
    Transaction,
)

#: Maximum cached histograms per node (they are tiny; this bounds scans).
DEFAULT_MAX_ENTRIES = 1024


class PdfCache:
    """Per-node cache of PDF-query results."""

    def __init__(self, db: Database, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._db = db
        self.max_entries = max_entries
        self._ordinals = itertools.count(1)
        self._recency = itertools.count(1)
        self.stats = CacheStats()
        db.create_table(
            TableSchema(
                "pdfCache",
                (
                    Column("ordinal", ColumnType.INTEGER),
                    Column("dataset", ColumnType.TEXT),
                    Column("field", ColumnType.TEXT),
                    Column("timestep", ColumnType.INTEGER),
                    Column("fd_order", ColumnType.INTEGER),
                    Column("edges", ColumnType.BLOB),
                    Column("share", ColumnType.BLOB),
                    Column("counts", ColumnType.BLOB),
                    Column("last_used", ColumnType.BIGINT),
                ),
                primary_key=("ordinal",),
                indexes={"by_query": ("dataset", "field", "timestep")},
            ),
            device="ssd",
        )

    @staticmethod
    def _edges_blob(edges: tuple[float, ...]) -> bytes:
        return pack_f64(np.asarray(edges, dtype=np.float64))

    def lookup(
        self,
        txn: Transaction,
        dataset: str,
        field: str,
        timestep: int,
        fd_order: int,
        edges: tuple[float, ...],
        share: bytes = b"",
    ) -> np.ndarray | None:
        """The cached per-bin counts of ``share``, or ``None`` on a miss."""
        wanted = self._edges_blob(edges)
        rows = self._db.table("pdfCache").lookup(
            txn, "by_query", (dataset, field, timestep)
        )
        for row in rows:
            if (
                row["fd_order"] == fd_order
                and row["edges"] == wanted
                and row["share"] == share
            ):
                # Recency is advisory: a concurrent bump of the same entry
                # must not turn this hit into a failed query.
                try:
                    self._db.table("pdfCache").update(
                        txn, (row["ordinal"],), {"last_used": next(self._recency)}
                    )
                except SerializationConflictError:
                    pass
                self.stats.record_hit()
                return unpack_i64(row["counts"]).copy()
        self.stats.record_miss()
        return None

    def store(
        self,
        txn: Transaction,
        dataset: str,
        field: str,
        timestep: int,
        fd_order: int,
        edges: tuple[float, ...],
        counts: np.ndarray,
        share: bytes = b"",
    ) -> int:
        """Insert ``share``'s histogram, evicting the LRU entry when full."""
        table = self._db.table("pdfCache")
        while table.count(txn) >= self.max_entries:
            victim = min(table.scan(txn), key=lambda r: r["last_used"])
            table.delete(txn, (victim["ordinal"],))
            self.stats.record_eviction()
        ordinal = next(self._ordinals)
        table.insert(
            txn,
            {
                "ordinal": ordinal,
                "dataset": dataset,
                "field": field,
                "timestep": timestep,
                "fd_order": fd_order,
                "edges": self._edges_blob(edges),
                "share": share,
                "counts": pack_i64(np.asarray(counts, dtype=np.int64)),
                "last_used": next(self._recency),
            },
        )
        counts = np.asarray(counts, dtype=np.int64)
        self.stats.record_store(int(counts.size), counts.nbytes)
        return ordinal

    def entry_count(self, txn: Transaction) -> int:
        """Number of cached histograms visible to ``txn``."""
        return self._db.table("pdfCache").count(txn)

    def clear(self) -> int:
        """Drop every cached histogram; returns how many were removed."""
        table = self._db.table("pdfCache")
        with self._db.transaction() as txn:
            return sum(table.delete(txn, (r["ordinal"],)) for r in table.scan(txn))
