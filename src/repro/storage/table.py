"""Tables: clustered primary-key storage with MVCC, indexes and FKs.

A :class:`Table` keeps a B+-tree of version chains keyed by the primary
key (the clustered index), row payloads in a slotted-page heap whose
pages are charged through the owning device's buffer pool, optional
secondary B+-tree indexes, and foreign-key enforcement against parent
tables.  All access happens inside a :class:`~repro.storage.mvcc.Transaction`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.storage.btree import BPlusTree
from repro.storage.bufferpool import BufferPool
from repro.storage.errors import (
    DuplicateKeyError,
    ForeignKeyError,
    SchemaError,
    StorageError,
)
from repro.storage.heap import HeapFile, encode_row
from repro.storage.mvcc import Transaction, Version, VersionChain
from repro.storage.schema import ForeignKey, TableSchema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.database import StorageDevice


class Table:
    """One table: schema + clustered version chains + heap + indexes."""

    def __init__(
        self,
        schema: TableSchema,
        device: "StorageDevice",
        file_id: int,
        buffer_pool: BufferPool,
        latch: "threading.RLock | None" = None,
    ) -> None:
        self.schema = schema
        self._device = device
        self._file_id = file_id
        self._pool = buffer_pool
        # Shared with every sibling table and the transaction manager of
        # the owning Database: the B+-trees and version chains are not
        # thread-safe, and concurrent clients query one database at once.
        self._latch = latch if latch is not None else threading.RLock()
        self._heap = HeapFile()
        self._clustered = BPlusTree()
        self._indexes: dict[str, BPlusTree] = {
            name: BPlusTree() for name in schema.indexes
        }
        # Wired by the Database: (child_table, fk) pairs referencing us.
        self._children: list[tuple["Table", ForeignKey]] = []
        self._parents: dict[str, "Table"] = {}
        #: Lifetime count of rows written through :meth:`insert_many`,
        #: sampled by Database.storage_stats for the observability layer.
        self.bulk_insert_rows = 0

    # -- catalog wiring ------------------------------------------------------

    def _register_child(self, child: "Table", fk: ForeignKey) -> None:
        self._children.append((child, fk))

    def _register_parent(self, fk: ForeignKey, parent: "Table") -> None:
        self._parents[fk.parent_table] = parent
        if len(fk.columns) != len(parent.schema.primary_key):
            raise SchemaError(
                f"{self.schema.name}: foreign key arity does not match "
                f"{parent.schema.name} primary key"
            )

    # -- reads ----------------------------------------------------------------

    def get(self, txn: Transaction, key: tuple) -> dict[str, object] | None:
        """The visible row at ``key``, or ``None``.  Charges one page read."""
        txn.require_active()
        with self._latch:
            chain = self._clustered.get(key)
            if chain is None:
                return None
            version = chain.visible(txn)
            if version is None:
                return None
            self.touch_pages([version.rowid.page])
            return dict(version.row)

    def _visible(
        self,
        txn: Transaction,
        bounds: Iterable[tuple[tuple | None, tuple | None]],
        include_hi: bool = False,
    ) -> list[Version]:
        """The versions ``txn`` sees in the key ranges ``bounds``, range
        by range in key order — all walked under one latch acquisition,
        so a concurrent commit cannot rebalance the B+-tree mid-scan."""
        txn.require_active()
        with self._latch:
            return [
                version
                for lo, hi in bounds
                for _, chain in self._clustered.scan(lo, hi, include_hi)
                if (version := chain.visible(txn)) is not None
            ]

    def scan(
        self,
        txn: Transaction,
        lo: tuple | None = None,
        hi: tuple | None = None,
        include_hi: bool = False,
        sequential: bool = False,
        charge: bool = True,
    ) -> Iterator[dict[str, object]]:
        """Clustered-index range scan over visible rows in key order.

        The first page of the scan pays a seek (unless ``sequential``
        marks the scan as a forward continuation of a previous one);
        subsequent pages are charged as sequential reads.  ``charge``
        False reads without touching the buffer pool at all.  The rows
        are materialised before the first is handed out, so the charges
        do not depend on how far the caller iterates.
        """
        versions = self._visible(txn, [(lo, hi)], include_hi)
        if charge:
            self.touch_pages([v.rowid.page for v in versions], sequential)
        return iter([dict(version.row) for version in versions])

    def count(self, txn: Transaction) -> int:
        """Number of rows visible to ``txn`` (full scan, uncharged)."""
        return len(self._visible(txn, [(None, None)]))

    def lookup(
        self, txn: Transaction, index: str, key: tuple
    ) -> Iterator[dict[str, object]]:
        """Visible rows whose ``index`` columns equal ``key``, in
        primary-key order.

        Every primary key the index holds under ``key`` is read by
        :meth:`get` (one page, one seek); an entry left behind by an
        update that moved the row to another key is read and dropped.
        """
        txn.require_active()
        with self._latch:
            pks: set[tuple] = self._index(index).get(key) or set()
            columns = self.schema.indexes[index]
            rows = []
            for pk in sorted(pks):
                row = self.get(txn, pk)
                if row is not None and tuple(row[c] for c in columns) == key:
                    rows.append(row)
        return iter(rows)

    def scan_columns(
        self,
        txn: Transaction,
        columns: list[str],
        bounds: Iterable[tuple[tuple | None, tuple | None]],
    ) -> tuple[list[list[object]], list[int]]:
        """One clustered scan over several ``[lo, hi)`` key ranges.

        Returns one value list per requested column over the visible
        rows, in the order scanned, and the heap page of each row.  The
        scan itself charges nothing: :meth:`touch_pages` replays those
        pages through the buffer pool, at once or — the executor's
        model — slab by slab.
        """
        for name in columns:
            if name not in self.schema.column_names:
                raise SchemaError(f"{self.schema.name} has no column {name!r}")
        versions = self._visible(txn, bounds)
        return (
            [[version.row[name] for version in versions] for name in columns],
            [version.rowid.page for version in versions],
        )

    def touch_pages(self, pages: Iterable[int], sequential: bool = False) -> None:
        """Charge the read of heap ``pages``, in order, as one extent: the
        first pays a seek unless ``sequential``, the rest never do."""
        self._pool.access_run(
            self._device, self._file_id, pages, sequential=sequential
        )

    def scan_column_batches(
        self,
        txn: Transaction,
        columns: list[str],
        lo: tuple | None = None,
        hi: tuple | None = None,
        sequential: bool = False,
        charge: bool = True,
        batch_rows: int = 4096,
    ) -> Iterator[tuple[list[object], ...]]:
        """Columnar scan of one key range: batches of per-column lists.

        The one-range case of :meth:`scan_columns`, with :meth:`scan`'s
        ordering and buffer-pool charging, yielding tuples of column
        lists (one list per requested column, up to ``batch_rows`` rows
        each) instead of a dict per row.
        """
        cols, pages = self.scan_columns(txn, columns, [(lo, hi)])
        if charge:
            self.touch_pages(pages, sequential)
        return iter([
            tuple(col[start : start + batch_rows] for col in cols)
            for start in range(0, len(pages), batch_rows)
        ])

    # -- writes ----------------------------------------------------------------

    def insert(self, txn: Transaction, row: dict[str, object]) -> None:
        """Insert a row.

        Raises:
            DuplicateKeyError: a visible row already holds this key.
            ForeignKeyError: a referenced parent row is missing.
            SerializationConflictError: concurrent write to this key.
        """
        txn.require_active()
        row = self.schema.validate_row(row)
        key = self.schema.key_of(row)
        with self._latch:
            self._check_parents(txn, row)
            chain = self._clustered.get(key)
            if chain is None:
                chain = VersionChain()
                self._clustered.insert(key, chain)
            else:
                chain.check_write_allowed(txn)
                if chain.visible(txn) is not None:
                    raise DuplicateKeyError(
                        f"{self.schema.name}: duplicate primary key {key}"
                    )
            self._create(txn, key, chain, row)
            txn.on_commit(lambda: self._pool.flush(self._device))

    def insert_many(self, txn: Transaction, rows: list[dict[str, object]]) -> int:
        """Insert a batch of rows under one latch acquisition.

        Validation (schema, in-batch and visible duplicates, foreign
        keys, write conflicts) runs as a first pass before any write, so
        a failure raises with the table untouched; the write pass then
        bulk-loads the missing version chains into the clustered B+-tree
        in key order (one descent per leaf run) and emits a single
        ``INSERT_MANY`` WAL record for the whole batch.  Returns the
        number of rows inserted.

        Raises:
            DuplicateKeyError: a key repeats in the batch or a visible
                row already holds it.
            ForeignKeyError: a referenced parent row is missing.
            SerializationConflictError: concurrent write to a key.
        """
        txn.require_active()
        if not rows:
            return 0
        validated = [self.schema.validate_row(row) for row in rows]
        keys = [self.schema.key_of(row) for row in validated]
        with self._latch:
            # Pass 1: validate everything before writing anything.
            chains: list[VersionChain | None] = []
            seen: set[tuple] = set()
            for row, key in zip(validated, keys):
                if key in seen:
                    raise DuplicateKeyError(
                        f"{self.schema.name}: duplicate primary key {key} in batch"
                    )
                seen.add(key)
                self._check_parents(txn, row)
                chain = self._clustered.get(key)
                if chain is not None:
                    chain.check_write_allowed(txn)
                    if chain.visible(txn) is not None:
                        raise DuplicateKeyError(
                            f"{self.schema.name}: duplicate primary key {key}"
                        )
                chains.append(chain)
            # Pass 2: bulk-load the missing chains in key order, then
            # append payloads, versions and index entries per row.
            new_pairs: list[tuple[tuple, VersionChain]] = []
            for i in sorted(
                (i for i in range(len(keys)) if chains[i] is None),
                key=keys.__getitem__,
            ):
                chain = VersionChain()
                chains[i] = chain
                new_pairs.append((keys[i], chain))
            if new_pairs:
                self._clustered.insert_sorted_run(new_pairs)
            for row, key, chain in zip(validated, keys, chains):
                assert chain is not None
                self._create(txn, key, chain, row)
            txn.on_commit(lambda: self._pool.flush(self._device))
            self.bulk_insert_rows += len(validated)
        return len(validated)

    def delete(self, txn: Transaction, key: tuple) -> bool:
        """Delete the visible row at ``key``; returns whether one existed.

        Referencing child rows restrict the delete unless their foreign
        key is declared ``cascade``, in which case they are deleted too.
        """
        txn.require_active()
        with self._latch:
            chain = self._clustered.get(key)
            if chain is None:
                return False
            version = chain.visible(txn)
            if version is None:
                return False
            chain.check_write_allowed(txn)
            self._resolve_children(txn, key)
            self._end(txn, key, chain, version)
            self._pool.access(self._device, self._file_id, version.rowid.page, dirty=True)
            txn.on_commit(lambda: self._pool.flush(self._device))
            return True

    def update(
        self, txn: Transaction, key: tuple, changes: dict[str, object]
    ) -> bool:
        """Update columns of the row at ``key``; returns whether it existed.

        Implemented as a new version superseding the old (the primary key
        may not change).
        """
        txn.require_active()
        if any(col in self.schema.primary_key for col in changes):
            raise SchemaError(f"{self.schema.name}: cannot update primary key")
        with self._latch:
            chain = self._clustered.get(key)
            if chain is None:
                return False
            version = chain.visible(txn)
            if version is None:
                return False
            chain.check_write_allowed(txn)
            new_row = self.schema.validate_row({**version.row, **changes})
            self._check_parents(txn, new_row)
            self._end(txn, key, chain, version)
            self._create(txn, key, chain, new_row)
            txn.on_commit(lambda: self._pool.flush(self._device))
            return True

    @property
    def heap_pages(self) -> int:
        return self._heap.page_count

    # -- internals ---------------------------------------------------------------

    def _index(self, name: str) -> BPlusTree:
        try:
            return self._indexes[name]
        except KeyError:
            raise StorageError(f"{self.schema.name} has no index {name!r}") from None

    def _create(
        self, txn: Transaction, key: tuple, chain: VersionChain, row: dict[str, object]
    ) -> None:
        """Write ``row`` as ``txn``'s new version of ``key``: its heap
        record, its chain and every secondary index hold it, and an abort
        reclaims it."""
        rowid = self._heap.append(encode_row(self.schema, row))
        self._pool.access(self._device, self._file_id, rowid.page, dirty=True)
        version = Version(row, rowid, creator=txn)
        chain.push(version)
        txn.record_create(version)
        txn.on_abort(lambda: self._reclaim(key, chain, version))
        for name, columns in self.schema.indexes.items():
            index_key = tuple(row[c] for c in columns)
            pks = self._indexes[name].get(index_key)
            if pks is None:
                self._indexes[name].insert(index_key, {key})
            else:
                pks.add(key)

    def _index_remove(self, name: str, index_key: tuple, pk: tuple) -> None:
        tree = self._indexes[name]
        pks = tree.get(index_key)
        if pks is not None:
            pks.discard(pk)
            if not pks:
                tree.delete(index_key)

    def _end(self, txn: Transaction, key: tuple, chain: VersionChain, version: Version) -> None:
        """Mark ``version`` deleted by ``txn``, to be reclaimed once its
        end is older than every open snapshot."""
        version.deleter = txn
        txn.record_delete(version)
        txn.on_reclaim(lambda: self._reclaim(key, chain, version))

    def _reclaim(self, key: tuple, chain: VersionChain, version: Version) -> None:
        """Drop a version no snapshot can see (dead, or aborted) from its
        chain and the heap, and its key from each index entry no other
        version of it holds; an emptied chain leaves the clustered tree."""
        chain.remove(version)
        self._heap.delete(version.rowid)
        row = version.row
        for name, columns in self.schema.indexes.items():
            if all(any(v.row[c] != row[c] for c in columns) for v in chain.versions):
                self._index_remove(name, tuple(row[c] for c in columns), key)
        if not chain.versions:
            self._clustered.delete(key)

    def _check_parents(self, txn: Transaction, row: dict[str, object]) -> None:
        for fk in self.schema.foreign_keys:
            values = tuple(row[c] for c in fk.columns)
            if any(v is None for v in values):
                continue  # null FK: no constraint
            parent = self._parents[fk.parent_table]
            chain = parent._clustered.get(values)
            if chain is None or chain.visible(txn) is None:
                raise ForeignKeyError(
                    f"{self.schema.name}: no {fk.parent_table} row {values}"
                )

    def _resolve_children(self, txn: Transaction, key: tuple) -> None:
        for child, fk in self._children:
            index_name = next(
                (
                    name
                    for name, cols in child.schema.indexes.items()
                    if cols == fk.columns
                ),
                None,
            )
            if index_name is not None:
                referencing = child.lookup(txn, index_name, key)
            else:
                referencing = (
                    row
                    for row in child.scan(txn)
                    if tuple(row[c] for c in fk.columns) == key
                )
            victims = [child.schema.key_of(row) for row in referencing]
            if victims and not fk.cascade:
                raise ForeignKeyError(
                    f"{child.schema.name} rows still reference "
                    f"{self.schema.name} key {key}"
                )
            for victim in victims:
                child.delete(txn, victim)
