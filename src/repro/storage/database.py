"""The database: catalog, devices and transactions.

A :class:`Database` is what one cluster node hosts.  Tables are created
on a named :class:`StorageDevice` — data tables on the node's HDD arrays,
cache tables on its SSD (paper, Fig. 5) — and every page touched inside a
transaction charges that device's simulated time to the transaction's
cost ledger under the device's cost category.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.costmodel import Category, CostLedger
from repro.costmodel.devices import HddArraySpec, SsdSpec
from repro.costmodel.ledger import (
    METER_CACHE_BYTES,
    METER_IO_BYTES,
    METER_IO_SEEKS,
)
from repro.storage.bufferpool import BufferPool
from repro.storage.errors import SchemaError, TableNotFoundError, TransactionError
from repro.storage.mvcc import Transaction, TransactionManager
from repro.storage.schema import TableSchema
from repro.storage.table import Table


class StorageDevice:
    """A named device charging simulated seconds under a fixed category.

    Args:
        name: label for diagnostics.
        spec: an :class:`HddArraySpec` or :class:`SsdSpec`.
        category: ledger category charged for traffic (``IO`` for data
            tables, ``CACHE_LOOKUP`` for the SSD cache tables).
    """

    def __init__(
        self,
        name: str,
        spec: HddArraySpec | SsdSpec,
        category: Category,
    ) -> None:
        self.name = name
        self.spec = spec
        self.category = category
        self._local = threading.local()

    @property
    def _ledger(self) -> CostLedger | None:
        return getattr(self._local, "ledger", None)

    def bind_ledger(self, ledger: CostLedger | None) -> None:
        """Direct this thread's subsequent charges to ``ledger``.

        The binding is thread-local: a halo read served on behalf of a
        peer node (running in the peer query's thread) charges the peer
        query's ledger without disturbing a concurrent local query.
        """
        self._local.ledger = ledger

    def charge_read(self, nbytes: int, seeks: int = 1) -> None:
        """Charge a read of ``nbytes`` to this thread's bound ledger."""
        if self._ledger is None:
            return
        seconds = self.spec.read_time(nbytes, seeks=seeks)
        self._ledger.charge(self.category, seconds)
        self._meter(nbytes, seeks)

    def charge_write(self, nbytes: int, seeks: int = 1) -> None:
        """Charge a write of ``nbytes`` to this thread's bound ledger."""
        if self._ledger is None:
            return
        if isinstance(self.spec, SsdSpec):
            seconds = self.spec.write_time(nbytes, seeks=seeks)
        else:
            seconds = self.spec.read_time(nbytes, seeks=seeks)
        self._ledger.charge(self.category, seconds)
        self._meter(nbytes, seeks)

    def _meter(self, nbytes: int, seeks: int) -> None:
        if self.category is Category.IO:
            self._ledger.count(METER_IO_BYTES, nbytes)
            self._ledger.count(METER_IO_SEEKS, seeks)
        else:
            self._ledger.count(METER_CACHE_BYTES, nbytes)


class Database:
    """A catalog of tables sharing a transaction manager.

    Args:
        name: database name (diagnostics only).
        buffer_pages: buffer-pool frames *per table*.
    """

    def __init__(self, name: str = "db", buffer_pages: int = 4096) -> None:
        self.name = name
        self._buffer_pages = buffer_pages
        self._tables: dict[str, Table] = {}
        self._devices: dict[str, StorageDevice] = {}
        # One re-entrant latch serialises structural access across every
        # table AND transaction commit/abort publishing.  Per-table locks
        # would deadlock: FK checks walk child -> parent while cascaded
        # deletes walk parent -> child, so the cacheInfo/cacheData pair
        # alone creates both lock orders.
        self._latch = threading.RLock()
        self._manager = TransactionManager(latch=self._latch)
        self._next_file_id = 0
        self._closed = False

    # -- devices ---------------------------------------------------------------

    def add_device(self, device: StorageDevice) -> StorageDevice:
        """Register a device; returns it for chaining."""
        if device.name in self._devices:
            raise SchemaError(f"device {device.name!r} already registered")
        self._devices[device.name] = device
        return device

    def device(self, name: str) -> StorageDevice:
        """Look up a registered device by name."""
        try:
            return self._devices[name]
        except KeyError:
            raise TableNotFoundError(f"no device {name!r}") from None

    @property
    def devices(self) -> Iterable[StorageDevice]:
        return self._devices.values()

    # -- catalog -----------------------------------------------------------------

    def create_table(self, schema: TableSchema, device: str) -> Table:
        """Create a table on the named device.

        Raises:
            SchemaError: duplicate table, unknown FK parent, or unknown
                device.
        """
        if schema.name in self._tables:
            raise SchemaError(f"table {schema.name!r} already exists")
        table = Table(
            schema,
            self.device(device),
            self._next_file_id,
            BufferPool(self._buffer_pages),
            latch=self._latch,
        )
        self._next_file_id += 1
        for fk in schema.foreign_keys:
            parent = self._tables.get(fk.parent_table)
            if parent is None:
                raise SchemaError(
                    f"table {schema.name}: unknown FK parent {fk.parent_table!r}"
                )
            table._register_parent(fk, parent)
            parent._register_child(table, fk)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name.  Raises :class:`TableNotFoundError`."""
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(f"no table {name!r}") from None

    def drop_table(self, name: str) -> None:
        """Remove a table; refuses while foreign keys reference it."""
        table = self.table(name)
        if table._children:
            raise SchemaError(f"table {name!r} is referenced by foreign keys")
        del self._tables[name]

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- transactions ---------------------------------------------------------------

    def begin(
        self, ledger: CostLedger | None = None, *, bind: bool = True
    ) -> Transaction:
        """Start a snapshot-isolation transaction.

        While the transaction runs, pages this *thread* touches on any of
        this database's devices charge into ``ledger`` (bindings are
        thread-local, so concurrent queries account independently).
        ``bind=False`` leaves the thread's binding alone: an uncharged
        read nested inside a query running on this same thread and
        database must not redirect that query's later charges.

        Raises:
            TransactionError: on a database already :meth:`close`-d.
        """
        if self._closed:
            raise TransactionError(f"database {self.name!r} is closed")
        if bind:
            for device in self._devices.values():
                device.bind_ledger(ledger)
        return self._manager.begin(ledger)

    def transaction(self, ledger: CostLedger | None = None) -> Transaction:
        """Alias of :meth:`begin`, reads nicely in ``with`` statements."""
        return self.begin(ledger)

    def drop_page_cache(self) -> None:
        """Empty every table's buffer pool (cold-cache experiment reset)."""
        for table in self._tables.values():
            table._pool.clear()

    def close(self) -> None:
        """Release the buffer pools and refuse further transactions.

        Releases every table's buffer-pool frames and marks the database
        closed — a later :meth:`begin` raises :class:`TransactionError`.
        Idempotent; catalog and row data stay readable for post-mortem
        inspection through already-open transactions.
        """
        if self._closed:
            return
        self._closed = True
        for table in self._tables.values():
            table._pool.clear()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    # -- observability ------------------------------------------------------------

    def storage_stats(self) -> dict[str, float]:
        """Aggregate engine counters for the observability layer.

        Sampled at metrics-export time (the hot paths keep plain integer
        counters; see :meth:`repro.obs.metrics.MetricsRegistry.gauge_callback`).
        """
        pool_hits = pool_misses = splits = bulk_rows = 0
        for table in self._tables.values():
            pool_hits += table._pool.hits
            pool_misses += table._pool.misses
            splits += table._clustered.splits
            splits += sum(tree.splits for tree in table._indexes.values())
            bulk_rows += table.bulk_insert_rows
        accesses = pool_hits + pool_misses
        return {
            "bufferpool_hits": float(pool_hits),
            "bufferpool_misses": float(pool_misses),
            "bufferpool_hit_rate": pool_hits / accesses if accesses else 0.0,
            "btree_splits": float(splits),
            "bulk_insert_rows": float(bulk_rows),
            "txn_begun": float(self._manager.begun),
            "txn_committed": float(self._manager.committed),
            "txn_aborted": float(self._manager.aborted),
            "txn_conflicts": float(self._manager.conflicts),
            "versions_reclaimed": float(self._manager.reclaimed),
            "reclaim_pending": float(self._manager.reclaim_pending),
        }
