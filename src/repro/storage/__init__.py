"""Embedded relational storage engine.

The JHTDB stores each dataset as tables of binary atoms inside SQL Server
2008 R2, keyed by ``(timestep, zindex)`` with a clustered index, and keeps
its query-result cache in ordinary database tables accessed under
snapshot-isolation transactions (paper §2, §4).  This package supplies
that substrate from scratch:

* typed schemas with primary keys, secondary indexes and foreign keys
  (:mod:`~repro.storage.schema`),
* slotted-page heap files with a binary row codec
  (:mod:`~repro.storage.heap`),
* B+-trees for clustered and secondary indexes
  (:mod:`~repro.storage.btree`),
* an LRU buffer pool charging simulated device time
  (:mod:`~repro.storage.bufferpool`),
* multi-version concurrency control with snapshot isolation and
  first-updater-wins conflict detection (:mod:`~repro.storage.mvcc`), and
* tables and a database catalog (:mod:`~repro.storage.table`,
  :mod:`~repro.storage.database`).

There is no SQL text layer: the paper's ``SELECT`` / ``DELETE``
statements on ``cacheInfo`` / ``cacheData`` are written as the
:class:`~repro.storage.table.Table` calls they resolve to (index lookup,
charged scan, delete by key) — DESIGN.md §4 has the table.  Nor is
there a write-ahead log: the cache needs snapshot isolation, not redo,
and what a node stores is regenerated from its source or recomputed on
a miss.
"""

from repro.storage.errors import (
    DuplicateKeyError,
    ForeignKeyError,
    SchemaError,
    SerializationConflictError,
    StorageError,
    TableNotFoundError,
    TransactionError,
)
from repro.storage.types import ColumnType
from repro.storage.schema import Column, ForeignKey, TableSchema
from repro.storage.database import Database, StorageDevice
from repro.storage.mvcc import Transaction

__all__ = [
    "Column",
    "ColumnType",
    "Database",
    "DuplicateKeyError",
    "ForeignKey",
    "ForeignKeyError",
    "SchemaError",
    "SerializationConflictError",
    "StorageDevice",
    "StorageError",
    "TableNotFoundError",
    "TableSchema",
    "Transaction",
    "TransactionError",
]
