"""Exception hierarchy of the storage engine."""

from __future__ import annotations


class StorageError(Exception):
    """Base class for every storage-engine error."""


class SchemaError(StorageError):
    """A schema definition or a row violating its schema."""


class TableNotFoundError(StorageError):
    """Reference to a table missing from the catalog."""


class DuplicateKeyError(StorageError):
    """Insert with a primary key that already exists (and is visible)."""


class ForeignKeyError(StorageError):
    """A write that would break referential integrity."""


class TransactionError(StorageError):
    """Illegal use of a transaction (e.g. operating after commit)."""


class SerializationConflictError(TransactionError):
    """Snapshot-isolation write-write conflict (first-updater-wins).

    Matches SQL Server's "update conflict" under SNAPSHOT isolation: the
    row being written was modified by a transaction that committed after
    this transaction's snapshot, or is locked by a concurrent writer.
    """
