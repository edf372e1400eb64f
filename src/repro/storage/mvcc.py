"""Multi-version concurrency control with snapshot isolation.

The paper runs every cache read and update "within a transaction with
snapshot isolation level to avoid dirty-reads or an inconsistent view of
the cache" (§4).  This module supplies that machinery: version chains per
primary key, transactions that read as of a fixed snapshot, and
first-updater-wins write-conflict detection matching SQL Server's
``SNAPSHOT`` isolation semantics.
"""

from __future__ import annotations

import collections
import enum
import itertools
import threading
from typing import Callable

from repro.costmodel import CostLedger
from repro.storage.errors import SerializationConflictError, TransactionError
from repro.storage.heap import RowId


class TxStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Version:
    """One version of a row.

    ``begin_ts``/``end_ts`` are commit timestamps once the creating /
    deleting transaction commits; while that transaction is in flight the
    corresponding ``creator``/``deleter`` field points at it instead.
    """

    __slots__ = ("row", "rowid", "begin_ts", "end_ts", "creator", "deleter")

    def __init__(
        self, row: dict[str, object], rowid: RowId, creator: "Transaction"
    ) -> None:
        self.row = row
        self.rowid = rowid
        self.begin_ts: int | None = None
        self.end_ts: int | None = None
        self.creator: Transaction | None = creator
        self.deleter: Transaction | None = None

    def visible_to(self, txn: "Transaction") -> bool:
        """Snapshot-isolation visibility check."""
        # Own uncommitted insert is visible unless we also deleted it.
        if self.creator is txn:
            return self.deleter is not txn
        # Foreign uncommitted insert is never visible.
        if self.creator is not None:
            return False
        if self.begin_ts is None or self.begin_ts > txn.snapshot_ts:
            return False
        # Deleted by us -> gone from our view; deleted by an in-flight
        # foreign transaction -> still visible to us.
        if self.deleter is txn:
            return False
        if self.end_ts is not None and self.end_ts <= txn.snapshot_ts:
            return False
        return True

    @property
    def committed_live(self) -> bool:
        """Committed, not deleted by any committed transaction."""
        return self.creator is None and self.end_ts is None and self.deleter is None


class VersionChain:
    """All versions of one primary key, newest first."""

    __slots__ = ("versions",)

    def __init__(self) -> None:
        self.versions: list[Version] = []

    def newest(self) -> Version | None:
        """The most recent version, committed or not."""
        return self.versions[0] if self.versions else None

    def visible(self, txn: "Transaction") -> Version | None:
        """The version ``txn`` sees, or ``None``."""
        for version in self.versions:
            if version.visible_to(txn):
                return version
        return None

    def push(self, version: Version) -> None:
        """Prepend a new (newest) version."""
        self.versions.insert(0, version)

    def remove(self, version: Version) -> None:
        """Unlink an aborted or reclaimed version."""
        self.versions.remove(version)

    def check_write_allowed(self, txn: "Transaction") -> None:
        """First-updater-wins conflict detection.

        Raises:
            SerializationConflictError: when the newest version was
                written (created or deleted) by a concurrent transaction —
                either still in flight or committed after our snapshot.
        """
        newest = self.newest()
        if newest is None:
            return
        for writer, stamp in (
            (newest.creator, newest.begin_ts),
            (newest.deleter, newest.end_ts),
        ):
            if writer is not None and writer is not txn:
                txn._manager.record_conflict()
                raise SerializationConflictError(
                    "row is being modified by a concurrent transaction"
                )
            if writer is None and stamp is not None and stamp > txn.snapshot_ts:
                txn._manager.record_conflict()
                raise SerializationConflictError(
                    "row was modified after this transaction's snapshot"
                )


class Transaction:
    """A snapshot-isolation transaction.

    Obtained from :meth:`repro.storage.database.Database.begin` (or the
    ``transaction()`` context manager).  Reads see the database as of
    ``snapshot_ts``; writes are private until commit.  The optional
    ``ledger`` collects simulated device time for every page this
    transaction touches.
    """

    def __init__(
        self, txn_id: int, snapshot_ts: int, manager: "TransactionManager",
        ledger: CostLedger | None = None,
    ) -> None:
        self.txn_id = txn_id
        self.snapshot_ts = snapshot_ts
        self.ledger = ledger
        self._manager = manager
        self._latch = manager.latch
        self._status = TxStatus.ACTIVE
        self._created: list[Version] = []
        self._deleted: list[Version] = []
        self._undo_hooks: list[Callable[[], None]] = []
        self._commit_hooks: list[Callable[[], None]] = []
        self._reclaim_hooks: list[Callable[[], None]] = []

    @property
    def status(self) -> TxStatus:
        return self._status

    @property
    def is_active(self) -> bool:
        return self._status is TxStatus.ACTIVE

    def require_active(self) -> None:
        """Raise :class:`TransactionError` unless the transaction is live."""
        if not self.is_active:
            raise TransactionError(f"transaction {self.txn_id} is {self._status.value}")

    # -- write tracking (called by Table) -----------------------------------

    def record_create(self, version: Version) -> None:
        """Track a version this transaction created (for commit)."""
        self._created.append(version)

    def record_delete(self, version: Version) -> None:
        """Track a version this transaction deleted (for commit/abort)."""
        self._deleted.append(version)

    def on_abort(self, hook: Callable[[], None]) -> None:
        """Register an undo action (e.g. unlinking a created version)."""
        self._undo_hooks.append(hook)

    def on_commit(self, hook: Callable[[], None]) -> None:
        """Register a commit action (e.g. buffer-pool flush charge)."""
        self._commit_hooks.append(hook)

    def on_reclaim(self, hook: Callable[[], None]) -> None:
        """Register an action for when no snapshot can see what this
        transaction's commit ended (e.g. unlinking a dead version)."""
        self._reclaim_hooks.append(hook)

    # -- lifecycle -----------------------------------------------------------

    def commit(self) -> None:
        """Make all writes visible at a fresh commit timestamp."""
        self.require_active()
        # Publishing happens under the shared database latch so readers
        # never observe a half-committed write set.
        with self._latch:
            commit_ts = self._manager.advance()
            for version in self._created:
                version.begin_ts = commit_ts
                version.creator = None
            for version in self._deleted:
                version.end_ts = commit_ts
                version.deleter = None
            self._status = TxStatus.COMMITTED
            for hook in self._commit_hooks:
                hook()
            self._manager.close(self, commit_ts)

    def abort(self) -> None:
        """Discard all writes."""
        self.require_active()
        with self._latch:
            for version in self._deleted:
                version.deleter = None
            for hook in reversed(self._undo_hooks):
                hook()
            self._status = TxStatus.ABORTED
            self._manager.close(self)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.is_active:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class TransactionManager:
    """Issues transaction ids, snapshots and commit timestamps, and
    reclaims what a commit ended once no open snapshot can see it.

    The *horizon* is the oldest open snapshot, or the clock when none is
    open: a version whose ``end_ts`` is at or below it is dead to every
    current and future snapshot.  A commit's reclaim hooks run at that
    commit when the horizon already covers it, or else wait here until
    the commit or abort that moves the horizon past it.

    Args:
        latch: the owning database's re-entrant latch, shared with its
            tables; commit/abort publish version timestamps and reclaim
            under it.  A private latch is created for standalone
            (single-database unit-test) use.
    """

    def __init__(self, latch: "threading.RLock | None" = None) -> None:
        self._ids = itertools.count(1)
        self._clock = 0
        self._lock = threading.Lock()
        self.latch = latch if latch is not None else threading.RLock()
        # txn id -> snapshot of every transaction not yet ended.
        self._open: dict[int, int] = {}
        # (commit ts, versions ended, reclaim hooks) in commit order.
        self._dead: collections.deque = collections.deque()
        # Lifetime workload counters, sampled by the observability layer
        # at export time (see Database.storage_stats).
        self.begun = 0
        self.committed = 0
        self.aborted = 0
        self.conflicts = 0
        self.reclaimed = 0
        self.reclaim_pending = 0

    @property
    def now(self) -> int:
        return self._clock

    def record_conflict(self) -> None:
        """Count one first-updater-wins serialization conflict."""
        with self._lock:
            self.conflicts += 1

    def advance(self) -> int:
        """Issue the next commit timestamp."""
        with self._lock:
            self._clock += 1
            return self._clock

    def begin(self, ledger: CostLedger | None = None) -> Transaction:
        """Start a transaction with a snapshot of the current clock."""
        with self._lock:
            txn_id = next(self._ids)
            snapshot = self._open[txn_id] = self._clock
            self.begun += 1
        return Transaction(txn_id, snapshot, self, ledger)

    def close(self, txn: Transaction, commit_ts: int | None = None) -> None:
        """End ``txn``'s snapshot (an abort unless ``commit_ts``), queue
        the reclaim hooks of what its commit ended, and run every queued
        hook the horizon has now passed.  Called under the latch, so
        commits queue in timestamp order."""
        with self._lock:
            del self._open[txn.txn_id]
            if commit_ts is None:
                self.aborted += 1
            else:
                self.committed += 1
                if txn._reclaim_hooks:
                    self._dead.append((commit_ts, len(txn._deleted), txn._reclaim_hooks))
                    self.reclaim_pending += len(txn._deleted)
            if not self._dead:
                return
            horizon = min(self._open.values()) if self._open else self._clock
            ready = []
            while self._dead and self._dead[0][0] <= horizon:
                _, versions, hooks = self._dead.popleft()
                self.reclaim_pending -= versions
                self.reclaimed += versions
                ready += hooks
        for hook in ready:
            hook()
