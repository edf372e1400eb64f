"""LRU buffer pool charging simulated device time for page traffic.

Every page access goes through the pool.  A miss charges the owning
table's device for one page read (and counts bytes/seeks on the active
ledger's meters); a hit is free, which is how "SQL Server benefits from a
larger buffer pool" (paper §5.3) shows up in the model.  Dirty pages are
charged on write-back at eviction or flush.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable

from repro.storage.heap import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.database import StorageDevice


class BufferPool:
    """A shared LRU pool of ``capacity_pages`` page frames.

    Frames are keyed by ``(file_id, page_no)``.  The pool never stores
    page *contents* — record bytes live in the heap — it tracks residency
    so device charges hit only on real misses, mirroring a DBMS buffer
    cache.
    """

    def __init__(self, capacity_pages: int = 4096) -> None:
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        self._capacity = capacity_pages
        self._frames: OrderedDict[tuple[int, int], bool] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._frames)

    def access(
        self,
        device: "StorageDevice",
        file_id: int,
        page_no: int,
        dirty: bool = False,
        sequential: bool = False,
    ) -> None:
        """Touch one page: :meth:`access_run` of a one-page extent."""
        self.access_run(device, file_id, (page_no,), dirty, sequential)

    def access_run(
        self,
        device: "StorageDevice",
        file_id: int,
        pages: Iterable[int],
        dirty: bool = False,
        sequential: bool = False,
    ) -> None:
        """Touch ``pages`` in order as one extent, under one lock
        acquisition, charging a device read for each that is not resident.

        Args:
            device: the device (and ledger hook) owning the pages' file.
            file_id: identifies the heap file within its database.
            pages: page numbers within the file, in the order read.
            dirty: mark the frames dirty (write-back charged on eviction
                or :meth:`flush`).
            sequential: suppress the first page's seek charge (the extent
                continues an already-seeked one); the pages after the
                first never pay one.
        """
        frames = self._frames
        with self._lock:
            for page_no in pages:
                key = (file_id, page_no)
                if key in frames:
                    self.hits += 1
                    frames.move_to_end(key)
                    if dirty:
                        frames[key] = True
                else:
                    self.misses += 1
                    device.charge_read(PAGE_SIZE, seeks=0 if sequential else 1)
                    frames[key] = dirty
                    self._evict_if_needed(device)
                sequential = True

    def _evict_if_needed(self, device: "StorageDevice") -> None:
        while len(self._frames) > self._capacity:
            _, dirty = self._frames.popitem(last=False)
            if dirty:
                device.charge_write(PAGE_SIZE, seeks=1)

    def flush(self, device: "StorageDevice") -> None:
        """Write back every dirty frame (transaction commit)."""
        with self._lock:
            for key, dirty in self._frames.items():
                if dirty:
                    device.charge_write(PAGE_SIZE, seeks=0)
                    self._frames[key] = False

    def clear(self) -> None:
        """Drop all frames without charging (cold-cache experiment reset)."""
        with self._lock:
            self._frames.clear()
