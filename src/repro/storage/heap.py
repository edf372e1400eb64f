"""Slotted-page heap files and the binary row codec.

Rows are encoded to bytes (null bitmap + per-column encoding) and placed
into fixed-size pages; a :class:`RowId` names a row by page number and
slot.  The heap does not know about versions or keys — those live in
:mod:`repro.storage.mvcc` and :mod:`repro.storage.table` — it only stores
records and reports the page geometry the buffer pool charges I/O for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.errors import StorageError
from repro.storage.schema import TableSchema

#: Bytes per page, matching SQL Server's 8 KiB pages.
PAGE_SIZE = 8192

#: Per-record slot overhead (slot-directory entry + record header).
_SLOT_OVERHEAD = 8


def encode_row(schema: TableSchema, row: dict[str, object]) -> bytes:
    """Encode a validated row to its stored binary form.

    Layout: 2-byte little-endian null bitmap over the schema's columns
    (bit i set when column i is null) followed by each non-null column's
    type encoding in schema order.
    """
    if len(schema.columns) > 16:
        raise StorageError(f"table {schema.name}: more than 16 columns unsupported")
    bitmap = 0
    body = bytearray()
    for i, col in enumerate(schema.columns):
        value = row.get(col.name)
        if value is None:
            bitmap |= 1 << i
        else:
            body += col.type.encode(value)
    return bitmap.to_bytes(2, "little") + bytes(body)


def decode_row(schema: TableSchema, data: bytes) -> dict[str, object]:
    """Decode a stored record back into a row dict."""
    bitmap = int.from_bytes(data[:2], "little")
    view = memoryview(data)
    offset = 2
    row: dict[str, object] = {}
    for i, col in enumerate(schema.columns):
        if bitmap & (1 << i):
            row[col.name] = None
        else:
            row[col.name], offset = col.type.decode(view, offset)
    return row


@dataclass(frozen=True, order=True)
class RowId:
    """Physical address of a record: (page number, slot index)."""

    page: int
    slot: int


class _Page:
    """One slotted page: a list of records plus a free-byte counter."""

    __slots__ = ("records", "free_bytes")

    def __init__(self) -> None:
        self.records: list[bytes | None] = []
        self.free_bytes: int = PAGE_SIZE

    def fits(self, nbytes: int) -> bool:
        return self.free_bytes >= nbytes + _SLOT_OVERHEAD


class HeapFile:
    """An append-mostly heap of records in slotted pages.

    Records larger than a page get a page of their own (the engine's
    equivalent of overflow allocation), so 6 KiB atom blobs sit one per
    page just as they do in the production tables.
    """

    def __init__(self) -> None:
        self._pages: list[_Page] = [_Page()]
        self._live = 0

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def record_count(self) -> int:
        """Number of live (non-deleted) records."""
        return self._live

    def append(self, record: bytes) -> RowId:
        """Store a record, allocating a fresh page when needed."""
        page = self._pages[-1]
        if not page.fits(len(record)) and page.records:
            page = _Page()
            self._pages.append(page)
        page.records.append(record)
        page.free_bytes -= len(record) + _SLOT_OVERHEAD
        self._live += 1
        return RowId(len(self._pages) - 1, len(page.records) - 1)

    def get(self, rowid: RowId) -> bytes:
        """Fetch a record's bytes.

        Raises:
            StorageError: if the row id is invalid or the record deleted.
        """
        record = self._lookup(rowid)
        if record is None:
            raise StorageError(f"record {rowid} was deleted")
        return record

    def delete(self, rowid: RowId) -> None:
        """Drop a record.  Its bytes stay counted against the page, so
        deletes never move where later records are placed."""
        if self._lookup(rowid) is None:
            raise StorageError(f"record {rowid} already deleted")
        self._pages[rowid.page].records[rowid.slot] = None
        self._live -= 1

    def _lookup(self, rowid: RowId) -> bytes | None:
        if not (0 <= rowid.page < len(self._pages)):
            raise StorageError(f"invalid page in {rowid}")
        page = self._pages[rowid.page]
        if not (0 <= rowid.slot < len(page.records)):
            raise StorageError(f"invalid slot in {rowid}")
        return page.records[rowid.slot]
