"""Tests for MVCC snapshot isolation, tables, indexes and foreign keys."""

import pytest

from repro.costmodel import Category, CostLedger
from repro.costmodel.devices import HddArraySpec, SsdSpec
from repro.storage import (
    Column,
    ColumnType,
    Database,
    DuplicateKeyError,
    ForeignKey,
    ForeignKeyError,
    SchemaError,
    SerializationConflictError,
    StorageDevice,
    TableNotFoundError,
    TableSchema,
    TransactionError,
)


@pytest.fixture
def db():
    database = Database("test")
    database.add_device(StorageDevice("hdd", HddArraySpec(), Category.IO))
    database.add_device(StorageDevice("ssd", SsdSpec(), Category.CACHE_LOOKUP))
    database.create_table(
        TableSchema(
            "info",
            (
                Column("ordinal", ColumnType.INTEGER),
                Column("field", ColumnType.TEXT),
                Column("threshold", ColumnType.FLOAT, nullable=True),
            ),
            primary_key=("ordinal",),
            indexes={"by_field": ("field",)},
        ),
        device="ssd",
    )
    database.create_table(
        TableSchema(
            "data",
            (
                Column("info_ordinal", ColumnType.INTEGER),
                Column("zindex", ColumnType.BIGINT),
                Column("value", ColumnType.FLOAT),
            ),
            primary_key=("info_ordinal", "zindex"),
            indexes={"by_info": ("info_ordinal",)},
            foreign_keys=(ForeignKey(("info_ordinal",), "info", cascade=True),),
        ),
        device="ssd",
    )
    return database


class TestCrud:
    def test_insert_and_get(self, db):
        with db.transaction() as txn:
            db.table("info").insert(txn, {"ordinal": 1, "field": "vorticity"})
        with db.transaction() as txn:
            row = db.table("info").get(txn, (1,))
        assert row["field"] == "vorticity"

    def test_duplicate_key_rejected(self, db):
        with db.transaction() as txn:
            db.table("info").insert(txn, {"ordinal": 1, "field": "a"})
            with pytest.raises(DuplicateKeyError):
                db.table("info").insert(txn, {"ordinal": 1, "field": "b"})
            txn.abort()

    def test_delete(self, db):
        with db.transaction() as txn:
            db.table("info").insert(txn, {"ordinal": 1, "field": "a"})
        with db.transaction() as txn:
            assert db.table("info").delete(txn, (1,)) is True
        with db.transaction() as txn:
            assert db.table("info").get(txn, (1,)) is None
            assert db.table("info").delete(txn, (1,)) is False

    def test_update(self, db):
        with db.transaction() as txn:
            db.table("info").insert(txn, {"ordinal": 1, "field": "a", "threshold": 10.0})
        with db.transaction() as txn:
            assert db.table("info").update(txn, (1,), {"threshold": 5.0})
        with db.transaction() as txn:
            assert db.table("info").get(txn, (1,))["threshold"] == 5.0

    def test_update_missing_row(self, db):
        with db.transaction() as txn:
            assert db.table("info").update(txn, (9,), {"threshold": 1.0}) is False

    def test_update_pk_rejected(self, db):
        with db.transaction() as txn:
            db.table("info").insert(txn, {"ordinal": 1, "field": "a"})
            with pytest.raises(SchemaError):
                db.table("info").update(txn, (1,), {"ordinal": 2})
            txn.abort()

    def test_scan_in_key_order(self, db):
        with db.transaction() as txn:
            for ordinal in (3, 1, 2):
                db.table("info").insert(txn, {"ordinal": ordinal, "field": "f"})
        with db.transaction() as txn:
            rows = list(db.table("info").scan(txn))
        assert [r["ordinal"] for r in rows] == [1, 2, 3]

    def test_range_scan_compound_key(self, db):
        with db.transaction() as txn:
            db.table("info").insert(txn, {"ordinal": 1, "field": "f"})
            for z in range(10):
                db.table("data").insert(
                    txn, {"info_ordinal": 1, "zindex": z, "value": float(z)}
                )
        with db.transaction() as txn:
            rows = list(db.table("data").scan(txn, (1, 3), (1, 7)))
        assert [r["zindex"] for r in rows] == [3, 4, 5, 6]

    def test_count(self, db):
        with db.transaction() as txn:
            assert db.table("info").count(txn) == 0
            db.table("info").insert(txn, {"ordinal": 1, "field": "f"})
            assert db.table("info").count(txn) == 1

    def test_secondary_index_lookup(self, db):
        with db.transaction() as txn:
            db.table("info").insert(txn, {"ordinal": 1, "field": "vorticity"})
            db.table("info").insert(txn, {"ordinal": 2, "field": "q"})
            db.table("info").insert(txn, {"ordinal": 3, "field": "vorticity"})
        with db.transaction() as txn:
            rows = list(db.table("info").lookup(txn, "by_field", ("vorticity",)))
        assert [r["ordinal"] for r in rows] == [1, 3]

    def test_aborted_update_leaves_the_row_indexed(self, db):
        # The update re-entered the row's unchanged index key and hooked
        # its removal on abort: `get` found the row, `lookup` did not.
        info = db.table("info")
        with db.transaction() as txn:
            info.insert(txn, {"ordinal": 1, "field": "vorticity"})
        txn = db.begin()
        info.update(txn, (1,), {"threshold": 2.0})
        txn.abort()
        with db.transaction() as txn:
            assert info.get(txn, (1,)) is not None
            rows = list(info.lookup(txn, "by_field", ("vorticity",)))
        assert [r["ordinal"] for r in rows] == [1]

    def test_aborted_round_trip_of_an_indexed_column(self, db):
        info = db.table("info")
        with db.transaction() as txn:
            info.insert(txn, {"ordinal": 1, "field": "q"})
        txn = db.begin()
        info.update(txn, (1,), {"field": "r"})
        info.update(txn, (1,), {"field": "q"})
        txn.abort()
        with db.transaction() as txn:
            assert len(list(info.lookup(txn, "by_field", ("q",)))) == 1
            assert list(info.lookup(txn, "by_field", ("r",))) == []

    def test_aborted_reinsert_keeps_an_old_snapshots_row_indexed(self, db):
        info = db.table("info")
        with db.transaction() as txn:
            info.insert(txn, {"ordinal": 1, "field": "q"})
        old = db.begin()
        with db.transaction() as txn:
            info.delete(txn, (1,))
        txn = db.begin()
        info.insert(txn, {"ordinal": 1, "field": "q"})
        txn.abort()
        assert len(list(info.lookup(old, "by_field", ("q",)))) == 1
        old.commit()

    def test_lookup_drops_a_row_that_moved_to_another_key(self, db):
        info = db.table("info")
        with db.transaction() as txn:
            info.insert(txn, {"ordinal": 1, "field": "q"})
        with db.transaction() as txn:
            info.update(txn, (1,), {"field": "r"})
        with db.transaction() as txn:
            assert list(info.lookup(txn, "by_field", ("q",))) == []
            assert len(list(info.lookup(txn, "by_field", ("r",)))) == 1

    def test_begin_on_a_closed_database_is_a_transaction_error(self, db):
        db.close()
        with pytest.raises(TransactionError):
            db.begin()

    def test_unknown_index(self, db):
        from repro.storage.errors import StorageError

        with db.transaction() as txn:
            with pytest.raises(StorageError):
                list(db.table("info").lookup(txn, "nope", (1,)))
            txn.abort()


class TestSnapshotIsolation:
    def test_reader_sees_stable_snapshot(self, db):
        with db.transaction() as setup:
            db.table("info").insert(setup, {"ordinal": 1, "field": "a"})
        reader = db.begin()
        writer = db.begin()
        db.table("info").update(writer, (1,), {"field": "b"})
        writer.commit()
        # Reader's snapshot predates the writer's commit.
        assert db.table("info").get(reader, (1,))["field"] == "a"
        reader.commit()
        with db.transaction() as txn:
            assert db.table("info").get(txn, (1,))["field"] == "b"

    def test_uncommitted_writes_invisible(self, db):
        writer = db.begin()
        db.table("info").insert(writer, {"ordinal": 1, "field": "a"})
        with db.transaction() as reader:
            assert db.table("info").get(reader, (1,)) is None
        writer.commit()

    def test_own_writes_visible(self, db):
        with db.transaction() as txn:
            db.table("info").insert(txn, {"ordinal": 1, "field": "a"})
            assert db.table("info").get(txn, (1,))["field"] == "a"

    def test_write_write_conflict(self, db):
        with db.transaction() as setup:
            db.table("info").insert(setup, {"ordinal": 1, "field": "a"})
        t1 = db.begin()
        t2 = db.begin()
        db.table("info").update(t1, (1,), {"field": "t1"})
        with pytest.raises(SerializationConflictError):
            db.table("info").update(t2, (1,), {"field": "t2"})
        t1.commit()
        t2.abort()

    def test_first_updater_wins_after_commit(self, db):
        with db.transaction() as setup:
            db.table("info").insert(setup, {"ordinal": 1, "field": "a"})
        stale = db.begin()  # snapshot taken now
        with db.transaction() as fresh:
            db.table("info").update(fresh, (1,), {"field": "new"})
        with pytest.raises(SerializationConflictError):
            db.table("info").update(stale, (1,), {"field": "stale"})
        stale.abort()

    def test_abort_rolls_back_insert(self, db):
        txn = db.begin()
        db.table("info").insert(txn, {"ordinal": 1, "field": "a"})
        txn.abort()
        with db.transaction() as reader:
            assert db.table("info").get(reader, (1,)) is None
            assert db.table("info").count(reader) == 0

    def test_abort_rolls_back_delete(self, db):
        with db.transaction() as setup:
            db.table("info").insert(setup, {"ordinal": 1, "field": "a"})
        txn = db.begin()
        db.table("info").delete(txn, (1,))
        txn.abort()
        with db.transaction() as reader:
            assert db.table("info").get(reader, (1,)) is not None

    def test_abort_rolls_back_index_entries(self, db):
        txn = db.begin()
        db.table("info").insert(txn, {"ordinal": 1, "field": "x"})
        txn.abort()
        with db.transaction() as reader:
            assert list(db.table("info").lookup(reader, "by_field", ("x",))) == []

    def test_context_manager_aborts_on_exception(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                db.table("info").insert(txn, {"ordinal": 1, "field": "a"})
                raise RuntimeError("boom")
        with db.transaction() as reader:
            assert db.table("info").get(reader, (1,)) is None

    def test_operations_after_commit_rejected(self, db):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            db.table("info").insert(txn, {"ordinal": 1, "field": "a"})
        with pytest.raises(TransactionError):
            txn.commit()

    def test_delete_insert_same_txn(self, db):
        with db.transaction() as setup:
            db.table("info").insert(setup, {"ordinal": 1, "field": "old"})
        with db.transaction() as txn:
            db.table("info").delete(txn, (1,))
            db.table("info").insert(txn, {"ordinal": 1, "field": "new"})
        with db.transaction() as reader:
            assert db.table("info").get(reader, (1,))["field"] == "new"


class TestForeignKeys:
    def test_insert_requires_parent(self, db):
        with db.transaction() as txn:
            with pytest.raises(ForeignKeyError):
                db.table("data").insert(
                    txn, {"info_ordinal": 9, "zindex": 0, "value": 1.0}
                )
            txn.abort()

    def test_cascade_delete(self, db):
        with db.transaction() as txn:
            db.table("info").insert(txn, {"ordinal": 1, "field": "a"})
            for z in range(3):
                db.table("data").insert(
                    txn, {"info_ordinal": 1, "zindex": z, "value": 0.0}
                )
        with db.transaction() as txn:
            db.table("info").delete(txn, (1,))
        with db.transaction() as reader:
            assert db.table("data").count(reader) == 0

    def test_restrict_without_cascade(self):
        database = Database()
        database.add_device(StorageDevice("d", SsdSpec(), Category.CACHE_LOOKUP))
        database.create_table(
            TableSchema("p", (Column("id", ColumnType.INTEGER),), ("id",)),
            device="d",
        )
        database.create_table(
            TableSchema(
                "c",
                (Column("id", ColumnType.INTEGER), Column("pid", ColumnType.INTEGER)),
                ("id",),
                foreign_keys=(ForeignKey(("pid",), "p"),),
            ),
            device="d",
        )
        with database.transaction() as txn:
            database.table("p").insert(txn, {"id": 1})
            database.table("c").insert(txn, {"id": 10, "pid": 1})
        with database.transaction() as txn:
            with pytest.raises(ForeignKeyError):
                database.table("p").delete(txn, (1,))
            txn.abort()

    def test_fk_to_unknown_parent_rejected(self):
        database = Database()
        database.add_device(StorageDevice("d", SsdSpec(), Category.CACHE_LOOKUP))
        with pytest.raises(SchemaError):
            database.create_table(
                TableSchema(
                    "c",
                    (Column("id", ColumnType.INTEGER),),
                    ("id",),
                    foreign_keys=(ForeignKey(("id",), "nope"),),
                ),
                device="d",
            )


class TestDatabaseCatalog:
    def test_unknown_table(self, db):
        with pytest.raises(TableNotFoundError):
            db.table("missing")

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_table(
                TableSchema("info", (Column("x", ColumnType.INTEGER),), ("x",)),
                device="ssd",
            )

    def test_duplicate_device_rejected(self, db):
        with pytest.raises(SchemaError):
            db.add_device(StorageDevice("ssd", SsdSpec(), Category.CACHE_LOOKUP))

    def test_drop_table(self, db):
        db.drop_table("data")
        with pytest.raises(TableNotFoundError):
            db.table("data")

    def test_drop_referenced_table_rejected(self, db):
        with pytest.raises(SchemaError):
            db.drop_table("info")

    def test_table_names(self, db):
        assert db.table_names == ["data", "info"]

    def test_commit_reclaims_dead_versions(self, db):
        info = db.table("info")
        with db.transaction() as txn:
            info.insert(txn, {"ordinal": 1, "field": "a"})
        with db.transaction() as txn:
            info.update(txn, (1,), {"field": "b"})
            info.insert(txn, {"ordinal": 2, "field": "c"})
        with db.transaction() as txn:
            info.delete(txn, (2,))
        # The superseded 'a' and the deleted 'c' went at their commits.
        assert db.storage_stats()["versions_reclaimed"] == 2
        chains = dict(info._clustered.items())
        assert [[v.row["field"] for v in c.versions] for c in chains.values()] == [["b"]]
        assert dict(info._indexes["by_field"].items()) == {("b",): {(1,)}}
        assert info._heap.record_count == 1
        with db.transaction() as reader:
            assert info.get(reader, (1,))["field"] == "b"
            assert info.get(reader, (2,)) is None

    def test_a_dead_version_waits_for_every_snapshot_that_sees_it(self, db):
        info = db.table("info")

        def reclaimed_and_pending():
            stats = db.storage_stats()
            return stats["versions_reclaimed"], stats["reclaim_pending"]

        with db.transaction() as txn:
            info.insert(txn, {"ordinal": 1, "field": "a"})
        old = db.begin()
        with db.transaction() as txn:
            info.update(txn, (1,), {"field": "b"})
        newer = db.begin()
        with db.transaction() as txn:
            info.delete(txn, (1,))
        assert reclaimed_and_pending() == (0, 2)
        assert info.get(old, (1,))["field"] == "a"
        old.commit()  # the horizon moves to newer's snapshot: 'a' goes
        assert reclaimed_and_pending() == (1, 1)
        assert [row["field"] for row in info.lookup(newer, "by_field", ("b",))] == ["b"]
        assert list(info.lookup(newer, "by_field", ("a",))) == []
        newer.abort()  # an abort moves the horizon too: 'b' goes
        assert reclaimed_and_pending() == (2, 0)
        assert list(info._clustered.items()) == []
        assert list(info._indexes["by_field"].items()) == []
        assert info._heap.record_count == 0
        assert db._manager._open == {}


class TestLedgerCharging:
    def test_reads_charge_bound_ledger(self, db):
        with db.transaction() as setup:
            db.table("info").insert(setup, {"ordinal": 1, "field": "a"})
        db.drop_page_cache()
        ledger = CostLedger()
        with db.transaction(ledger) as txn:
            db.table("info").get(txn, (1,))
        assert ledger[Category.CACHE_LOOKUP] > 0

    def test_buffer_hit_is_free_on_second_read(self, db):
        with db.transaction() as setup:
            db.table("info").insert(setup, {"ordinal": 1, "field": "a"})
        db.drop_page_cache()
        ledger = CostLedger()
        with db.transaction(ledger) as txn:
            db.table("info").get(txn, (1,))
            cold = ledger[Category.CACHE_LOOKUP]
            db.table("info").get(txn, (1,))
            assert ledger[Category.CACHE_LOOKUP] == cold

    def test_commit_flush_charges_writes(self, db):
        ledger = CostLedger()
        with db.transaction(ledger) as txn:
            db.table("info").insert(txn, {"ordinal": 1, "field": "a"})
        read_then_flush = ledger[Category.CACHE_LOOKUP]
        assert read_then_flush > 0
