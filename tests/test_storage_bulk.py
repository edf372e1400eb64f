"""Tests for the bulk table operations behind the columnar fast path.

Covers :meth:`Table.insert_many` (all-or-nothing validation, read-back
of a committed batch, abort rollback),
:meth:`Table.scan_column_batches` and :meth:`Table.scan_columns`
(equivalence with :meth:`Table.scan`, charging), and
:meth:`BPlusTree.insert_sorted_run`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import Category, CostLedger
from repro.costmodel.devices import SsdSpec
from repro.storage import (
    Column,
    ColumnType,
    Database,
    DuplicateKeyError,
    ForeignKey,
    ForeignKeyError,
    SchemaError,
    StorageDevice,
    TableSchema,
)
from repro.storage.btree import BPlusTree


def schemas():
    parent = TableSchema(
        "info",
        (
            Column("id", ColumnType.INTEGER),
            Column("label", ColumnType.TEXT, nullable=True),
        ),
        primary_key=("id",),
    )
    child = TableSchema(
        "data",
        (
            Column("info_id", ColumnType.INTEGER),
            Column("seq", ColumnType.INTEGER),
            Column("payload", ColumnType.BLOB, nullable=True),
        ),
        primary_key=("info_id", "seq"),
        indexes={"by_info": ("info_id",)},
        foreign_keys=(ForeignKey(("info_id",), "info", cascade=True),),
    )
    return [(parent, "ssd"), (child, "ssd")]


def make_db():
    db = Database("bulk")
    db.add_device(StorageDevice("ssd", SsdSpec(), Category.CACHE_LOOKUP))
    for schema, device in schemas():
        db.create_table(schema, device=device)
    return db


def data_rows(n, info_id=1, start=0):
    return [
        {"info_id": info_id, "seq": start + i, "payload": bytes([i % 251])}
        for i in range(n)
    ]


class TestInsertMany:
    def test_rows_visible_and_counted(self):
        db = make_db()
        with db.transaction() as txn:
            db.table("info").insert(txn, {"id": 1, "label": "a"})
            n = db.table("data").insert_many(txn, data_rows(10))
        assert n == 10
        with db.transaction() as txn:
            rows = list(db.table("data").scan(txn))
        assert [r["seq"] for r in rows] == list(range(10))
        assert db.table("data").bulk_insert_rows == 10
        assert db.storage_stats()["bulk_insert_rows"] >= 10.0

    def test_empty_batch_is_noop(self):
        db = make_db()
        with db.transaction() as txn:
            assert db.table("data").insert_many(txn, []) == 0

    def test_committed_batch_reads_back(self):
        db = make_db()
        with db.transaction() as txn:
            db.table("info").insert(txn, {"id": 1, "label": "a"})
            db.table("data").insert_many(txn, data_rows(25))
        with db.transaction() as txn:
            rows = list(db.table("data").scan(txn))
        assert len(rows) == 25
        assert rows[0]["payload"] == b"\x00"

    def test_in_batch_duplicate_leaves_table_untouched(self):
        db = make_db()
        with db.transaction() as txn:
            db.table("info").insert(txn, {"id": 1, "label": "a"})
        bad = data_rows(5) + data_rows(1)  # seq 0 repeats
        with db.transaction() as txn:
            with pytest.raises(DuplicateKeyError):
                db.table("data").insert_many(txn, bad)
        with db.transaction() as txn:
            assert db.table("data").count(txn) == 0

    def test_visible_duplicate_leaves_table_untouched(self):
        db = make_db()
        with db.transaction() as txn:
            db.table("info").insert(txn, {"id": 1, "label": "a"})
            db.table("data").insert(txn, data_rows(1)[0])
        with db.transaction() as txn:
            with pytest.raises(DuplicateKeyError):
                db.table("data").insert_many(txn, data_rows(5))
        with db.transaction() as txn:
            assert db.table("data").count(txn) == 1

    def test_missing_parent_leaves_table_untouched(self):
        db = make_db()
        with db.transaction() as txn:
            with pytest.raises(ForeignKeyError):
                db.table("data").insert_many(txn, data_rows(3, info_id=9))
        with db.transaction() as txn:
            assert db.table("data").count(txn) == 0

    def test_abort_rolls_back_whole_batch(self):
        """Crash consistency: an aborted bulk insert leaves no partial rows."""
        db = make_db()
        with db.transaction() as txn:
            db.table("info").insert(txn, {"id": 1, "label": "a"})
        txn = db.begin()
        db.table("data").insert_many(txn, data_rows(50))
        txn.abort()
        with db.transaction() as check:
            assert db.table("data").count(check) == 0
            assert list(db.table("data").lookup(check, "by_info", (1,))) == []
        # The table still accepts the same batch afterwards.
        with db.transaction() as txn:
            assert db.table("data").insert_many(txn, data_rows(50)) == 50

    def test_uncommitted_batch_invisible_to_concurrent_txn(self):
        db = make_db()
        with db.transaction() as txn:
            db.table("info").insert(txn, {"id": 1, "label": "a"})
        writer = db.begin()
        db.table("data").insert_many(writer, data_rows(10))
        reader = db.begin()
        try:
            assert db.table("data").count(reader) == 0
        finally:
            reader.abort()
            writer.commit()
        with db.transaction() as txn:
            assert db.table("data").count(txn) == 10

    def test_matches_row_at_a_time_inserts(self):
        bulk, serial = make_db(), make_db()
        rows = data_rows(200)
        random.Random(7).shuffle(rows)
        for db in (bulk, serial):
            with db.transaction() as txn:
                db.table("info").insert(txn, {"id": 1, "label": "a"})
        with bulk.transaction() as txn:
            bulk.table("data").insert_many(txn, rows)
        with serial.transaction() as txn:
            for row in rows:
                serial.table("data").insert(txn, row)
        with bulk.transaction() as tb, serial.transaction() as ts:
            assert list(bulk.table("data").scan(tb)) == list(
                serial.table("data").scan(ts)
            )


class TestScanColumnBatches:
    def make_filled(self, n=300):
        db = make_db()
        with db.transaction() as txn:
            db.table("info").insert(txn, {"id": 1, "label": "a"})
            db.table("data").insert_many(txn, data_rows(n))
        return db

    def test_matches_scan(self):
        db = self.make_filled()
        with db.transaction() as txn:
            expect = [
                (r["seq"], r["payload"]) for r in db.table("data").scan(txn)
            ]
            got = []
            for seqs, payloads in db.table("data").scan_column_batches(
                txn, ["seq", "payload"], batch_rows=64
            ):
                assert len(seqs) <= 64
                got.extend(zip(seqs, payloads))
        assert got == expect

    def test_range_bounds_match_scan(self):
        db = self.make_filled()
        lo, hi = (1, 50), (1, 200)
        with db.transaction() as txn:
            expect = [r["seq"] for r in db.table("data").scan(txn, lo, hi)]
            got = [
                s
                for (seqs,) in db.table("data").scan_column_batches(
                    txn, ["seq"], lo, hi
                )
                for s in seqs
            ]
        assert got == expect

    def test_unknown_column_raises(self):
        db = self.make_filled(5)
        with db.transaction() as txn:
            with pytest.raises(SchemaError):
                list(db.table("data").scan_column_batches(txn, ["nope"]))

    def test_charge_false_skips_io_charging(self):
        db = self.make_filled()
        ledger = CostLedger()
        with db.transaction(ledger) as txn:
            for _ in db.table("data").scan_column_batches(
                txn, ["seq"], charge=False
            ):
                pass
        assert ledger.total == 0.0

    def test_charging_matches_scan(self):
        db = self.make_filled()
        charged, reference = CostLedger(), CostLedger()
        with db.transaction(charged) as txn:
            for _ in db.table("data").scan_column_batches(txn, ["seq"]):
                pass
        with db.transaction(reference) as txn:
            for _ in db.table("data").scan(txn):
                pass
        assert charged.total == pytest.approx(reference.total)


    def test_several_ranges_in_one_scan_replay_like_scans_of_each(self):
        db = self.make_filled()
        table = db.table("data")
        # Out of key order, one of them empty: the order given is the
        # order read, and only its first row may pay a seek.
        bounds = [((1, 200), (1, 260)), ((1, 10), (1, 40)), ((1, 40), (1, 40))]
        reference, replayed = CostLedger(), CostLedger()
        db.drop_page_cache()
        with db.transaction(reference) as txn:
            expect = [
                row["seq"]
                for i, (lo, hi) in enumerate(bounds)
                for row in table.scan(txn, lo, hi, sequential=i > 0)
            ]
        db.drop_page_cache()
        with db.transaction(replayed) as txn:
            (seqs,), pages = table.scan_columns(txn, ["seq"], bounds)
            assert replayed.total == 0.0
            table.touch_pages(pages)
        assert seqs == expect and len(pages) == len(seqs)
        assert replayed.total == reference.total > 0.0
        assert replayed.meters() == reference.meters()


class TestInsertSortedRun:
    def test_requires_ascending(self):
        tree = BPlusTree()
        with pytest.raises(ValueError):
            tree.insert_sorted_run([((2,), "b"), ((1,), "a")])

    def test_skips_existing_keys(self):
        tree = BPlusTree()
        tree.insert((5,), "old")
        added = tree.insert_sorted_run([((4,), "x"), ((5,), "new"), ((6,), "y")])
        assert added == 2
        assert tree.get((5,)) == "old"
        tree.check_invariants()

    @settings(max_examples=50, deadline=None)
    @given(
        preload=st.lists(st.integers(0, 500), unique=True, max_size=80),
        run=st.lists(st.integers(0, 500), unique=True, max_size=200),
    )
    def test_matches_point_inserts(self, preload, run):
        tree = BPlusTree(order=8)
        reference = BPlusTree(order=8)
        for trees in (tree, reference):
            for k in preload:
                trees.insert((k,), -k)
        added = tree.insert_sorted_run([((k,), k) for k in sorted(run)])
        for k in sorted(run):
            reference.insert((k,), k, replace=False)
        assert added == len(set(run) - set(preload))
        assert list(tree.items()) == list(reference.items())
        tree.check_invariants()


class TestNodeSpans:
    def test_spans_cover_range_in_order(self):
        from repro.cluster import MortonPartitioner
        from repro.morton import MortonRange

        part = MortonPartitioner(32, 4)
        rng = MortonRange(100, 32**3 - 7)
        spans = part.node_spans(rng)
        assert spans[0][1].start == rng.start
        assert spans[-1][1].stop == rng.stop
        assert [node for node, _ in spans] == sorted({node for node, _ in spans})
        total = 0
        prev_stop = rng.start
        for node, piece in spans:
            assert piece.start == prev_stop
            assert part.node_of_code(piece.start) == node
            assert part.node_of_code(piece.stop - 1) == node
            prev_stop = piece.stop
            total += len(piece)
        assert total == len(rng)

    def test_empty_and_out_of_domain(self):
        from repro.cluster import MortonPartitioner
        from repro.morton import MortonRange

        part = MortonPartitioner(16, 2)
        assert part.node_spans(MortonRange(5, 5)) == []
        with pytest.raises(ValueError):
            part.node_spans(MortonRange(0, 16**3 + 1))

    def test_single_node_range_stays_whole(self):
        from repro.cluster import MortonPartitioner
        from repro.morton import MortonRange

        part = MortonPartitioner(16, 8)
        rng = part.node_ranges(3)
        inner = MortonRange(rng.start + 1, rng.stop - 1)
        assert part.node_spans(inner) == [(3, inner)]
