"""Model-based stateful testing of snapshot isolation.

Hypothesis drives random interleavings of transactions (begin, writes,
commit, abort) against both the engine and a reference model of
snapshot-isolation semantics:

* a transaction reads the committed state as of its snapshot plus its
  own writes;
* writing a key last written by a transaction that committed after the
  snapshot — or currently being written by another live transaction —
  raises a serialization conflict (first-updater-wins);
* abort restores everything, the secondary indexes included: whatever a
  transaction sees through an index lookup is what it sees by scanning
  and filtering on that index's columns (``g`` never changes, so an
  update leaves ``by_g`` alone; ``v`` changes on almost every update);
* a commit reclaims what it ended only behind the oldest open snapshot:
  long-lived readers open and close between the writes and keep seeing
  their snapshot, and once no transaction is open every chain holds its
  one live version and the indexes and the heap hold nothing else.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.costmodel import Category
from repro.costmodel.devices import SsdSpec
from repro.storage import (
    Column,
    ColumnType,
    Database,
    DuplicateKeyError,
    SerializationConflictError,
    StorageDevice,
    TableSchema,
)

KEYS = list(range(6))


class _ModelTxn:
    def __init__(self, txn, snapshot: dict[int, int], ts: int) -> None:
        self.txn = txn
        self.snapshot = dict(snapshot)  # committed state at begin
        self.begin_ts = ts
        self.writes: dict[int, int | None] = {}  # key -> value or None=deleted

    def visible(self, key: int):
        if key in self.writes:
            return self.writes[key]
        return self.snapshot.get(key)


class SnapshotIsolationMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.db = Database()
        self.db.add_device(
            StorageDevice("ssd", SsdSpec(), Category.CACHE_LOOKUP)
        )
        self.db.create_table(
            TableSchema(
                "kv",
                (
                    Column("k", ColumnType.INTEGER),
                    Column("v", ColumnType.INTEGER),
                    Column("g", ColumnType.INTEGER),
                ),
                primary_key=("k",),
                indexes={"by_g": ("g",), "by_v": ("v",)},
            ),
            device="ssd",
        )
        self.table = self.db.table("kv")
        self.committed: dict[int, int] = {}
        self.commit_ts: dict[int, int] = {}  # key -> ts of last commit
        self.writer: dict[int, _ModelTxn] = {}  # key -> live writer
        self.clock = 0
        self.open: list[_ModelTxn] = []

    txns = Bundle("txns")
    readers = Bundle("readers")

    @rule(target=txns)
    def begin(self):
        model = _ModelTxn(self.db.begin(), self.committed, self.clock)
        self.open.append(model)
        return model

    def _write_allowed(self, model: _ModelTxn, key: int) -> bool:
        holder = self.writer.get(key)
        if holder is not None and holder is not model:
            return False
        if self.commit_ts.get(key, -1) > model.begin_ts:
            return False
        return True

    @rule(model=txns, key=st.sampled_from(KEYS), value=st.integers(0, 99))
    def upsert(self, model, key, value):
        exists = model.visible(key) is not None
        if not self._write_allowed(model, key):
            with pytest.raises(SerializationConflictError):
                if exists:
                    self.table.update(model.txn, (key,), {"v": value})
                else:
                    self.table.insert(model.txn, {"k": key, "v": value, "g": key % 2})
            return
        if exists:
            assert self.table.update(model.txn, (key,), {"v": value})
        else:
            self.table.insert(model.txn, {"k": key, "v": value, "g": key % 2})
        model.writes[key] = value
        self.writer[key] = model

    @rule(model=txns, key=st.sampled_from(KEYS))
    def delete(self, model, key):
        exists = model.visible(key) is not None
        if not exists:
            # Invisible rows are a no-op delete, never a conflict check
            # (the engine checks conflicts only on visible rows).
            if self.writer.get(key) not in (None, model) or (
                self.commit_ts.get(key, -1) <= model.begin_ts
            ):
                result = self.table.delete(model.txn, (key,))
                assert result is False
            return
        if not self._write_allowed(model, key):
            with pytest.raises(SerializationConflictError):
                self.table.delete(model.txn, (key,))
            return
        assert self.table.delete(model.txn, (key,)) is True
        model.writes[key] = None
        self.writer[key] = model

    @rule(model=consumes(txns))
    def commit(self, model):
        model.txn.commit()
        self.clock += 1
        for key, value in model.writes.items():
            if value is None:
                self.committed.pop(key, None)
            else:
                self.committed[key] = value
            self.commit_ts[key] = self.clock
            if self.writer.get(key) is model:
                del self.writer[key]
        self.open.remove(model)

    @rule(target=readers)
    def open_reader(self):
        # Writes nothing; reads_match_model checks its view until it closes.
        model = _ModelTxn(self.db.begin(), self.committed, self.clock)
        self.open.append(model)
        return model

    @rule(model=consumes(readers))
    def close_reader(self, model):
        model.txn.commit()
        self.open.remove(model)

    @rule(model=consumes(txns))
    def abort(self, model):
        model.txn.abort()
        for key in model.writes:
            if self.writer.get(key) is model:
                del self.writer[key]
        self.open.remove(model)

    @invariant()
    def reads_match_model(self):
        # Every open transaction sees snapshot + own writes.
        for model in self.open:
            for key in KEYS:
                row = self.table.get(model.txn, (key,))
                expected = model.visible(key)
                actual = None if row is None else row["v"]
                assert actual == expected, (
                    f"txn {model.txn.txn_id} key {key}: "
                    f"engine {actual} != model {expected}"
                )
        # A fresh reader sees exactly the committed state.
        with self.db.transaction() as reader:
            rows = {r["k"]: r["v"] for r in self.table.scan(reader)}
            self._indexes_match_scan(reader)
        assert rows == self.committed

    def _indexes_match_scan(self, txn):
        rows = list(self.table.scan(txn))
        for name, columns in self.table.schema.indexes.items():
            # Every key a row has and every key the index holds (stale
            # entries included): neither side may know one the other lacks.
            held = {key for key, _ in self.table._indexes[name].items()}
            for key in held | {tuple(r[c] for c in columns) for r in rows}:
                expected = [r for r in rows if tuple(r[c] for c in columns) == key]
                assert list(self.table.lookup(txn, name, key)) == expected, (
                    f"txn {txn.txn_id} index {name} key {key}"
                )

    @invariant()
    def nothing_dead_outlives_the_open_snapshots(self):
        if self.open:
            return
        assert self.db._manager._open == {}
        assert self.db.storage_stats()["reclaim_pending"] == 0
        chains = dict(self.table._clustered.items())
        assert {key for (key,) in chains} == set(self.committed)
        for chain in chains.values():
            assert len(chain.versions) == 1 and chain.versions[0].committed_live
        for name, columns in self.table.schema.indexes.items():
            held = {
                (index_key, pk)
                for index_key, pks in self.table._indexes[name].items()
                for pk in pks
            }
            rows = [chain.versions[0].row for chain in chains.values()]
            assert held == {
                (tuple(row[c] for c in columns), (row["k"],)) for row in rows
            }, name
        assert self.table._heap.record_count == len(self.committed)

    @invariant()
    def index_lookups_match_scans(self):
        for model in self.open:
            self._indexes_match_scan(model.txn)

    def teardown(self):
        for model in list(self.open):
            model.txn.abort()
        self.open.clear()
        self.nothing_dead_outlives_the_open_snapshots()


SnapshotIsolationMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestSnapshotIsolation = SnapshotIsolationMachine.TestCase
