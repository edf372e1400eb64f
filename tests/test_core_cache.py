"""Tests for the semantic cache's containment, dominance, LRU and FKs."""

import sys
import threading

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.cluster.webservice import WebService
from repro.core import ThresholdQuery, pointset
from repro.core.cache import CacheLookup, SemanticCache
from repro.core.pdfcache import PdfCache
from repro.costmodel import Category, CostLedger, paper_cluster
from repro.costmodel.devices import HddArraySpec, SsdSpec
from repro.grid import Box
from repro.simulation import mhd_dataset
from repro.morton import decode_array, encode_array
from repro.core.threshold import get_threshold_on_node
from repro.storage import Database, SerializationConflictError, StorageDevice


def make_cache(capacity_bytes=1 << 20, point_record_bytes=20):
    db = Database("cachehost")
    db.add_device(StorageDevice("hdd", HddArraySpec(), Category.IO))
    db.add_device(StorageDevice("ssd", SsdSpec(), Category.CACHE_LOOKUP))
    return db, SemanticCache(db, capacity_bytes, point_record_bytes)


def points_in_box(box, count, value=10.0, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.integers(box.lo[0], box.hi[0], count)
    ys = rng.integers(box.lo[1], box.hi[1], count)
    zs = rng.integers(box.lo[2], box.hi[2], count)
    zindexes = np.unique(encode_array(xs, ys, zs))
    values = np.linspace(value, value * 2, len(zindexes))
    return zindexes, values


BOX = Box((0, 0, 0), (16, 16, 16))


class TestLookupSemantics:
    def test_empty_cache_misses(self):
        db, cache = make_cache()
        with db.transaction() as txn:
            lookup = cache.lookup(txn, "mhd", "vorticity", 0, BOX, 5.0)
        assert not lookup.hit and lookup.stale_ordinal is None

    def test_exact_hit(self):
        db, cache = make_cache()
        zindexes, values = points_in_box(BOX, 50)
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, BOX, 5.0, zindexes, values)
        with db.transaction() as txn:
            lookup = cache.lookup(txn, "mhd", "vorticity", 0, BOX, 5.0)
        assert lookup.hit
        assert np.array_equal(np.sort(lookup.zindexes), np.sort(zindexes))

    def test_higher_threshold_hits_and_filters(self):
        db, cache = make_cache()
        zindexes, values = points_in_box(BOX, 60)
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, BOX, 5.0, zindexes, values)
        cut = float(np.median(values))
        with db.transaction() as txn:
            lookup = cache.lookup(txn, "mhd", "vorticity", 0, BOX, cut)
        assert lookup.hit
        assert (lookup.values >= cut).all()
        assert len(lookup.values) == int((values >= cut).sum())

    def test_lower_threshold_is_stale_miss(self):
        db, cache = make_cache()
        zindexes, values = points_in_box(BOX, 10)
        with db.transaction() as txn:
            ordinal = cache.store(
                txn, "mhd", "vorticity", 0, BOX, 5.0, zindexes, values
            )
        with db.transaction() as txn:
            lookup = cache.lookup(txn, "mhd", "vorticity", 0, BOX, 2.0)
        assert not lookup.hit
        assert lookup.stale_ordinal == ordinal

    def test_unordered_threshold_never_dominates(self):
        # NaN compares false both ways: an entry stored under it (empty,
        # since nothing is >= NaN) must read as stale, not as an answer.
        db, cache = make_cache()
        empty = np.array([], dtype=np.uint64), np.array([], dtype=np.float32)
        with db.transaction() as txn:
            ordinal = cache.store(
                txn, "mhd", "vorticity", 0, BOX, float("nan"), *empty
            )
        with db.transaction() as txn:
            lookup = cache.lookup(txn, "mhd", "vorticity", 0, BOX, 8.0)
        assert not lookup.hit
        assert lookup.stale_ordinal == ordinal

    def test_contained_region_hits_and_clips(self):
        db, cache = make_cache()
        zindexes, values = points_in_box(BOX, 200, seed=3)
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, BOX, 5.0, zindexes, values)
        sub = Box((4, 4, 4), (12, 12, 12))
        with db.transaction() as txn:
            lookup = cache.lookup(txn, "mhd", "vorticity", 0, sub, 5.0)
        assert lookup.hit
        from repro.morton import decode_array

        x, y, z = decode_array(lookup.zindexes)
        assert (x >= 4).all() and (x < 12).all()
        assert (y >= 4).all() and (z < 12).all()

    def test_disjoint_region_misses(self):
        db, cache = make_cache()
        zindexes, values = points_in_box(BOX, 10)
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, BOX, 5.0, zindexes, values)
        other = Box((16, 16, 16), (32, 32, 32))
        with db.transaction() as txn:
            assert not cache.lookup(txn, "mhd", "vorticity", 0, other, 5.0).hit

    def test_different_key_dimensions_miss(self):
        db, cache = make_cache()
        zindexes, values = points_in_box(BOX, 10)
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, BOX, 5.0, zindexes, values)
        with db.transaction() as txn:
            assert not cache.lookup(txn, "mhd", "vorticity", 1, BOX, 5.0).hit
            assert not cache.lookup(txn, "mhd", "q_criterion", 0, BOX, 5.0).hit
            assert not cache.lookup(txn, "iso", "vorticity", 0, BOX, 5.0).hit

    def test_hit_results_sorted_by_zindex(self):
        db, cache = make_cache()
        zindexes, values = points_in_box(BOX, 100, seed=9)
        shuffled = np.random.default_rng(1).permutation(len(zindexes))
        with db.transaction() as txn:
            cache.store(
                txn, "mhd", "vorticity", 0, BOX, 5.0,
                zindexes[shuffled], values[shuffled],
            )
        with db.transaction() as txn:
            lookup = cache.lookup(txn, "mhd", "vorticity", 0, BOX, 5.0)
        assert (np.diff(lookup.zindexes.astype(np.int64)) > 0).all()


    def test_an_aborted_hit_leaves_the_entry_findable(self):
        # get_batch_on_node runs a node part's boxes in one transaction:
        # a hit on one box, then an abort on a later one, used to strip
        # the entry that hit from `by_query` for good (the recency touch
        # is an update) — still counted by used_bytes, never hit again.
        db, cache = make_cache()
        zindexes, values = points_in_box(BOX, 50)
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, BOX, 5.0, zindexes, values)
        txn = db.begin()
        assert cache.lookup(txn, "mhd", "vorticity", 0, BOX, 5.0).hit
        txn.abort()
        with db.transaction() as txn:
            assert cache.lookup(txn, "mhd", "vorticity", 0, BOX, 5.0).hit
            assert cache.entry_count(txn) == 1


class TestStoreAndReplace:
    def test_store_replaces_stale_entry(self):
        db, cache = make_cache()
        z1, v1 = points_in_box(BOX, 10)
        with db.transaction() as txn:
            stale = cache.store(txn, "mhd", "vorticity", 0, BOX, 5.0, z1, v1)
        z2, v2 = points_in_box(BOX, 30, seed=5)
        with db.transaction() as txn:
            cache.store(
                txn, "mhd", "vorticity", 0, BOX, 2.0, z2, v2,
                replace_ordinal=stale,
            )
            assert cache.entry_count(txn) == 1
        with db.transaction() as txn:
            lookup = cache.lookup(txn, "mhd", "vorticity", 0, BOX, 2.0)
        assert lookup.hit and len(lookup.zindexes) == len(z2)

    def test_store_mismatched_arrays_rejected(self):
        db, cache = make_cache()
        with db.transaction() as txn:
            with pytest.raises(ValueError):
                cache.store(
                    txn, "mhd", "vorticity", 0, BOX, 5.0,
                    np.array([1], np.uint64), np.array([], np.float64),
                )
            txn.abort()

    def test_oversized_result_rejected(self):
        db, cache = make_cache(capacity_bytes=100)
        zindexes, values = points_in_box(BOX, 50)
        with db.transaction() as txn:
            with pytest.raises(ValueError):
                cache.store(txn, "mhd", "vorticity", 0, BOX, 5.0, zindexes, values)
            txn.abort()

    def test_used_bytes_accounting(self):
        db, cache = make_cache(point_record_bytes=20)
        zindexes, values = points_in_box(BOX, 40)
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, BOX, 5.0, zindexes, values)
            assert cache.used_bytes(txn) == len(zindexes) * 20


class TestLruEviction:
    def test_least_recently_used_evicted_first(self):
        db, cache = make_cache(capacity_bytes=3000, point_record_bytes=20)
        boxes = [Box((i * 4, 0, 0), ((i + 1) * 4, 4, 4)) for i in range(4)]
        # Three entries of ~50 points x 20 B = ~1000 B each fill the cache.
        for t, box in enumerate(boxes[:3]):
            z, v = points_in_box(box, 100, seed=t)
            z, v = z[:50], v[:50]
            with db.transaction() as txn:
                cache.store(txn, "mhd", "vorticity", t, box, 5.0, z, v)
        # Touch entry 0 so entry for t=1 becomes LRU.
        with db.transaction() as txn:
            assert cache.lookup(txn, "mhd", "vorticity", 0, boxes[0], 5.0).hit
        z, v = points_in_box(boxes[3], 100, seed=9)
        z, v = z[:50], v[:50]
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 3, boxes[3], 5.0, z, v)
        with db.transaction() as txn:
            assert cache.lookup(txn, "mhd", "vorticity", 0, boxes[0], 5.0).hit
            assert not cache.lookup(txn, "mhd", "vorticity", 1, boxes[1], 5.0).hit
            assert cache.lookup(txn, "mhd", "vorticity", 3, boxes[3], 5.0).hit

    def test_eviction_cascades_to_cache_data(self):
        db, cache = make_cache(capacity_bytes=1200, point_record_bytes=20)
        z1, v1 = points_in_box(BOX, 100, seed=1)
        z1, v1 = z1[:50], v1[:50]
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, BOX, 5.0, z1, v1)
        z2, v2 = points_in_box(BOX, 100, seed=2)
        z2, v2 = z2[:50], v2[:50]
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 1, BOX, 5.0, z2, v2)
        with db.transaction() as txn:
            # first entry's chunks cascaded away with its cacheInfo row
            assert cache.data_point_count(txn) == len(z2)
            assert db.table("cacheData").count(txn) == 1  # one packed chunk


class TestMaintenance:
    def test_drop_timestep(self):
        db, cache = make_cache()
        for t in range(3):
            z, v = points_in_box(BOX, 10, seed=t)
            with db.transaction() as txn:
                cache.store(txn, "mhd", "vorticity", t, BOX, 5.0, z, v)
        assert cache.drop_timestep("mhd", "vorticity", 1) == 1
        with db.transaction() as txn:
            assert cache.entry_count(txn) == 2
            assert not cache.lookup(txn, "mhd", "vorticity", 1, BOX, 5.0).hit

    def test_clear(self):
        db, cache = make_cache()
        for t in range(2):
            z, v = points_in_box(BOX, 5, seed=t)
            with db.transaction() as txn:
                cache.store(txn, "mhd", "vorticity", t, BOX, 5.0, z, v)
        assert cache.clear() == 2
        with db.transaction() as txn:
            assert cache.entry_count(txn) == 0
            assert db.table("cacheData").count(txn) == 0

    def test_capacity_validation(self):
        db = Database()
        db.add_device(StorageDevice("ssd", SsdSpec(), Category.CACHE_LOOKUP))
        with pytest.raises(ValueError):
            SemanticCache(db, capacity_bytes=0)

    def test_cache_tables_live_on_ssd_device(self):
        db, cache = make_cache()
        info = db.table("cacheInfo")
        assert info._device.category is Category.CACHE_LOOKUP


def test_replacing_queries_leave_no_dead_versions_behind():
    db, cache = make_cache()
    zindexes, values = points_in_box(BOX, 50)
    threshold = 5.0
    for _ in range(200):
        threshold *= 0.999  # a hair lower: the stored entry is stale
        with db.transaction() as txn:
            lookup = cache.lookup(txn, "mhd", "vorticity", 0, BOX, threshold)
            assert not lookup.hit
            cache.store(
                txn, "mhd", "vorticity", 0, BOX, threshold, zindexes, values,
                replace_ordinal=lookup.stale_ordinal,
            )
    for name in ("cacheInfo", "cacheData"):
        chains = [chain for _key, chain in db.table(name)._clustered.items()]
        live = sum(any(v.committed_live for v in c.versions) for c in chains)
        assert live >= 1
        assert sum(len(c.versions) for c in chains) <= 2 * live, name


def test_a_cluster_keeps_no_dead_versions_after_thousands_of_requests():
    # Counted in requests, not seconds: 2,000 stale-entry replacements and
    # 2,000 hits (each a recency touch) on a 16^3 library cluster leave
    # every cache chain holding its live row alone.
    mediator = build_cluster(mhd_dataset(side=16, timesteps=1), nodes=1)
    threshold = 5.0
    for _ in range(2000):
        threshold *= 0.999  # a hair lower: every stored entry is stale
        query = ThresholdQuery("mhd", "vorticity", 0, threshold)
        assert mediator.threshold(query).cache_hits == 0
        assert mediator.threshold(query).cache_hits == 1
    for node in mediator.nodes:
        stats = node.db.storage_stats()
        assert stats["reclaim_pending"] == 0
        # A hit ends its touched cacheInfo version; each replacement after
        # the first store ends one cacheInfo and at least one cacheData.
        assert stats["versions_reclaimed"] >= 2000 + 2 * 1999
        exported = mediator.metrics.to_dict()
        for key in ("versions_reclaimed", "reclaim_pending"):
            assert exported[f"storage_{key}"]["samples"][0]["value"] == stats[key]
        with node.db.transaction() as txn:
            for name, index in (("cacheInfo", "by_query"), ("cacheData", "by_info")):
                table = node.db.table(name)
                live = {table.schema.key_of(row) for row in table.scan(txn)}
                chains = dict(table._clustered.items())
                assert sum(len(c.versions) for c in chains.values()) == len(live)
                assert set(chains) == live
                indexed = {pk for _, pks in table._indexes[index].items() for pk in pks}
                assert indexed == live, name


# -- what each operation charges ---------------------------------------------
#
# The literals below were captured at commit 9d7f54d, where every probe,
# victim pick, SUM and DELETE went through the SQL dialect; the `Table`
# calls that replaced it must take the same access paths, so every
# simulated charge stays bit-identical.  Each step starts from a cold
# page cache (so reads are charged, seeks included) and records the
# operation's return value, the non-zero categories of its ledger, the
# ledger's meters and the buffer pool's (hits, misses) — the only trace
# of `drop_timestep` / `clear`, which run unledgered.


class _Script:
    def __init__(self, db):
        self.db = db
        self.log = []

    def _pool(self):
        stats = self.db.storage_stats()
        return int(stats["bufferpool_hits"]), int(stats["bufferpool_misses"])

    def step(self, name, op, own_txn=False):
        self.db.drop_page_cache()
        hits, misses = self._pool()
        ledger = CostLedger()
        if own_txn:
            result = op()
        else:
            with self.db.transaction(ledger) as txn:
                result = op(txn)
        if isinstance(result, CacheLookup):
            count = None if result.zindexes is None else len(result.zindexes)
            result = (result.hit, count, result.stale_ordinal)
        elif isinstance(result, np.ndarray):
            result = result.tolist()
        after = self._pool()
        self.log.append((
            name,
            result,
            {k: v for k, v in ledger.breakdown().items() if v},
            ledger.meters(),
            (after[0] - hits, after[1] - misses),
        ))


_A = Box((0, 0, 0), (32, 32, 32))
_B = Box((32, 0, 0), (64, 32, 32))  # same (dataset, field, timestep) as _A
_C = _A  # at timestep 1


def _three_chunk_points(box):
    """9,000 points of ``box`` (three packed chunks), values 5.0-14.0."""
    local = np.arange(9000, dtype=np.uint64) * np.uint64(3)
    x, y, z = decode_array(local)
    zindexes = encode_array(x + box.lo[0], y + box.lo[1], z + box.lo[2])
    return zindexes, 5.0 + np.arange(9000) / 1000.0


def _run_threshold_script(policy, full):
    db = Database("cachehost")
    db.add_device(StorageDevice("ssd", SsdSpec(), Category.CACHE_LOOKUP))
    cache = SemanticCache(db, capacity_bytes=400_000, policy=policy)
    script = _Script(db)
    args = ("mhd", "vorticity")
    script.step("store A", lambda t: cache.store(
        t, *args, 0, _A, 5.0, *_three_chunk_points(_A)))
    script.step("store B", lambda t: cache.store(
        t, *args, 0, _B, 5.0, *_three_chunk_points(_B)))
    script.step("hit A", lambda t: cache.lookup(t, *args, 0, _A, 5.0))
    script.step("store C evicts", lambda t: cache.store(
        t, *args, 1, _C, 5.0, *_three_chunk_points(_C)))
    script.step("probe A", lambda t: cache.lookup(t, *args, 0, _A, 5.0))
    script.step("probe B", lambda t: cache.lookup(t, *args, 0, _B, 5.0))
    if not full:
        return script.log, cache.stats.snapshot()
    script.step("contained hit C", lambda t: cache.lookup(
        t, *args, 1, Box((0, 0, 0), (16, 16, 16)), 6.0))
    script.step("stale probe C", lambda t: cache.lookup(t, *args, 1, _C, 4.0))
    stale = script.log[-1][1][2]
    script.step("stale replace C", lambda t: cache.store(
        t, *args, 1, _C, 4.0, *_three_chunk_points(_C), replace_ordinal=stale))
    script.step("used_bytes", cache.used_bytes)
    script.step("data_point_count", cache.data_point_count)
    script.step("entry_points", lambda t: len(cache.entry_points(t, 4)[0]))
    script.step("drop_timestep", lambda: cache.drop_timestep(*args, 1), True)
    script.step("clear", cache.clear, True)

    pdf = PdfCache(db, max_entries=2)
    edges = (0.0, 1.0, 2.0)
    for t in range(2):
        script.step(f"pdf store {t}", lambda txn, t=t: pdf.store(
            txn, *args, t, 4, edges, np.array([t, 7], np.int64)))
    script.step("pdf hit 0", lambda txn: pdf.lookup(txn, *args, 0, 4, edges))
    script.step("pdf store 2 evicts", lambda txn: pdf.store(
        txn, *args, 2, 4, edges, np.array([2, 7], np.int64)))
    script.step("pdf probe 1", lambda txn: pdf.lookup(txn, *args, 1, 4, edges))
    script.step("pdf probe 0", lambda txn: pdf.lookup(txn, *args, 0, 4, edges))
    script.step("pdf clear", pdf.clear, True)
    return script.log, (cache.stats.snapshot(), pdf.stats.snapshot())


_EXPECTED_LRU = ([('store A', 1, {'cache_lookup': 0.0006812500000000002},
   {'cache_bytes': 65536.0}, (0, 4)),
  ('store B', 2, {'cache_lookup': 0.0006812500000000002},
   {'cache_bytes': 65536.0}, (1, 4)),
  ('hit A', (True, 9000, None), {'cache_lookup': 0.0005640625000000001},
   {'cache_bytes': 40960.0}, (2, 4)),
  ('store C evicts', 3, {'cache_lookup': 0.0011921875000000005},
   {'cache_bytes': 114688.0}, (9, 7)),
  ('probe A', (True, 9000, None), {'cache_lookup': 0.0005640625000000001},
   {'cache_bytes': 40960.0}, (1, 4)),
  ('probe B', (False, None, None), {'cache_lookup': 0.00013125000000000002},
   {'cache_bytes': 8192.0}, (0, 1)),
  ('contained hit C', (True, 366, None),
   {'cache_lookup': 0.0005640625000000001}, {'cache_bytes': 40960.0}, (1, 4)),
  ('stale probe C', (False, None, 3), {'cache_lookup': 0.00013125000000000002},
   {'cache_bytes': 8192.0}, (0, 1)),
  ('stale replace C', 4, {'cache_lookup': 0.0011921875000000005},
   {'cache_bytes': 114688.0}, (5, 7)),
  ('used_bytes', 360000, {'cache_lookup': 0.00013125000000000002},
   {'cache_bytes': 8192.0}, (1, 1)),
  ('data_point_count', 18000, {'cache_lookup': 0.0002875},
   {'cache_bytes': 49152.0}, (0, 6)),
  ('entry_points', 9000, {'cache_lookup': 0.00039375000000000006},
   {'cache_bytes': 24576.0}, (0, 3)),
  ('drop_timestep', 1, {}, {}, (4, 4)), ('clear', 1, {}, {}, (4, 4)),
  ('pdf store 0', 1, {'cache_lookup': 0.00017031250000000003},
   {'cache_bytes': 16384.0}, (0, 1)),
  ('pdf store 1', 2, {'cache_lookup': 0.00017031250000000003},
   {'cache_bytes': 16384.0}, (0, 1)),
  ('pdf hit 0', [0, 7], {'cache_lookup': 0.00017031250000000003},
   {'cache_bytes': 16384.0}, (1, 1)),
  ('pdf store 2 evicts', 3, {'cache_lookup': 0.00017031250000000003},
   {'cache_bytes': 16384.0}, (3, 1)),
  ('pdf probe 1', None, {}, {}, (0, 0)),
  ('pdf probe 0', [0, 7], {'cache_lookup': 0.00017031250000000003},
   {'cache_bytes': 16384.0}, (1, 1)),
  ('pdf clear', 2, {}, {}, (3, 1))],
 ({'hits': 3,
   'misses': 2,
   'dominance_rejections': 1,
   'evictions': 1,
   'stored_points': 36000,
   'stored_bytes': 720000,
   'chunks_pruned': 2,
   'text_bytes': 0,
   'text_built_points': 0},
  {'hits': 2,
   'misses': 1,
   'dominance_rejections': 0,
   'evictions': 1,
   'stored_points': 6,
   'stored_bytes': 48,
   'chunks_pruned': 0,
   'text_bytes': 0,
   'text_built_points': 0}))

_EXPECTED_FIFO = ([('store A', 1, {'cache_lookup': 0.0006812500000000002},
   {'cache_bytes': 65536.0}, (0, 4)),
  ('store B', 2, {'cache_lookup': 0.0006812500000000002},
   {'cache_bytes': 65536.0}, (1, 4)),
  ('hit A', (True, 9000, None), {'cache_lookup': 0.0005640625000000001},
   {'cache_bytes': 40960.0}, (2, 4)),
  ('store C evicts', 3, {'cache_lookup': 0.0011921875000000005},
   {'cache_bytes': 114688.0}, (9, 7)),
  ('probe A', (False, None, None), {'cache_lookup': 0.00013125000000000002},
   {'cache_bytes': 8192.0}, (0, 1)),
  ('probe B', (True, 9000, None), {'cache_lookup': 0.0005640625000000001},
   {'cache_bytes': 40960.0}, (1, 4))],
 {'hits': 2,
  'misses': 1,
  'dominance_rejections': 0,
  'evictions': 1,
  'stored_points': 27000,
  'stored_bytes': 540000,
  'chunks_pruned': 0,
  'text_bytes': 0,
  'text_built_points': 0})


def test_cache_operations_charge_what_they_did():
    assert _run_threshold_script("lru", full=True) == _EXPECTED_LRU
    assert _run_threshold_script("fifo", full=False) == _EXPECTED_FIFO


# -- value text: what a rendered hit keeps beside the entry ------------------

_ARGS = ("mhd", "vorticity")


def _held(cache):
    """The chunks whose value text the cache holds, by entry ordinal."""
    return {ordinal: sorted(chunks) for ordinal, chunks in cache._text.items()}


def _store_a(db, cache, timestep=0, threshold=5.0, replace=None):
    with db.transaction() as txn:
        return cache.store(
            txn, *_ARGS, timestep, _A, threshold, *_three_chunk_points(_A),
            replace_ordinal=replace,
        )


def _text_lookup(db, cache, box=_A, threshold=5.0, timestep=0, text=True):
    ledger = CostLedger()
    with db.transaction(ledger) as txn:
        lookup = cache.lookup(txn, *_ARGS, timestep, box, threshold, text=text)
    return lookup, ledger


class TestValueText:
    def test_a_rendered_hit_fills_the_text_of_exactly_the_chunks_it_read(self):
        db, cache = make_cache()
        ordinal = _store_a(db, cache)
        # Values rise along the curve: at 10.0 chunk 0 (5.0-9.1) is pruned.
        lookup, _ = _text_lookup(db, cache, threshold=10.0)
        assert lookup.hit and lookup.held_text == 0
        assert _held(cache) == {ordinal: [1, 2]}
        stats = cache.stats.snapshot()
        assert stats["text_built_points"] == 4096 + 808
        assert stats["text_bytes"] == sum(
            text.nbytes for text in cache._text[ordinal].values()
        )
        assert lookup.text.tolist() == pointset.value_text(lookup.values).tolist()
        assert len(lookup.text) == len(lookup.zindexes) == 4000
        # A wider hit builds chunk 0 alone, and reuses the rest.
        lookup, _ = _text_lookup(db, cache, threshold=9.0)
        assert _held(cache) == {ordinal: [0, 1, 2]}
        assert cache.stats.snapshot()["text_built_points"] == 9000
        assert lookup.held_text == 4904 and len(lookup.values) == 5000
        assert lookup.text.tolist() == pointset.value_text(lookup.values).tolist()

    def test_a_contained_hit_masks_the_text_with_its_points(self):
        db, cache = make_cache()
        _store_a(db, cache)
        _text_lookup(db, cache)  # every chunk's text is held
        inner = Box((1, 2, 3), (13, 11, 9))
        lookup, _ = _text_lookup(db, cache, box=inner, threshold=5.5)
        plain, _ = _text_lookup(db, cache, box=inner, threshold=5.5, text=False)
        assert 0 < len(lookup.values) == lookup.held_text < 9000
        assert np.array_equal(lookup.zindexes, plain.zindexes)
        assert lookup.text.tolist() == pointset.value_text(plain.values).tolist()
        assert plain.text is None and plain.held_text == 0

    def test_the_text_is_outside_the_ledger(self):
        db, cache = make_cache()
        _store_a(db, cache)
        _text_lookup(db, cache, text=False)  # warm the buffer pool
        _, plain = _text_lookup(db, cache, text=False)
        _, built = _text_lookup(db, cache)
        _, held = _text_lookup(db, cache)
        assert plain.breakdown() == built.breakdown() == held.breakdown()
        assert plain.meters() == built.meters() == held.meters()

    @pytest.mark.parametrize(
        "kill", ["replace", "evict", "drop_timestep", "clear"]
    )
    def test_a_dead_entry_leaves_no_text(self, kill):
        # Room for one 9,000-point entry: a second store evicts the first.
        db, cache = make_cache(capacity_bytes=200_000)
        ordinal = _store_a(db, cache)
        _text_lookup(db, cache)
        assert _held(cache) == {ordinal: [0, 1, 2]}
        if kill == "replace":
            _store_a(db, cache, threshold=4.0, replace=ordinal)
        elif kill == "evict":
            _store_a(db, cache, timestep=1)
        elif kill == "drop_timestep":
            assert cache.drop_timestep(*_ARGS, 0) == 1
        else:
            assert cache.clear() == 1
        assert ordinal not in cache._text
        assert cache.stats.snapshot()["text_bytes"] == 0

    def test_an_aborted_delete_keeps_the_text(self):
        db, cache = make_cache()
        ordinal = _store_a(db, cache)
        _text_lookup(db, cache)
        txn = db.begin()
        cache._delete(txn, ordinal)
        txn.abort()
        assert _held(cache) == {ordinal: [0, 1, 2]}
        lookup, _ = _text_lookup(db, cache)
        assert lookup.held_text == 9000

    def test_an_older_snapshot_does_not_bring_a_dead_entry_back(self):
        db, cache = make_cache()
        ordinal = _store_a(db, cache)
        old = db.begin()
        assert cache.drop_timestep(*_ARGS, 0) == 1
        # The old snapshot still sees the entry and gets its text, but
        # the cache keeps none of it for the dead ordinal.
        lookup = cache.lookup(old, *_ARGS, 0, _A, 5.0, text=True)
        old.commit()
        assert lookup.hit and len(lookup.text) == 9000
        assert ordinal not in cache._text
        assert cache.stats.snapshot()["text_bytes"] == 0

    def test_an_aborted_store_leaves_no_text(self):
        db, cache = make_cache()
        txn = db.begin()
        ordinal = cache.store(txn, *_ARGS, 0, _A, 5.0, *_three_chunk_points(_A))
        lookup = cache.lookup(txn, *_ARGS, 0, _A, 5.0, text=True)
        assert lookup.hit and ordinal in cache._text
        txn.abort()
        assert ordinal not in cache._text
        assert cache.stats.snapshot()["text_bytes"] == 0


def test_algorithm_1_carries_the_text_through_interleaved_boxes(small_mhd):
    # Two boxes split along x interleave on the curve, so the node's
    # merge takes the argsort path.
    mediator = build_cluster(small_mhd, nodes=1)
    node, executor, cache = mediator.nodes[0], mediator.executors[0], mediator.caches[0]
    query = ThresholdQuery("mhd", "vorticity", 0, 1.0)
    boxes = [Box((0, 0, 0), (4, 8, 8)), Box((4, 0, 0), (8, 8, 8))]
    # Miss (text from the evaluation), first hit (built from the chunks),
    # second hit (held).
    for cached, held in ((False, False), (True, False), (True, True)):
        part = get_threshold_on_node(
            node, executor, cache, mediator.registry, query, boxes, render=True
        )
        assert part.cache_hit is cached and len(part) > 0
        assert np.all(part.zindexes[1:] > part.zindexes[:-1])
        assert part.text.tolist() == pointset.value_text(part.values).tolist()
        assert part.held_text == (len(part) if held else 0)
    plain = get_threshold_on_node(
        node, executor, cache, mediator.registry, query, boxes
    )
    assert plain.text is None and np.array_equal(plain.zindexes, part.zindexes)


def test_a_library_hit_and_a_column_part_build_no_text(small_mhd):
    # Only a part that renders asks for text: the library handle path and
    # a column threshold part read the same chunks and hold nothing.
    mediator = build_cluster(small_mhd, nodes=2)
    service = WebService(mediator)
    request = {"method": "GetThreshold", "dataset": "mhd",
               "field": "vorticity", "timestep": 0, "threshold": 1.0}
    for _ in range(2):
        assert service.handle(dict(request))["status"] == "ok"
    query = ThresholdQuery("mhd", "vorticity", 0, 1.0)
    boxes = mediator.partitioner.query_boxes(0, Box.cube(small_mhd.spec.side))
    part = mediator.transport.threshold_part(
        0, query, boxes, use_cache=True, processes=1, io_only=False
    )
    assert part.cache_hit and len(part) > 0 and part.text is None
    for cache in mediator.caches:
        stats = cache.stats.snapshot()
        assert stats["hits"] > 0
        assert stats["text_bytes"] == stats["text_built_points"] == 0
        assert cache._text == {}
    # The door asks for it: the same hits now build and hold text.
    head, _ = service.handle_json(dict(request))
    assert head["cache_hits"] == mediator.node_count
    assert sum(c.stats.snapshot()["text_built_points"] for c in mediator.caches) > 0
    status, _, stats = service.handle_http("GET", "/stats")
    assert status == 200
    held = sum(c.stats.snapshot()["text_bytes"] for c in mediator.caches)
    assert f"semantic_cache_probe_text_bytes {float(held)}" in stats
    assert "semantic_cache_probe_text_built_points" in stats


def test_concurrent_hits_and_deletes_hold_text_only_for_live_entries():
    # Readers build text while writers replace and drop entries under
    # them; a reader whose snapshot still sees a dropped entry must not
    # hold its text again, and the byte count must match what is held.
    db, cache = make_cache(capacity_bytes=10_000_000)
    boxes = [Box((0, 0, 0), (32, 32, 32)), Box((32, 0, 0), (64, 32, 32))]
    for box in boxes:
        with db.transaction() as txn:
            cache.store(txn, *_ARGS, 0, box, 5.0, *_three_chunk_points(box))
    stop = threading.Event()
    errors = []

    def reader(box):
        while not stop.is_set():
            with db.transaction() as txn:
                lookup = cache.lookup(txn, *_ARGS, 0, box, 5.0, text=True)
            if lookup.hit and len(lookup.text) != len(lookup.values):
                errors.append("misaligned text")

    def writer(box):
        for step in range(40):
            try:
                if step % 10 == 9:
                    cache.drop_timestep(*_ARGS, 0)
                    continue
                with db.transaction() as txn:
                    stale = cache.lookup(txn, *_ARGS, 0, box, 4.0)
                    cache.store(
                        txn, *_ARGS, 0, box, 4.0 if step % 2 else 5.0,
                        *_three_chunk_points(box), replace_ordinal=stale.stale_ordinal,
                    )
            except SerializationConflictError:
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(box,)) for box in boxes * 2]
        threads += [threading.Thread(target=writer, args=(box,)) for box in boxes]
        for thread in threads:
            thread.start()
        for thread in threads[4:]:
            thread.join(timeout=60)
        stop.set()
        for thread in threads[:4]:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and errors == []
    with db.transaction() as txn:
        live = {row["ordinal"] for row in db.table("cacheInfo").scan(txn)}
    assert set(cache._text) <= live
    assert cache.stats.snapshot()["text_bytes"] == sum(
        text.nbytes for chunks in cache._text.values() for text in chunks.values()
    )
