"""Tests for the PDF-result cache extension."""

import numpy as np
import pytest

from repro.core import PdfQuery
from repro.core.pdfcache import PdfCache
from repro.costmodel import Category
from repro.costmodel.devices import SsdSpec
from repro.storage import Database, StorageDevice


def make_host():
    db = Database()
    db.add_device(StorageDevice("ssd", SsdSpec(), Category.CACHE_LOOKUP))
    return db


class TestPdfCacheUnit:
    def test_miss_on_empty(self):
        db = make_host()
        cache = PdfCache(db)
        with db.transaction() as txn:
            assert cache.lookup(txn, "mhd", "vorticity", 0, 4, (0.0, 1.0)) is None

    def test_store_and_hit(self):
        db = make_host()
        cache = PdfCache(db)
        counts = np.array([10, 20, 5], dtype=np.int64)
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, 4, (0.0, 1.0, 2.0), counts)
        with db.transaction() as txn:
            got = cache.lookup(txn, "mhd", "vorticity", 0, 4, (0.0, 1.0, 2.0))
        assert np.array_equal(got, counts)

    def test_edges_must_match_exactly(self):
        db = make_host()
        cache = PdfCache(db)
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, 4, (0.0, 1.0),
                        np.array([1], np.int64))
        with db.transaction() as txn:
            assert cache.lookup(txn, "mhd", "vorticity", 0, 4, (0.0, 2.0)) is None

    def test_fd_order_part_of_key(self):
        db = make_host()
        cache = PdfCache(db)
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, 4, (0.0, 1.0),
                        np.array([1], np.int64))
        with db.transaction() as txn:
            assert cache.lookup(txn, "mhd", "vorticity", 0, 8, (0.0, 1.0)) is None

    def test_share_part_of_key(self):
        # One replica answers for two shards' shares of the same query.
        db = make_host()
        cache = PdfCache(db)
        with db.transaction() as txn:
            cache.store(txn, "mhd", "vorticity", 0, 4, (0.0, 1.0),
                        np.array([1], np.int64), share=b"shard0")
        with db.transaction() as txn:
            assert cache.lookup(
                txn, "mhd", "vorticity", 0, 4, (0.0, 1.0), share=b"shard1"
            ) is None
            assert cache.lookup(
                txn, "mhd", "vorticity", 0, 4, (0.0, 1.0), share=b"shard0"
            ) is not None

    def test_lru_eviction_at_capacity(self):
        db = make_host()
        cache = PdfCache(db, max_entries=2)
        with db.transaction() as txn:
            for t in range(3):
                cache.store(txn, "mhd", "vorticity", t, 4, (0.0, 1.0),
                            np.array([t], np.int64))
        with db.transaction() as txn:
            assert cache.entry_count(txn) == 2
            assert cache.lookup(txn, "mhd", "vorticity", 0, 4, (0.0, 1.0)) is None
            assert cache.lookup(txn, "mhd", "vorticity", 2, 4, (0.0, 1.0)) is not None

    def test_clear(self):
        db = make_host()
        cache = PdfCache(db)
        with db.transaction() as txn:
            cache.store(txn, "m", "f", 0, 4, (0.0, 1.0), np.array([1], np.int64))
        assert cache.clear() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PdfCache(make_host(), max_entries=0)


class TestPdfCacheIntegration:
    def test_second_pdf_query_hits(self, mhd_cluster):
        query = PdfQuery("mhd", "vorticity", 0, (0.0, 2.0, 4.0, 8.0))
        mhd_cluster.drop_page_caches()
        cold = mhd_cluster.pdf(query)
        mhd_cluster.drop_page_caches()
        warm = mhd_cluster.pdf(query)
        assert np.array_equal(cold.counts, warm.counts)
        assert warm.ledger[Category.IO] == 0.0
        assert warm.ledger[Category.COMPUTE] == 0.0
        assert warm.ledger.total < cold.ledger.total

    def test_different_edges_miss(self, mhd_cluster):
        mhd_cluster.pdf(PdfQuery("mhd", "vorticity", 1, (0.0, 2.0)))
        mhd_cluster.drop_page_caches()
        other = mhd_cluster.pdf(PdfQuery("mhd", "vorticity", 1, (0.0, 3.0)))
        assert other.ledger[Category.IO] > 0

    def test_use_cache_false_bypasses(self, mhd_cluster):
        query = PdfQuery("mhd", "magnetic", 0, (0.0, 1.0))
        mhd_cluster.pdf(query)
        mhd_cluster.drop_page_caches()
        result = mhd_cluster.pdf(query, use_cache=False)
        assert result.ledger[Category.IO] > 0

    def test_cacheless_cluster_has_no_pdf_cache(self, small_mhd):
        from repro.cluster import build_cluster

        mediator = build_cluster(small_mhd, nodes=2, cache_capacity_bytes=None)
        assert all(c is None for c in mediator.pdf_caches)
        result = mediator.pdf(PdfQuery("mhd", "vorticity", 0, (0.0, 1.0)))
        assert result.total_points == 32**3
