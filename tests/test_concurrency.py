"""Concurrency tests: parallel clients against one cluster.

The production service handles many users at once; snapshot isolation on
the cache tables is what keeps concurrent threshold queries from
corrupting or blocking each other (paper §4).  These tests run real
client threads against a shared cluster (``mhd_cluster``).  The
concurrency under test is between clients: each query runs its own node
parts one after another on its client's thread, so two clients' parts
interleave on the nodes.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core import ThresholdQuery
from tests.test_core_threshold import ground_truth_norm


class TestConcurrentQueries:
    def test_parallel_identical_queries_agree(self, small_mhd, mhd_cluster):
        norm = ground_truth_norm(small_mhd, "vorticity", 0)
        threshold = float(np.quantile(norm, 0.99))
        query = ThresholdQuery("mhd", "vorticity", 0, threshold)
        expected = int((norm >= threshold).sum())

        def run(_):
            return mhd_cluster.threshold(query)

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(run, range(6)))
        for result in results:
            assert len(result) == expected
        reference = results[0]
        for result in results[1:]:
            assert np.array_equal(result.zindexes, reference.zindexes)

    def test_parallel_distinct_queries(self, small_mhd, mhd_cluster):
        levels = {
            t: float(
                np.quantile(ground_truth_norm(small_mhd, "vorticity", t), 0.99)
            )
            for t in range(2)
        }
        queries = [
            ThresholdQuery("mhd", "vorticity", t, levels[t] * scale)
            for t in range(2)
            for scale in (1.0, 1.1, 1.2)
        ]

        def run(query):
            return query, mhd_cluster.threshold(query)

        with ThreadPoolExecutor(max_workers=6) as pool:
            outcomes = list(pool.map(run, queries))
        for query, result in outcomes:
            norm = ground_truth_norm(small_mhd, "vorticity", query.timestep)
            assert len(result) == int((norm >= query.threshold).sum())

    def test_concurrent_mixed_fields_and_caches(self, small_mhd, mhd_cluster):
        """Readers and refreshers race; every result stays correct."""
        vort = ground_truth_norm(small_mhd, "vorticity", 0)
        magnetic = ground_truth_norm(small_mhd, "magnetic", 0)
        jobs = []
        for _ in range(3):
            jobs.append(
                ThresholdQuery("mhd", "vorticity", 0, float(np.quantile(vort, 0.995)))
            )
            jobs.append(
                ThresholdQuery("mhd", "magnetic", 0, float(np.quantile(magnetic, 0.995)))
            )
            # A lower threshold forces cache refreshes mid-flight.
            jobs.append(
                ThresholdQuery("mhd", "vorticity", 0, float(np.quantile(vort, 0.98)))
            )

        errors = []

        def run(query):
            try:
                result = mhd_cluster.threshold(query)
                norm = vort if query.field == "vorticity" else magnetic
                assert len(result) == int((norm >= query.threshold).sum())
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=run, args=(q,)) for q in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_ledgers_do_not_cross_contaminate(self, small_mhd, mhd_cluster):
        """Two concurrent queries each account a plausible, full cost."""
        query0 = ThresholdQuery("mhd", "vorticity", 0, 3.0)
        query1 = ThresholdQuery("mhd", "vorticity", 1, 3.0)
        mhd_cluster.drop_page_caches()

        with ThreadPoolExecutor(max_workers=2) as pool:
            f0 = pool.submit(
                mhd_cluster.threshold, query0, 1, False
            )
            f1 = pool.submit(
                mhd_cluster.threshold, query1, 1, False
            )
            r0, r1 = f0.result(), f1.result()
        from repro.costmodel.ledger import METER_IO_BYTES

        data_bytes = 32**3 * 12  # one timestep of velocity
        for result in (r0, r1):
            # Each query reads at least its interior share.
            assert result.ledger.meter(METER_IO_BYTES) >= 0.9 * data_bytes
