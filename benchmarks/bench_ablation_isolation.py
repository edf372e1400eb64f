"""Ablation: snapshot isolation vs table locking for the cache tables.

"Snapshot isolation allows us to avoid locking the tables that serve as
the cache ... provides for a higher degree of parallelism and avoids any
potential deadlocks" (paper §4).  Under snapshot isolation a reader hits
the cache *while* a refresh transaction is rewriting the same entry; a
lock-based design would stall the reader for the refresh's full
evaluation time.  The refresh itself detects the write-write conflict
(first-updater-wins) instead of deadlocking.
"""

import numpy as np
import pytest

from repro.core import ThresholdQuery
from repro.grid import Box
from repro.harness.common import ExperimentReport, threshold_levels
from repro.morton import encode_array
from repro.storage import SerializationConflictError


@pytest.fixture(scope="module")
def report(config, save_report):
    dataset, mediator = config.make_cluster()
    levels = threshold_levels(dataset, "vorticity", 0)
    query = ThresholdQuery("mhd", "vorticity", 0, levels["medium"])

    # Populate the cache, then measure (a) an uncontended hit, (b) a hit
    # racing an open refresh transaction on the same node.
    mediator.drop_page_caches()
    miss = mediator.threshold(query, processes=config.processes)
    mediator.drop_page_caches()
    uncontended = mediator.threshold(query, processes=config.processes)
    assert uncontended.cache_hits == len(mediator.nodes)

    # Open a refresh on node 0's entry and leave it uncommitted.
    node = mediator.nodes[0]
    cache = mediator.caches[0]
    box = mediator.partitioner.query_boxes(0, Box.cube(dataset.spec.side))[0]
    writer = node.db.begin()
    z = encode_array(
        np.array([box.lo[0]]), np.array([box.lo[1]]), np.array([box.lo[2]])
    )
    entry = cache.lookup(
        writer, "mhd", "vorticity", 0, box, levels["low"]
    )
    cache.store(
        writer, "mhd", "vorticity", 0, box, levels["low"],
        z, np.array([99.0]), replace_ordinal=entry.stale_ordinal,
    )

    # The concurrent reader still hits the (old) committed entry.
    mediator.drop_page_caches()
    contended = mediator.threshold(query, processes=config.processes)
    assert contended.cache_hits == len(mediator.nodes)
    writer.abort()

    lock_based_estimate = miss.elapsed + uncontended.elapsed
    rows = [
        ["cache hit, no concurrent writer", uncontended.elapsed],
        ["cache hit during a concurrent refresh (snapshot isolation)",
         contended.elapsed],
        ["same, under table locking (reader waits out the refresh)",
         lock_based_estimate],
    ]
    out = ExperimentReport(
        title="Ablation -- cache-table isolation (simulated seconds)",
        columns=[("scenario", str), ("reader latency", "{:.2f}".format)],
        rows=rows,
        notes=[
            "under locking the reader blocks for the refresh's full "
            "raw-data evaluation; under snapshot isolation it reads the "
            "previous committed entry immediately",
        ],
    )
    save_report("ablation_isolation", out)
    return out


def test_snapshot_isolation_reader_never_blocks(report):
    uncontended, contended, _ = report.column("reader latency")
    assert contended <= uncontended * 1.1


def test_locking_would_be_orders_slower(report):
    _, contended, locked = report.column("reader latency")
    assert locked / contended > 10


def test_conflicting_refreshes_fail_fast_not_deadlock(config):
    """Two concurrent refreshes of one stale entry: first-updater-wins."""
    dataset, mediator = config.make_cluster()
    node = mediator.nodes[0]
    cache = mediator.caches[0]
    box = mediator.partitioner.query_boxes(0, Box.cube(dataset.spec.side))[0]
    z = encode_array(np.array([0]), np.array([0]), np.array([0]))

    with node.db.transaction() as setup:
        stale = cache.store(
            setup, "mhd", "vorticity", 3, box, 5.0, z, np.array([6.0])
        )

    first = node.db.begin()
    cache.store(
        first, "mhd", "vorticity", 3, box, 1.0, z, np.array([6.0]),
        replace_ordinal=stale,
    )
    second = node.db.begin()
    with pytest.raises(SerializationConflictError):
        # Both refreshes replace the same stale cacheInfo row; the second
        # deleter collides with the first's uncommitted delete instead of
        # deadlocking.
        cache.store(
            second, "mhd", "vorticity", 3, box, 1.0, z, np.array([6.0]),
            replace_ordinal=stale,
        )
    first.commit()
    second.abort()
