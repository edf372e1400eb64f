"""Ablation: LRU vs FIFO replacement under a structured workload.

"We use a least recently used cache replacement policy ... space is
freed up by removing the least recently used data across all quantities"
(paper §4), and §5.2 notes the workload is structured: scientists return
to the same hot timesteps again and again while sweeping others.  Under
such re-reference patterns LRU keeps the hot entries alive; FIFO evicts
them on schedule regardless of use.
"""

import numpy as np
import pytest

from repro.core.cache import SemanticCache
from repro.costmodel import Category
from repro.costmodel.devices import HddArraySpec, SsdSpec
from repro.grid import Box
from repro.harness.common import ExperimentReport
from repro.morton import encode_array
from repro.storage import Database, StorageDevice

BOX = Box.cube(16)
POINTS_PER_ENTRY = 40
RECORD_BYTES = 20
#: Budget for 3 entries; the workload cycles over 6 cold + 1 hot timestep.
CAPACITY = 3 * POINTS_PER_ENTRY * RECORD_BYTES


def entry_points(timestep):
    rng = np.random.default_rng(timestep)
    xs = rng.integers(0, 16, POINTS_PER_ENTRY * 2)
    ys = rng.integers(0, 16, POINTS_PER_ENTRY * 2)
    zs = rng.integers(0, 16, POINTS_PER_ENTRY * 2)
    z = np.unique(encode_array(xs, ys, zs))[:POINTS_PER_ENTRY]
    return z, np.linspace(5.0, 10.0, len(z))


def run_workload(policy: str) -> tuple[int, int]:
    """A structured workload: hot timestep 0 re-referenced every step."""
    db = Database()
    db.add_device(StorageDevice("hdd", HddArraySpec(), Category.IO))
    db.add_device(StorageDevice("ssd", SsdSpec(), Category.CACHE_LOOKUP))
    cache = SemanticCache(
        db, capacity_bytes=CAPACITY, point_record_bytes=RECORD_BYTES,
        policy=policy,
    )
    hits = misses = 0
    sweep = [1, 2, 3, 4, 5, 6] * 3  # cold timesteps cycled
    for cold_timestep in sweep:
        for timestep in (0, cold_timestep):  # hot entry touched each round
            with db.transaction() as txn:
                lookup = cache.lookup(
                    txn, "mhd", "vorticity", timestep, BOX, 5.0
                )
                if lookup.hit:
                    hits += 1
                else:
                    misses += 1
                    z, values = entry_points(timestep)
                    cache.store(
                        txn, "mhd", "vorticity", timestep, BOX, 5.0, z, values
                    )
    return hits, misses


@pytest.fixture(scope="module")
def report(save_report):
    rows = []
    for policy in ("lru", "fifo"):
        hits, misses = run_workload(policy)
        rows.append([policy, hits, misses, hits / (hits + misses)])
    out = ExperimentReport(
        title="Ablation -- cache replacement policy under a structured "
        "workload (hot timestep re-referenced between sweeps)",
        columns=[("policy", str), ("hits", str), ("misses", str),
                 ("hit ratio", "{:.0%}".format)],
        rows=rows,
        notes=[
            "LRU keeps the re-referenced entry resident; FIFO evicts it "
            "on schedule (paper uses LRU, Sec. 4)",
        ],
    )
    save_report("ablation_replacement", out)
    return out


def test_lru_beats_fifo_on_structured_reuse(report):
    by_policy = report.row_dict()
    lru_hits, fifo_hits = by_policy["lru"][1], by_policy["fifo"][1]
    assert lru_hits > fifo_hits


def test_lru_keeps_hot_entry_alive(report):
    assert report.row_dict()["lru"][3] >= 0.4
