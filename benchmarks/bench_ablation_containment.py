"""Ablation: spatial containment in the semantic cache.

A cached full-region entry answers any query over a *contained* region
("as long as they are within the same region and specify the same or
higher threshold", paper §4).  This bench quantifies the win: after one
full-timestep query, a follow-up over a sub-box — the typical "zoom in
on the interesting corner" interaction — costs only a filtered cache
read instead of a fresh raw-data evaluation of that sub-box.
"""

import pytest

from repro.core import ThresholdQuery
from repro.costmodel import Category
from repro.grid import Box
from repro.harness.common import ExperimentReport, threshold_levels


@pytest.fixture(scope="module")
def report(config, save_report):
    dataset, mediator = config.make_cluster()
    threshold = threshold_levels(dataset, "vorticity", 0)["low"]
    side = dataset.spec.side
    sub = Box((side // 4,) * 3, (3 * side // 4,) * 3)  # centre eighth

    # Warm the cache with the full-timestep query.
    full_query = ThresholdQuery("mhd", "vorticity", 0, threshold)
    mediator.drop_page_caches()
    full = mediator.threshold(full_query, processes=config.processes)

    # Zoom in: answered from the containing entry.
    sub_query = ThresholdQuery("mhd", "vorticity", 0, threshold, box=sub)
    mediator.drop_page_caches()
    contained = mediator.threshold(sub_query, processes=config.processes)
    assert contained.cache_hits == len(mediator.nodes)

    # The same zoom without the cache: fresh sub-box evaluation.
    mediator.drop_page_caches()
    recomputed = mediator.threshold(
        sub_query, processes=config.processes, use_cache=False
    )

    rows = [
        [query, result.elapsed, result.ledger[Category.IO], len(result)]
        for query, result in (
            ("full-timestep query (warms cache)", full),
            ("sub-box query via containment hit", contained),
            ("sub-box query recomputed from raw", recomputed),
        )
    ]
    out = ExperimentReport(
        title="Ablation -- spatial containment (zoom-in after a "
        "full-timestep query, simulated seconds)",
        # A sub-second total keeps a third decimal.
        columns=[("query", str),
                 ("total", lambda s: f"{s:.3f}" if s < 1 else f"{s:.2f}"),
                 ("I/O", "{:.2f}".format), ("points", str)],
        rows=rows,
        notes=[
            "the contained query reads only cacheData; recomputation "
            "re-reads and re-derives the sub-box",
        ],
    )
    save_report("ablation_containment", out)
    return out


def test_containment_answers_identically(report):
    _, contained, recomputed = report.column("points")
    assert contained == recomputed


def test_containment_much_faster_than_recompute(report):
    _, contained, recomputed = report.column("total")
    assert recomputed / contained > 5


def test_containment_does_no_raw_io(report):
    _, contained, recomputed = report.column("I/O")
    assert contained == 0.0
    assert recomputed > 0.0
