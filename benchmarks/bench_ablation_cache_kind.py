"""Ablation: query-result caching vs data-only caching (the tree cache).

The paper's §6 argues that caching *query results* beats the tree
cache's raw-data caching because "caching query results preserves the
computational effort in addition to reducing I/O".  A data-only cache is
exactly what a warm buffer pool gives: the second evaluation reads
nothing from disk but still runs the kernel at every grid point.  This
bench measures all three regimes.
"""

import pytest

from repro.core import ThresholdQuery
from repro.costmodel import Category
from repro.harness.common import ExperimentReport, threshold_levels


@pytest.fixture(scope="module")
def report(config, save_report):
    dataset, mediator = config.make_cluster(buffer_pages=4096)
    threshold = threshold_levels(dataset, "vorticity", 0)["medium"]
    query = ThresholdQuery("mhd", "vorticity", 0, threshold)

    # Cold: nothing cached anywhere.
    mediator.drop_page_caches()
    cold = mediator.threshold(query, processes=config.processes,
                              use_cache=False)

    # Data cache: buffer pools warm (tree-cache analogue), recompute.
    # Only the boundary exchange's network time remains in the I/O phase.
    data_cached = mediator.threshold(query, processes=config.processes,
                                     use_cache=False)
    assert data_cached.ledger[Category.IO] < 0.05 * cold.ledger[Category.IO]

    # Result cache: semantic-cache hit.
    mediator.threshold(query, processes=config.processes)  # populate
    mediator.drop_page_caches()
    result_cached = mediator.threshold(query, processes=config.processes)
    assert result_cached.cache_hits == len(mediator.nodes)

    rows = [
        [strategy, result.elapsed, result.ledger[Category.IO],
         result.ledger[Category.COMPUTE]]
        for strategy, result in (
            ("cold (no caching)", cold),
            ("data cache (tree-cache analogue)", data_cached),
            ("query-result cache (this paper)", result_cached),
        )
    ]
    out = ExperimentReport(
        title="Ablation -- what gets cached (medium threshold, simulated s)",
        columns=[("strategy", str), ("total", "{:.2f}".format),
                 ("I/O", "{:.2f}".format), ("compute", "{:.2f}".format)],
        rows=rows,
        notes=[
            "a data cache removes I/O but re-runs the kernel at every "
            "grid point; caching results removes both (paper Sec. 6)",
        ],
    )
    save_report("ablation_cache_kind", out)
    return out


def test_data_cache_still_pays_compute(report):
    _, data_compute, result_compute = report.column("compute")
    assert data_compute > 0
    assert result_compute == 0.0


def test_result_cache_beats_data_cache(report):
    cold, data, result = report.column("total")
    assert result < data < cold
    assert data / result > 5  # preserved computation is the big win
