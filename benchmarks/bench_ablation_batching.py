"""Ablation: batched same-source queries vs back-to-back evaluation.

Different derived fields of the same raw source (vorticity and the Q-
and R-invariants all derive from the velocity) can share one scan: the
atoms are read once and every kernel runs on the same in-memory block
(the batch-processing direction of paper §2/§7).  With I/O roughly half
of a cold query (Fig. 8), batching k fields saves nearly the whole I/O
cost of k-1 of them.
"""

import pytest

from repro.core import ThresholdQuery
from repro.costmodel import Category
from repro.harness.common import ExperimentReport, threshold_levels


@pytest.fixture(scope="module")
def report(config, save_report):
    dataset, mediator = config.make_cluster()
    queries = [
        ThresholdQuery("mhd", field, 0,
                       threshold_levels(dataset, field, 0)["medium"])
        for field in ("vorticity", "q_criterion", "r_invariant")
    ]

    sequential_total = 0.0
    sequential_io = 0.0
    for query in queries:
        mediator.drop_page_caches()
        result = mediator.threshold(
            query, processes=config.processes, use_cache=False
        )
        sequential_total += result.elapsed
        sequential_io += result.ledger[Category.IO]

    mediator.drop_page_caches()
    batch = mediator.batch_threshold(
        queries, processes=config.processes, use_cache=False
    )

    rows = [
        ["three sequential queries", sequential_total, sequential_io],
        ["one batched query (shared scan)", batch.ledger.total,
         batch.ledger[Category.IO]],
        ["saving", f"{1 - batch.ledger.total / sequential_total:.0%}", ""],
    ]
    out = ExperimentReport(
        title="Ablation -- batched vs sequential same-source queries "
        "(vorticity + Q + R, cold cache, simulated seconds)",
        columns=[("strategy", str), ("total", "{:.1f}".format),
                 ("I/O", "{:.1f}".format)],
        rows=rows,
        notes=["the batch reads the velocity atoms once instead of thrice"],
    )
    save_report("ablation_batching", out)
    return out


def test_batch_does_one_third_of_the_io(report):
    sequential_io, batch_io = report.column("I/O")[:2]
    assert batch_io < 0.45 * sequential_io


def test_batch_saves_at_least_a_quarter(report):
    sequential, batched = report.column("total")[:2]
    assert batched < 0.75 * sequential
