"""One end-to-end scientific workflow exercising every subsystem.

Mirrors how a scientist actually uses the service (paper §3): examine
the value distribution, threshold at an interesting level, cluster the
events, and batch follow-up queries — all against one live cluster,
verifying state and results at every step.
"""

import numpy as np
import pytest

from repro import (
    PdfQuery,
    ThresholdQuery,
    TopKQuery,
    TurbulenceClient,
    build_cluster,
    friends_of_friends_4d,
    mhd_dataset,
)
from repro.costmodel import Category
from repro.harness.common import ground_truth_norm


@pytest.fixture(scope="module")
def workflow():
    dataset = mhd_dataset(side=32, timesteps=3, seed=42)
    mediator = build_cluster(dataset, nodes=4)
    return dataset, mediator


def test_full_scientific_workflow(workflow):
    dataset, mediator = workflow
    client = TurbulenceClient(mediator)
    side = dataset.spec.side

    # 1. Examine the distribution to pick a threshold (paper Fig. 2).
    pdf = client.get_pdf(
        "mhd", "vorticity", 0, tuple(np.linspace(0, 40, 11))
    )
    assert pdf.total_points == side**3
    cumulative = np.cumsum(pdf.counts[::-1])[::-1]
    threshold = float(
        pdf.bin_edges[int(np.argmax(cumulative <= 500))]
    )

    # 2. Threshold every timestep; verify each against ground truth.
    per_step = []
    for timestep in range(dataset.spec.timesteps):
        result = client.get_threshold("mhd", "vorticity", timestep, threshold)
        norm = ground_truth_norm(dataset, "vorticity", timestep)
        assert len(result) == (norm >= threshold).sum()
        per_step.append(result)

    # 3. Cluster events across time (paper Fig. 3).
    stacked_t = np.concatenate(
        [np.full(len(r), t) for t, r in enumerate(per_step) if len(r)]
    )
    stacked_xyz = np.concatenate(
        [r.coordinates() for r in per_step if len(r)]
    )
    stacked_val = np.concatenate([r.values for r in per_step if len(r)])
    clusters = friends_of_friends_4d(
        stacked_t, stacked_xyz, stacked_val, side, linking_length=2, min_size=2
    )
    assert clusters

    # 4. Re-issuing a query is a cache hit with no raw I/O.
    mediator.drop_page_caches()
    warm = client.get_threshold("mhd", "vorticity", 0, threshold)
    assert warm.cache_hits == len(mediator.nodes)
    assert warm.ledger[Category.IO] == 0.0

    # 5. A higher-threshold follow-up is dominated by the cache too.
    tighter = client.get_threshold("mhd", "vorticity", 0, threshold * 1.3)
    assert tighter.cache_hits == len(mediator.nodes)
    norm0 = ground_truth_norm(dataset, "vorticity", 0)
    assert len(tighter) == (norm0 >= threshold * 1.3).sum()

    # 6. Batch two velocity-derived queries over one shared scan.
    q_norm = ground_truth_norm(dataset, "q_criterion", 0)
    batch = mediator.batch_threshold(
        [
            ThresholdQuery("mhd", "vorticity", 0, threshold),
            ThresholdQuery(
                "mhd", "q_criterion", 0, float(np.quantile(q_norm, 0.999))
            ),
        ]
    )
    assert len(batch.results[0]) == (norm0 >= threshold).sum()

    # 7. The PDF is now cached as well.
    mediator.drop_page_caches()
    pdf_again = client.get_pdf(
        "mhd", "vorticity", 0, tuple(np.linspace(0, 40, 11))
    )
    assert np.array_equal(pdf_again.counts, pdf.counts)
    assert pdf_again.ledger[Category.IO] == 0.0
