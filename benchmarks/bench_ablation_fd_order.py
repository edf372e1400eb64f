"""Ablation: kernel halo vs atom granularity.

The kernel half-width equals ``order / 2`` (paper Eq. 2 uses 4th order)
and sets how much boundary data a node must fetch (§4).  Storage,
however, is atom-granular: the 8^3 atoms mean *any* half-width from 1 to
8 rounds up to exactly one extra atom layer, so switching between 2nd-
and 8th-order differencing changes accuracy but not I/O — while a raw
field (single-point kernel, e.g. the magnetic field) needs no halo at
all, which is why the paper's Fig. 9(c) shows less I/O for it.
"""

import pytest

from repro.core import ThresholdQuery
from repro.costmodel import Category
from repro.costmodel.ledger import METER_HALO_BYTES
from repro.harness.common import ExperimentReport, threshold_levels

ORDERS = (2, 4, 6, 8)


@pytest.fixture(scope="module")
def report(config, save_report):
    dataset, mediator = config.make_cluster()
    levels = threshold_levels(dataset, "vorticity", 0)

    rows = []
    for order in ORDERS:
        query = ThresholdQuery("mhd", "vorticity", 0, levels["medium"],
                               fd_order=order)
        mediator.drop_cache_entries("mhd", "vorticity", 0)
        mediator.drop_page_caches()
        result = mediator.threshold(
            query, processes=config.processes, use_cache=False
        )
        rows.append(
            [
                f"vorticity, order {order}",
                order // 2,
                f"{result.ledger.meter(METER_HALO_BYTES) / 2**20:.2f}",
                f"{result.ledger[Category.IO]:.1f}",
                f"{result.elapsed:.1f}",
            ]
        )

    magnetic = threshold_levels(dataset, "magnetic", 0)["medium"]
    mediator.drop_page_caches()
    raw = mediator.threshold(
        ThresholdQuery("mhd", "magnetic", 0, magnetic),
        processes=config.processes, use_cache=False,
    )
    rows.append(
        [
            "magnetic (raw, single-point kernel)",
            0,
            f"{raw.ledger.meter(METER_HALO_BYTES) / 2**20:.2f}",
            f"{raw.ledger[Category.IO]:.1f}",
            f"{raw.elapsed:.1f}",
        ]
    )

    out = ExperimentReport(
        title="Ablation -- kernel halo vs atom granularity "
        "(medium threshold, cold cache)",
        headers=["kernel", "half-width", "halo MiB", "I/O s", "total s"],
        rows=rows,
        notes=[
            "half-widths 1-4 all round up to one 8-point atom layer, so "
            "orders 2-8 move identical halo bytes; only a single-point "
            "kernel avoids the boundary exchange entirely",
        ],
    )
    save_report("ablation_fd_order", out)
    return out


def test_halo_identical_across_orders(report):
    """Atom granularity: orders 2-8 fetch the same boundary atoms."""
    halo = [float(row[2]) for row in report.rows[:-1]]
    assert max(halo) == min(halo)
    assert halo[0] > 0


def test_raw_field_needs_no_halo(report):
    assert float(report.rows[-1][2]) == 0.0


@pytest.mark.xfail(
    strict=True,
    reason="modelling artefact (ROADMAP, oracle item): the raw field's "
    "halo-less slabs each start on a cold page, so the four nodes pay "
    "32 seeks where vorticity's overlapping slabs pay 4; 28 seeks cost "
    "more than the 0.1215 s of halo transfer vorticity is charged "
    "(I/O 102.464 s against 102.438 s)",
)
def test_raw_field_io_not_higher(report):
    derived_io = float(report.rows[0][3])
    raw_io = float(report.rows[-1][3])
    assert raw_io <= derived_io


def test_benchmark_eighth_order_query(report, benchmark, config, shared_cluster):
    dataset, mediator = shared_cluster
    threshold = threshold_levels(dataset, "vorticity", 0)["medium"]
    query = ThresholdQuery("mhd", "vorticity", 0, threshold, fd_order=8)

    def run():
        mediator.drop_page_caches()
        return mediator.threshold(query, processes=4, use_cache=False)

    result = benchmark(run)
    assert len(result) > 0
