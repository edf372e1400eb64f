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
                result.ledger.meter(METER_HALO_BYTES) / 2**20,
                result.ledger[Category.IO],
                result.elapsed,
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
            raw.ledger.meter(METER_HALO_BYTES) / 2**20,
            raw.ledger[Category.IO],
            raw.elapsed,
        ]
    )

    out = ExperimentReport(
        title="Ablation -- kernel halo vs atom granularity "
        "(medium threshold, cold cache)",
        columns=[("kernel", str), ("half-width", str),
                 ("halo MiB", "{:.2f}".format), ("I/O s", "{:.1f}".format),
                 ("total s", "{:.1f}".format)],
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
    halo = report.column("halo MiB")[:-1]
    assert max(halo) == min(halo)
    assert halo[0] > 0


def test_raw_field_needs_no_halo(report):
    assert report.column("halo MiB")[-1] == 0.0


@pytest.mark.xfail(
    strict=True,
    reason="modelling artefact (ROADMAP, oracle item): the raw field's "
    "halo-less slabs each start on a cold page, so the four nodes pay "
    "32 seeks where vorticity's overlapping slabs pay 4; 28 seeks cost "
    "more than the 0.1215 s of halo transfer vorticity is charged "
    "(I/O 102.464 s against 102.438 s)",
)
def test_raw_field_io_not_higher(report):
    io = report.column("I/O s")
    assert io[-1] <= io[0]
