"""Ablation: cache tables on SSD vs on the HDD arrays.

The paper places each node's cache tables on local SSDs (Fig. 5) so that
"the time taken to perform a cache lookup is relatively small even in
the case of a cache hit" (§5.4).  This bench re-homes the cache on an
HDD-class device and measures what hits would cost.
"""

import dataclasses

import pytest

from repro.core import ThresholdQuery
from repro.costmodel import Category
from repro.costmodel.devices import SsdSpec
from repro.harness.common import ExperimentReport, threshold_levels


def _hit_time(config, spec):
    dataset, mediator = config.make_cluster(spec=spec)
    threshold = threshold_levels(dataset, "vorticity", 0)["low"]
    query = ThresholdQuery("mhd", "vorticity", 0, threshold)
    mediator.threshold(query, processes=config.processes)  # warm
    mediator.drop_page_caches()
    hit = mediator.threshold(query, processes=config.processes)
    assert hit.cache_hits == len(mediator.nodes)
    return hit


@pytest.fixture(scope="module")
def report(config, save_report):
    ssd_hit = _hit_time(config, config.spec)

    hdd_class = dataclasses.replace(
        config.spec,
        ssd=SsdSpec(
            read_mib_s=config.spec.hdd.stream_mib_s,
            write_mib_s=config.spec.hdd.stream_mib_s,
            latency_s=config.spec.hdd.seek_s,
        ),
    )
    hdd_hit = _hit_time(config, hdd_class)

    rows = [
        ["cache on SSD (paper)", ssd_hit.elapsed,
         ssd_hit.ledger[Category.CACHE_LOOKUP]],
        ["cache on HDD arrays", hdd_hit.elapsed,
         hdd_hit.ledger[Category.CACHE_LOOKUP]],
    ]
    out = ExperimentReport(
        title="Ablation -- cache device (low threshold, cache hit, "
        "simulated seconds)",
        columns=[("placement", str), ("hit total", "{:.2f}".format),
                 ("cache lookup", "{:.3f}".format)],
        rows=rows,
        notes=["SSD keeps the lookup negligible even for large entries"],
    )
    save_report("ablation_cache_device", out)
    return out


def test_hdd_lookup_costs_more(report):
    ssd_lookup, hdd_lookup = report.column("cache lookup")
    assert hdd_lookup > 3 * ssd_lookup


def test_ssd_hit_total_faster(report):
    ssd_total, hdd_total = report.column("hit total")
    assert ssd_total < hdd_total
