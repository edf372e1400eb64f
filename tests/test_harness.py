"""Tests for the experiment harness plumbing (small, fast configs)."""

import importlib.util
import re
from pathlib import Path

import pytest

from repro.costmodel import paper_scale_spec
from repro.harness.common import (
    PAPER_FRACTIONS,
    ExperimentConfig,
    ExperimentReport,
    fmt,
    ground_truth_norm,
    threshold_levels,
)
from repro.simulation import mhd_dataset


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(side=32, timesteps=2)


class TestExperimentConfig:
    def test_default_spec_is_paper_scaled(self, tiny_config):
        assert tiny_config.spec.hdd.stream_mib_s == pytest.approx(
            paper_scale_spec(32).hdd.stream_mib_s
        )

    def test_paper_scale_factor(self, tiny_config):
        assert tiny_config.paper_scale_factor == (1024 / 32) ** 3

    def test_make_cluster_is_sequential(self, tiny_config):
        _, mediator = tiny_config.make_cluster()
        assert mediator.sequential_scatter

    def test_explicit_spec_respected(self):
        from repro.costmodel import paper_cluster

        config = ExperimentConfig(side=32, timesteps=2, spec=paper_cluster())
        assert config.spec.hdd.stream_mib_s == 25.0


class TestThresholdLevels:
    def test_levels_ordered(self, tiny_config):
        dataset = tiny_config.make_dataset()
        levels = threshold_levels(dataset, "vorticity", 0)
        assert levels["high"] > levels["medium"] > levels["low"]

    def test_levels_match_fractions(self, tiny_config):
        import numpy as np

        dataset = tiny_config.make_dataset()
        norm = ground_truth_norm(dataset, "vorticity", 0)
        levels = threshold_levels(dataset, "vorticity", 0)
        for name, fraction in PAPER_FRACTIONS.items():
            measured = float(np.mean(norm >= levels[name]))
            assert measured <= max(4 * fraction, 4 / norm.size)

    def test_ground_truth_all_fields(self, tiny_config):
        dataset = tiny_config.make_dataset()
        for field in (
            "vorticity", "q_criterion", "electric_current",
            "magnetic", "velocity", "pressure",
        ):
            norm = ground_truth_norm(dataset, field, 0)
            assert norm.shape == (32, 32, 32)
            assert (norm >= 0).all()

    def test_unknown_field_rejected(self, tiny_config):
        with pytest.raises(ValueError):
            ground_truth_norm(tiny_config.make_dataset(), "enstrophy", 0)


class TestExperimentReport:
    def test_renders_table(self):
        report = ExperimentReport(
            "Demo", ["a", "b"], [[1, "x"], [22, "yy"]], notes=["n1"]
        )
        text = str(report)
        assert "Demo" in text
        assert "note: n1" in text
        assert text.count("\n") >= 5

    def test_row_dict(self):
        report = ExperimentReport("t", ["k", "v"], [["x", 1], ["y", 2]])
        assert report.row_dict()["y"] == ["y", 2]


class TestFmt:
    def test_ranges(self):
        assert fmt(7200) == "2.0 h"
        assert fmt(150) == "150 s"
        assert fmt(2.5) == "2.5 s"
        assert fmt(0.05) == "50 ms"


class TestSmallExperimentRuns:
    """Each harness experiment runs end-to-end on a tiny grid."""

    def test_fig2(self, tiny_config):
        from repro.harness import fig2_pdf

        report = fig2_pdf.run(tiny_config)
        assert sum(row[1] for row in report.rows) == 32**3

    def test_table1(self, tiny_config):
        from repro.harness import table1_fig6

        report = table1_fig6.run(tiny_config)
        assert len(report.rows) == 3
        for row in report.rows:
            assert float(row[4]) / float(row[5]) > 5  # miss/hit

    def test_local_vs_integrated(self, tiny_config):
        from repro.harness import local_vs_integrated

        report = local_vs_integrated.run(tiny_config)
        assert len(report.rows) == 3

    def test_fig3_fig4(self, tiny_config):
        from repro.harness import fig3_fig4

        report = fig3_fig4.run(tiny_config)
        assert any(row[0] == "points above threshold" for row in report.rows)

    def test_fig8(self, tiny_config):
        from repro.harness import fig8

        report = fig8.run(tiny_config)
        assert [row[0] for row in report.rows] == [1, 2, 4, 8]
        totals = [float(row[1]) for row in report.rows]
        assert totals == sorted(totals, reverse=True)  # more procs, faster

    def test_fig9(self, tiny_config):
        from repro.harness import fig9

        report = fig9.run(tiny_config)
        assert len(report.rows) == 18  # 3 fields x 3 levels x {miss, hit}
        by_key = {(r[0], r[1], r[2]): r for r in report.rows}
        q_compute = float(by_key[("q_criterion", "medium", "miss")][6])
        v_compute = float(by_key[("vorticity", "medium", "miss")][6])
        assert q_compute > v_compute

    def test_fig7_scaleout_small(self):
        from repro.harness import fig7

        config = ExperimentConfig(side=32, timesteps=1)
        report = fig7.run_scaleout(config)
        speedups = [float(row[2].rstrip("x")) for row in report.rows]
        assert speedups[0] == 1.0
        assert speedups[-1] > 4.0  # 8 nodes, near-linear even at 32^3


def test_the_design_index_names_what_exists():
    """DESIGN §3's per-experiment index, the table a reader opens first:
    every backticked module resolves under ``repro`` and every
    ``benchmarks/`` target is a file."""
    root = Path(__file__).resolve().parents[1]
    design = (root / "DESIGN.md").read_text()
    index = design.split("\n## 3. ", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in index.splitlines() if line.startswith("| ")]
    modules, targets = set(), set()
    for row in rows[1:]:  # the header row names no module
        cells = row.split("|")
        modules.update(re.findall(r"`([^`]+)`", cells[4]))
        targets.update(re.findall(r"`([^`]+)`", cells[5]))
    assert len(modules) > 10 and len(targets) > 5
    for module in sorted(modules):
        assert importlib.util.find_spec(f"repro.{module}"), module
    for target in sorted(targets):
        assert target.startswith("benchmarks/"), target
        assert (root / target).is_file(), target
