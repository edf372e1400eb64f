"""Tests for the experiment harness plumbing (small, fast configs)."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from repro.costmodel import paper_scale_spec
from repro.harness import EXPERIMENTS
from repro.harness.common import (
    PAPER_FRACTIONS,
    ExperimentConfig,
    ExperimentReport,
    fmt,
    ground_truth_norm,
    threshold_levels,
)

ROOT = Path(__file__).resolve().parents[1]


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
            "Demo", [("a", str), ("b", "{:.1f}s".format)],
            [[1, 2.25], [22, "n/a"]], notes=["n1"],
        )
        text = str(report)
        assert "Demo" in text
        assert "note: n1" in text
        assert text.count("\n") >= 5
        # Each column's format renders a value; a str cell is a label.
        assert "22  n/a" in text and "2.2s" in text

    def test_row_dict(self):
        report = ExperimentReport("t", [("k", str), ("v", str)], [["x", 1], ["y", 2]])
        assert report.row_dict()["y"] == ["y", 2]
        assert report.column("v") == [1, 2]


class TestFmt:
    def test_ranges(self):
        assert fmt(7200) == "2.0 h"
        assert fmt(150) == "150 s"
        assert fmt(2.5) == "2.5 s"
        assert fmt(0.05) == "50 ms"


def _medium_miss(report, fieldname):
    return next(row for row in report.rows if row[:3] == [fieldname, "medium", "miss"])


#: What each row of the table must show even on a 32^3 grid.
SMALL_RUN_SHOWS = {
    "fig2_pdf": lambda r: sum(r.column("number of points")) == 32**3,
    "fig3_fig4_clusters": lambda r: r.rows[0][0] == "points above threshold",
    "table1_fig6_cache": lambda r: (
        len(r.rows) == 3 and all(miss_over_hit > 5 for miss_over_hit in r.column("hit speedup"))
    ),
    "fig7a_scaleup": lambda r: r.column("processes") == [1, 2, 4, 8]
    and r.column("medium")[0] == 1.0,
    "fig7b_scaleout": lambda r: r.column("medium")[0] == 1.0 and r.column("medium")[-1] > 4.0,
    # More processes, faster.
    "fig8_io": lambda r: r.column("processes") == [1, 2, 4, 8]
    and r.column("total") == sorted(r.column("total"), reverse=True),
    # 3 fields x 3 levels x {miss, hit}; Q computes more than vorticity.
    "fig9_breakdown": lambda r: len(r.rows) == 18
    and _medium_miss(r, "q_criterion")[6] > _medium_miss(r, "vorticity")[6],
    "local_vs_integrated": lambda r: len(r.rows) == 3,
}


class TestSmallExperimentRuns:
    """Each row of the experiment table runs end-to-end on a tiny grid."""

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_each_row_of_the_table(self, name, tiny_config):
        report = EXPERIMENTS[name].run(tiny_config)
        assert SMALL_RUN_SHOWS[name](report), report

    def test_fig2_is_the_same_when_run_twice(self, tiny_config):
        """Each run builds its own cluster, so no run warms another's pools."""
        fig2 = EXPERIMENTS["fig2_pdf"]
        assert str(fig2.run(tiny_config)) == str(fig2.run(tiny_config))


def test_the_design_index_names_what_exists():
    """DESIGN §3's per-experiment index, the table a reader opens first:
    every backticked module resolves under ``repro``, every
    ``benchmarks/`` target is a file, and the results files are the
    rows of the experiment table."""
    design = (ROOT / "DESIGN.md").read_text()
    index = design.split("\n## 3. ", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in index.splitlines() if line.startswith("| ")]
    modules, targets = set(), set()
    for row in rows[1:]:  # the header row names no module
        cells = row.split("|")
        modules.update(re.findall(r"`([^`]+)`", cells[4]))
        targets.update(re.findall(r"`([^`]+)`", cells[5]))
    assert len(modules) >= 10 and "harness.experiments" in modules
    for module in sorted(modules):
        assert importlib.util.find_spec(f"repro.{module}"), module
    for target in sorted(targets):
        assert target.startswith("benchmarks/"), target
        assert (ROOT / target).is_file(), target
    results = {Path(t).stem for t in targets if t.startswith("benchmarks/results/")}
    assert results == set(EXPERIMENTS)
    assert "benchmarks/bench_paper.py" in targets


#: Backticked names that need not exist: those the prose says are gone,
#: and one run's output directory.
GONE = {
    "benchmarks/bench_hotpath.py": "DESIGN §4c: gone with the seed cache layout",
    "examples/custom_fields.py": "DESIGN §7c: gone with fields/expressions.py",
    "examples/landmark_database.py": "DESIGN §7c: gone with core/landmarks.py",
    "repro.core.landmarks": "DESIGN §4b and §7c: future work, not reproduced",
    "repro.fields.expressions": "DESIGN §4b and §7c: future work, not reproduced",
    "repro.net.http": "DESIGN §4g: the threaded door that went",
    "tests/test_net_shm.py": "DESIGN §7c: gone with net/shm.py",
    "benchmarks/e2e/out": "not gone: the e2e runner's output, made by a run",
}


def _resolves(dotted: str) -> bool:
    """A module, or an attribute path under the longest importable module."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", ["DESIGN.md", "README.md", "EXPERIMENTS.md"])
def test_the_docs_name_what_exists(doc):
    """Every backticked ``repro.`` dotted name and every ``benchmarks/``,
    ``tests/`` or ``examples/`` path (and ``::test`` in it) resolves,
    unless the allow-list says the prose names it as gone."""
    unresolved = []
    for span in re.findall(r"(?<!`)`([^`\n]+)`(?!`)", (ROOT / doc).read_text()):
        for name in re.findall(r"(?<![\w.])repro(?:\.\w+)+", span):
            if name not in GONE and not _resolves(name):
                unresolved.append(name)
        for path, test in re.findall(
            r"(?<![\w/.])((?:benchmarks|tests|examples)/[\w./*-]*)(?:::([\w:]+))?", span
        ):
            if path.rstrip("/") in GONE:
                continue
            found = sorted(ROOT.glob(path.rstrip("/")))
            name = test.split("::")[-1]
            if not found or (name and f"def {name}(" not in found[0].read_text()):
                unresolved.append(f"{path}::{test}" if test else path)
    assert not unresolved, unresolved
