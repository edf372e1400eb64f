"""Shared benchmark fixtures: the experiment config and the report sink.

``bench_paper.py`` reproduces the paper's tables and figures from the
one table in ``repro.harness``; each ``bench_ablation_*`` module runs
one design ablation.  Every experiment builds its own cluster, writes
its table to ``benchmarks/results/<name>.txt`` (and echoes it to the
terminal), and checks its claims as pytest tests.
"""

import pathlib

import pytest

from repro.harness.common import ExperimentConfig
from repro.obs import report

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return ExperimentConfig()


@pytest.fixture(scope="session")
def save_report():
    """Write an ExperimentReport to results/<name>.txt and echo it."""

    def _save(name: str, experiment_report) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = str(experiment_report)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        report(f"\n{text}\n")

    return _save
