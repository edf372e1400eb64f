"""Experiment harness: the paper's evaluation as one table of experiments.

Each table or figure of the paper's §5 is one
:class:`~repro.harness.experiments.Experiment` in
:data:`~repro.harness.experiments.EXPERIMENTS`: its results-file name,
title and formatted columns, a protocol that builds its own cluster
sized by :class:`~repro.harness.common.ExperimentConfig` and returns
rows of values, the paper's numbers, and the paper's shape claims as
named predicates over those values.  An
:class:`~repro.harness.common.ExperimentReport` renders the rows as a
plain-text table; ``benchmarks/bench_paper.py`` writes each one to
``benchmarks/results/<name>.txt`` and checks every claim, and
``python -m repro.harness`` prints them.

Rows (paper reference in parentheses): ``fig2_pdf`` (Fig. 2),
``fig3_fig4_clusters`` (Figs. 3-4), ``table1_fig6_cache`` (Table 1,
Fig. 6), ``fig7a_scaleup`` and ``fig7b_scaleout`` (Fig. 7), ``fig8_io``
(Fig. 8), ``fig9_breakdown`` (Fig. 9a-f) and ``local_vs_integrated``
(§5.3's 20-hour story).
"""

from repro.harness.common import (
    PAPER_FRACTIONS,
    PAPER_POINT_COUNTS,
    ExperimentConfig,
    ExperimentReport,
    threshold_levels,
)
from repro.harness.experiments import EXPERIMENTS, Experiment

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "ExperimentConfig",
    "ExperimentReport",
    "PAPER_FRACTIONS",
    "PAPER_POINT_COUNTS",
    "threshold_levels",
]
