"""The paper's evaluation (§5) as one table: each table or figure is a row.

An :class:`Experiment` holds the results-file name, the title, the
columns (a header and a format each), the protocol, the paper's numbers
where the figure gives some, and the paper's shape claims as named
predicates.  A protocol builds its own cluster from the
:class:`~repro.harness.common.ExperimentConfig`, so every figure
measures on cold buffer pools, and returns rows of values plus notes;
numbers stay numbers until the report renders them.  The paper's
numbers form the last column, looked up by each row's first cell.

``benchmarks/bench_paper.py`` runs every row once, writes
``benchmarks/results/<name>.txt`` and checks every claim;
``python -m repro.harness`` prints the same tables.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis import friends_of_friends_4d, norm_rms
from repro.client import local_threshold_evaluation
from repro.cluster import Mediator
from repro.core import PdfQuery, ThresholdQuery
from repro.core.query import ThresholdResult
from repro.costmodel import Category
from repro.harness.common import (
    PAPER_POINT_COUNTS,
    Column,
    ExperimentConfig,
    ExperimentReport,
    fmt,
    ground_truth_norm,
    threshold_levels,
)

Rows = list[list[Any]]
Claim = Callable[[ExperimentReport, ExperimentConfig], bool]

SWEEP = (1, 2, 4, 8)
LEVELS = ("high", "medium", "low")
FIELDS = ("vorticity", "q_criterion", "magnetic")


@dataclass(frozen=True)
class Experiment:
    """One table or figure of the paper: how to measure it, what it shows."""

    name: str
    title: str
    columns: tuple[Column, ...]
    protocol: Callable[[ExperimentConfig], tuple[Rows, list[str]]]
    claims: Mapping[str, Claim]
    paper: Mapping[Any, Any] = field(default_factory=dict)

    def run(self, config: ExperimentConfig) -> ExperimentReport:
        """Measure on a cluster of this configuration; values, not text."""
        rows, notes = self.protocol(config)
        if self.paper:
            rows = [row + [self.paper[row[0]]] for row in rows]
        return ExperimentReport(
            self.title.format(config=config), self.columns, rows, notes
        )


def _vorticity(threshold: float, timestep: int = 0) -> ThresholdQuery:
    return ThresholdQuery("mhd", "vorticity", timestep, threshold)


def _cold(
    mediator: Mediator, query: ThresholdQuery, processes: int, **options: bool
) -> ThresholdResult:
    """Run ``query`` with its cache entries and every page cache dropped."""
    mediator.drop_cache_entries(query.dataset, query.field, query.timestep)
    mediator.drop_page_caches()
    return mediator.threshold(query, processes=processes, **options)


def _by(report: ExperimentReport, key: str, value: str) -> dict[Any, Any]:
    return dict(zip(report.column(key), report.column(value)))


def _fig2(config: ExperimentConfig) -> tuple[Rows, list[str]]:
    """Fig. 2: per-bin counts of the vorticity norm over [0, 10 x RMS).

    The synthetic field's amplitude differs from the production run, so
    ten equal bins up to 10 x RMS plus an open last bin stand for the
    paper's absolute bins of width 10.
    """
    dataset, mediator = config.make_cluster()
    rms = norm_rms(ground_truth_norm(dataset, "vorticity", 0))
    edges = tuple(np.linspace(0.0, 10.0 * rms, 11))
    result = mediator.pdf(
        PdfQuery("mhd", "vorticity", 0, edges), processes=config.processes
    )
    labels = [f"[{lo:.1f}, {hi:.1f})" for lo, hi in zip(edges, edges[1:])]
    labels.append(f"[{edges[-1]:.1f}, ..)")
    return [[label, int(count)] for label, count in zip(labels, result.counts)], [
        f"grid {config.side}^3, RMS vorticity {rms:.2f}; paper bins were "
        "absolute [0,10)..[90,..) on the production field",
        f"query ran in {result.ledger.total:.2f} simulated seconds",
    ]


def _decays(counts: list[int]) -> bool:
    """Monotone decay past the mode, over a populated tail of >= 4 bins."""
    tail = [count for count in counts[counts.index(max(counts)):] if count > 0]
    return tail == sorted(tail, reverse=True) and len(tail) >= 4


def _fig3_fig4(config: ExperimentConfig) -> tuple[Rows, list[str]]:
    """Figs. 3-4: every point above 7 x RMS per timestep, clustered in 4-D."""
    dataset, mediator = config.make_cluster()
    rows: Rows = []
    found = []
    for timestep in range(dataset.spec.timesteps):
        rms = norm_rms(ground_truth_norm(dataset, "vorticity", timestep))
        result = mediator.threshold(
            _vorticity(7.0 * rms, timestep), processes=config.processes
        )
        found.append((np.full(len(result), timestep), result))
        rows.append(["points above threshold", timestep, len(result),
                     len(result) / dataset.spec.points_per_timestep])
    clusters = friends_of_friends_4d(
        np.concatenate([steps for steps, _ in found]),
        np.concatenate([result.coordinates() for _, result in found]),
        np.concatenate([result.values for _, result in found]),
        side=dataset.spec.side, linking_length=2, min_size=2,
    )
    rows.append(["4-D clusters (size >= 2)", "all", len(clusters), ""])
    for rank, cluster in enumerate(clusters[:3], start=1):
        rows.append([f"cluster #{rank}", cluster.timesteps, cluster.size,
                     f"peak {cluster.peak_value:.2f}"])
    notes = [
        "threshold at 7.0 x RMS vorticity, 4-D FoF linking length 2",
        "paper Fig. 4: ~2.4e5 of 1024^3 points (0.02%) above 7 x RMS",
    ]
    if clusters:
        peak = max(clusters, key=lambda c: c.peak_value)
        notes.append(
            f"most intense event sits in a cluster of {peak.size} points "
            f"spanning timesteps {peak.timesteps} "
            "(paper Fig. 3: the peak cluster persists across steps)"
        )
    return rows, notes


def _series(report: ExperimentReport, prefix: str) -> Rows:
    return [row for row in report.rows if row[0].startswith(prefix)]


def _table1(config: ExperimentConfig) -> tuple[Rows, list[str]]:
    """Table 1 / Fig. 6: no cache, cache miss, and a hit after pollution.

    A miss runs with the timestep's entries dropped; a hit re-issues the
    query after an unrelated query (the next timestep) has been cached.
    """
    dataset, mediator = config.make_cluster()
    levels = threshold_levels(dataset, "vorticity", 0)
    pollution = _vorticity(levels["medium"], 1 % dataset.spec.timesteps)
    rows: Rows = []
    for level in LEVELS:
        query = _vorticity(levels[level])
        mediator.drop_page_caches()
        no_cache = mediator.threshold(
            query, processes=config.processes, use_cache=False
        )
        miss = _cold(mediator, query, config.processes)
        assert miss.cache_hits == 0
        mediator.threshold(pollution, processes=config.processes)
        mediator.drop_page_caches()
        hit = mediator.threshold(query, processes=config.processes)
        assert hit.cache_hits == len(mediator.nodes)
        rows.append([level, levels[level], len(no_cache), no_cache.elapsed,
                     miss.elapsed, hit.elapsed, miss.elapsed / hit.elapsed])
    return rows, [
        f"grid {config.side}^3 on {config.nodes} nodes x "
        f"{config.processes} processes; paper ran 1024^3 (point counts "
        f"{PAPER_POINT_COUNTS['high']}/{PAPER_POINT_COUNTS['medium']}/"
        f"{PAPER_POINT_COUNTS['low']} at the same selectivities)",
        "shape to match: miss within a few % of no-cache; hit >=10x faster",
    ]


def _scaleup(config: ExperimentConfig) -> tuple[Rows, list[str]]:
    """Fig. 7(a): cold-cache speedup with 1-8 processes on every node."""
    dataset, mediator = config.make_cluster()
    levels = threshold_levels(dataset, "vorticity", 0)
    rows: Rows = []
    first: dict[str, float] = {}
    for processes in SWEEP:
        row: list[Any] = [processes]
        for level in reversed(LEVELS):
            seconds = _cold(mediator, _vorticity(levels[level]), processes).elapsed
            row.append(first.setdefault(level, seconds) / seconds)
        rows.append(row)
    return rows, [
        "speedup of cold-cache evaluation relative to 1 process/node",
        "shape to match: ~2x at 2, ~2.6x at 4, flat at 8 (I/O bound)",
    ]


def _scaleout(config: ExperimentConfig) -> tuple[Rows, list[str]]:
    """Fig. 7(b): cold-cache speedup with 1-8 nodes, one process each.

    The user-transfer time is the same on every cluster size and would
    mask the node scaling of large results, so it is left out.
    """
    rows: Rows = []
    first: dict[str, float] = {}
    for nodes in SWEEP:
        dataset, mediator = config.make_cluster(nodes=nodes)
        levels = threshold_levels(dataset, "vorticity", 0)
        row: list[Any] = [nodes]
        for level in reversed(LEVELS):
            result = _cold(mediator, _vorticity(levels[level]), 1)
            seconds = result.elapsed - result.ledger[Category.MEDIATOR_USER]
            row.append(first.setdefault(level, seconds) / seconds)
        rows.append(row)
    return rows, [
        "speedup of cold-cache server-side evaluation relative to 1 node",
        "shape to match: nearly perfect linear speedup",
    ]


def _speedups(report: ExperimentReport) -> list[list[float]]:
    """Each level's speedup column, low / medium / high."""
    return [report.column(level) for level in reversed(LEVELS)]


def _scaleup_bends(speedups: list[float]) -> bool:
    s1, s2, s4, s8 = speedups
    return s1 == 1.0 and 1.3 <= s2 <= 2.2 and s2 < s4 and s8 <= s4 * 1.25


def _fig8(config: ExperimentConfig) -> tuple[Rows, list[str]]:
    """Fig. 8: the medium query in full and with I/O only, 1-8 processes."""
    dataset, mediator = config.make_cluster()
    query = _vorticity(threshold_levels(dataset, "vorticity", 0)["medium"])
    rows: Rows = []
    for processes in SWEEP:
        total = _cold(mediator, query, processes, use_cache=False).elapsed
        mediator.drop_page_caches()
        io_only = mediator.threshold(
            query, processes=processes, use_cache=False, io_only=True
        ).elapsed
        rows.append([processes, total, io_only, io_only / total])
    return rows, [
        "shapes to match: I/O ~ half the 1-process total; I/O shrinks "
        "modestly with processes; total at 4-8 procs ~ I/O-only at 1",
    ]


def _io(report: ExperimentReport, processes: int) -> float:
    return float(_by(report, "processes", "I/O only")[processes])


def _fig9(config: ExperimentConfig) -> tuple[Rows, list[str]]:
    """Fig. 9(a)-(f): the ledger of each field and level, miss then hit."""
    dataset, mediator = config.make_cluster()
    rows: Rows = []
    for fieldname in FIELDS:
        levels = threshold_levels(dataset, fieldname, 0)
        for level in LEVELS:
            query = ThresholdQuery("mhd", fieldname, 0, levels[level])
            miss = _cold(mediator, query, config.processes)
            mediator.drop_page_caches()
            hit = mediator.threshold(query, processes=config.processes)
            assert miss.cache_hits == 0 and hit.cache_hits == len(mediator.nodes)
            for kind, result in (("miss", miss), ("hit", hit)):
                ledger = result.ledger
                rows.append([
                    fieldname, level, kind, len(result),
                    ledger[Category.CACHE_LOOKUP], ledger[Category.IO],
                    ledger[Category.COMPUTE], ledger[Category.MEDIATOR_DB],
                    ledger[Category.MEDIATOR_USER], ledger.total,
                ])
    return rows, [
        "shapes to match: q_criterion compute > vorticity at equal I/O;"
        " magnetic ~ no compute and less I/O (single-point kernel);"
        " hits dominated by user transfer; >=10x total speedup on hits",
    ]


def _ledger(report: ExperimentReport, column: str) -> dict[tuple[str, str, str], float]:
    """One Fig. 9 column keyed by (field, level, cache)."""
    keys = zip(report.column("field"), report.column("level"), report.column("cache"))
    return dict(zip(keys, report.column(column)))


def _miss(
    report: ExperimentReport, column: str, fieldname: str, level: str = "high"
) -> float:
    return _ledger(report, column)[fieldname, level, "miss"]


def _local_vs_integrated(config: ExperimentConfig) -> tuple[Rows, list[str]]:
    """§5.3: the medium query evaluated locally, integrated, and on a hit."""
    dataset, mediator = config.make_cluster()
    threshold = threshold_levels(dataset, "vorticity", 0)["medium"]
    integrated = _cold(mediator, _vorticity(threshold), config.processes)
    mediator.drop_page_caches()
    hit = mediator.threshold(_vorticity(threshold), processes=config.processes)
    local = local_threshold_evaluation(
        mediator, "mhd", 0, threshold, chunk_side=max(16, dataset.spec.side // 4)
    )
    assert np.array_equal(local.zindexes, integrated.zindexes)
    return [
        ["local (client-side)", local.elapsed, len(local),
         f"{local.bytes_downloaded / 2**20:.0f} MiB-equivalent over WAN "
         f"in {local.subqueries} subqueries"],
        ["integrated (cold cache)", integrated.elapsed, len(integrated),
         f"{local.elapsed / integrated.elapsed:.0f}x faster than local"],
        ["integrated (cache hit)", hit.elapsed, len(hit),
         f"{local.elapsed / hit.elapsed:.0f}x faster than local"],
    ], [
        "paper: >20 h local vs ~2 min integrated vs seconds on a hit",
        "all three strategies return identical points",
    ]


def _ladder(local: float, cold: float, hit: float) -> bool:
    """Paper: > 20 h locally vs ~2 min integrated (~600x) vs seconds."""
    return local / cold > 50 and cold / hit > 10 and local / hit > 1000


_SPEEDUP = "{:.2f}x".format


def _columns(*names: str, render: Callable[[Any], str]) -> tuple[Column, ...]:
    return tuple((name, render) for name in names)


EXPERIMENTS: dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in (
        Experiment(
            name="fig2_pdf",
            title="Fig. 2 -- PDF of the vorticity norm (MHD, one timestep)",
            columns=(("vorticity norm bin", str), ("number of points", str)),
            protocol=_fig2,
            claims={
                "counts_decay_monotonically": lambda r, c: _decays(
                    r.column("number of points")
                ),
                "total_covers_grid": lambda r, c: (
                    sum(r.column("number of points")) == c.side**3
                ),
            },
        ),
        Experiment(
            name="fig3_fig4_clusters",
            title="Fig. 3 / Fig. 4 -- intense vorticity events and 4-D clusters",
            columns=(("series", str), ("where", "t={}".format), ("count", str),
                     ("detail", "{:.4%}".format)),
            protocol=_fig3_fig4,
            claims={
                # Paper Fig. 4: ~0.02 % of the points lie above 7 x RMS.
                "intense_points_are_a_tiny_fraction": lambda r, c: all(
                    row[3] < 1e-3 for row in _series(r, "points above")
                ),
                "some_timestep_has_intense_events": lambda r, c: (
                    max(row[2] for row in _series(r, "points above")) > 0
                ),
                "clusters_found_and_one_persists": lambda r, c: any(
                    len(row[1]) >= 2 for row in _series(r, "cluster #")
                ),
            },
        ),
        Experiment(
            name="table1_fig6_cache",
            title="Table 1 / Fig. 6 -- cache effectiveness (simulated seconds)",
            columns=(
                ("level", str), ("threshold", "{:.2f}".format), ("points", str),
                *_columns("no cache", "miss", render="{:.2f}".format),
                ("hit", "{:.3f}".format), ("hit speedup", "{:.0f}x".format),
                ("paper (nc/miss/hit)",
                 "{0[no_cache]:.1f}/{0[miss]:.1f}/{0[hit]:.1f}".format),
            ),
            protocol=_table1,
            claims={
                # Paper: probing the cache first costs < 3 % even on a miss.
                "miss_overhead_is_small": lambda r, c: all(
                    miss <= no_cache * 1.05
                    for no_cache, miss in zip(r.column("no cache"), r.column("miss"))
                ),
                "hits_are_an_order_of_magnitude_faster": lambda r, c: all(
                    speedup >= 10 for speedup in r.column("hit speedup")
                ),
                # Table 1: 0.5 / 1.2 / 9.1 s from the high to the low level.
                "hit_times_track_result_size": lambda r, c: (
                    r.column("hit")[0] < r.column("hit")[1] < r.column("hit")[2]
                ),
            },
            paper={
                "high": {"no_cache": 97.1, "miss": 100.2, "hit": 0.5},
                "medium": {"no_cache": 113.7, "miss": 115.9, "hit": 1.2},
                "low": {"no_cache": 111.6, "miss": 115.0, "hit": 9.1},
            },
        ),
        Experiment(
            name="fig7a_scaleup",
            title="Fig. 7(a) -- scale-up speedup vs processes per node "
            "({config.nodes}-node cluster)",
            columns=(("processes", str),
                     *_columns("low", "medium", "high", "paper (~)", render=_SPEEDUP)),
            protocol=_scaleup,
            claims={
                # Paper: ~2x at 2 processes, ~2.6x at 4, little more at 8.
                "scaleup_monotone_then_flat": lambda r, c: all(
                    _scaleup_bends(speedups) for speedups in _speedups(r)
                ),
                # The shared disk arrays do not parallelise.
                "scaleup_far_from_linear": lambda r, c: all(
                    speedups[-1] < 4.0 for speedups in _speedups(r)
                ),
            },
            # Read off the paper's Fig. 7(a) at the medium level.
            paper={1: 1.0, 2: 1.95, 4: 2.6, 8: 2.7},
        ),
        Experiment(
            name="fig7b_scaleout",
            title="Fig. 7(b) -- scale-out speedup vs node count (1 process/node)",
            columns=(("nodes", str),
                     *_columns("low", "medium", "high", "linear", render=_SPEEDUP)),
            protocol=_scaleout,
            claims={
                "scaleout_nearly_linear": lambda r, c: all(
                    0.85 * nodes <= speedup <= 1.1 * nodes
                    for speedups in _speedups(r)
                    for nodes, speedup in zip(SWEEP, speedups)
                ),
            },
            paper={nodes: nodes for nodes in SWEEP},
        ),
        Experiment(
            name="fig8_io",
            title="Fig. 8 -- total vs I/O-only time by processes per node "
            "(medium threshold, simulated seconds)",
            columns=(("processes", str),
                     *_columns("total", "I/O only", render="{:.1f}".format),
                     ("I/O share", "{:.0%}".format),
                     ("paper (~t/io)", "{0[0]}/{0[1]}".format)),
            protocol=_fig8,
            claims={
                "io_is_about_half_the_single_process_total": lambda r, c: (
                    0.35 <= r.column("I/O share")[0] <= 0.65
                ),
                # More streams help, but nowhere near linearly (shared disks).
                "io_shrinks_modestly_with_processes": lambda r, c: (
                    _io(r, 1) / 2.5 < _io(r, 8) < _io(r, 1)
                ),
                # Paper: the 4-8 process total ~ the 1-process I/O-only time.
                "multiprocess_total_matches_single_process_io": lambda r, c: all(
                    abs(_by(r, "processes", "total")[processes] - _io(r, 1)) < 0.35 * _io(r, 1)
                    for processes in (4, 8)
                ),
            },
            # Read off the paper's Fig. 8: (total, I/O only) seconds.
            paper={1: (260, 130), 2: (160, 95), 4: (105, 85), 8: (95, 75)},
        ),
        Experiment(
            name="fig9_breakdown",
            title="Fig. 9 -- execution-time breakdown by field, threshold "
            "level and cache state (simulated seconds)",
            columns=(
                *_columns("field", "level", "cache", "points", render=str),
                ("lookup", "{:.3f}".format),
                *_columns("I/O", "compute", render="{:.2f}".format),
                *_columns("med-DB", "med-user", render="{:.3f}".format),
                ("total", "{:.2f}".format),
            ),
            protocol=_fig9,
            claims={
                # Paper §5.4: Q needs all 9 gradient components.
                "q_criterion_costs_more_compute_than_vorticity": lambda r, c: all(
                    _miss(r, "compute", "q_criterion", level)
                    > 1.3 * _miss(r, "compute", "vorticity", level)
                    for level in LEVELS
                ),
                # The same kernel of computation reads the same data.
                "vorticity_and_q_have_equal_io": lambda r, c: (
                    abs(_miss(r, "I/O", "q_criterion") - _miss(r, "I/O", "vorticity"))
                    < 0.05 * _miss(r, "I/O", "vorticity")
                ),
                # A raw field is only compared against the threshold.
                "magnetic_field_needs_no_compute": lambda r, c: (
                    _miss(r, "compute", "magnetic") < 0.1 * _miss(r, "compute", "vorticity")
                ),
                "cache_lookup_negligible_on_misses": lambda r, c: all(
                    lookup < 0.05 * total
                    for lookup, total, cache in zip(
                        r.column("lookup"), r.column("total"), r.column("cache")
                    )
                    if cache == "miss"
                ),
                "hits_dominated_by_user_transfer_at_low_threshold": lambda r, c: all(
                    _ledger(r, "med-user")[fieldname, "low", "hit"]
                    > 0.5 * _ledger(r, "total")[fieldname, "low", "hit"]
                    for fieldname in FIELDS
                ),
                "hits_are_order_of_magnitude_faster_for_all_fields": lambda r, c: all(
                    _ledger(r, "total")[fieldname, level, "miss"]
                    >= 10 * _ledger(r, "total")[fieldname, level, "hit"]
                    for fieldname in FIELDS for level in LEVELS
                ),
            },
        ),
        Experiment(
            name="local_vs_integrated",
            title="Sec. 5.3 -- local vs integrated threshold evaluation "
            "(medium threshold, simulated time)",
            columns=(("strategy", str), ("time", fmt), ("points", str), ("detail", str)),
            protocol=_local_vs_integrated,
            claims={
                "integrated_beats_local_by_orders_of_magnitude": lambda r, c: _ladder(
                    *r.column("time")
                ),
                "all_strategies_agree_on_points": lambda r, c: (
                    len(set(r.column("points"))) == 1
                ),
            },
        ),
    )
}
