"""Run every paper-figure experiment and print the reports.

Usage::

    python -m repro.harness                            # every row of the table
    python -m repro.harness fig8_io table1_fig6_cache  # a subset by name
"""

from __future__ import annotations

import sys

from repro.harness.common import ExperimentConfig
from repro.harness.experiments import EXPERIMENTS
from repro.obs import Stopwatch, report


def main(argv: list[str]) -> int:
    wanted = argv or list(EXPERIMENTS)
    unknown = [name for name in wanted if name not in EXPERIMENTS]
    if unknown:
        report(f"unknown experiments: {unknown}; known: {list(EXPERIMENTS)}")
        return 2
    config = ExperimentConfig()
    report(
        f"configuration: {config.side}^3 grid, {config.timesteps} timesteps, "
        f"{config.nodes} nodes x {config.processes} processes "
        "(simulated seconds are paper-scale; see EXPERIMENTS.md)\n"
    )
    for name in wanted:
        with Stopwatch() as watch:
            rendered = EXPERIMENTS[name].run(config)
        report(rendered)
        report(f"[{name} regenerated in {watch.elapsed:.1f} s wall]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
