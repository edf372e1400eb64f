"""The one benchmark gate: every bound lives in ``targets.json``.

    python benchmarks/gate.py <section> <report.json>
    python benchmarks/gate.py history <dir> >> benchmarks/history.jsonl

The first form checks one report against one section of the sheet,
prints every bounded number with its verdict and exits 1 on any miss;
benches only measure and write their report, this is the only place a
bound can fail.  A report is either a flat ``{name: number}`` bench
report (``BENCH_*.json``) or a ``benchmarks/e2e`` result file, whose
numbers sit under ``metrics.<name>.value``.  Each target is ``{"min"
and/or "max": x, "what": definition}``; a metric the report does not
carry is a miss, not a traceback.

The second form prints one line for the committed trajectory from the
four ``result_<workload>.json`` files that four runs of
``benchmarks/e2e/run.py --workload <w> --seed 1 --seconds 15 --trace 0``
leave in ``<dir>`` (one process each: ``--all`` reports ``explore_mix
peak_rss_mib`` as the high-water mark of the workloads before it): the
end-to-end metrics of ``BENCHMARK.json`` for every workload, and what
they were measured with.  ``tests/test_bench_gate.py`` holds every
timing and throughput bound of the ``e2e.*`` sections within 2x of the
last line, so a floor cannot drift away from what it guards.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TARGETS_PATH = HERE / "targets.json"
CATALOGUE_PATH = HERE.parent / "BENCHMARK.json"

#: Version of a history line's key set.
HISTORY_SCHEMA_VERSION = 1
#: What a history line copies from each result file, and requires the
#: four files of one line to agree on.
PROVENANCE = ("git_commit", "nproc", "python", "numpy", "seed", "seconds")


def judge(section: str, report: dict) -> list[tuple[str, bool]]:
    """One ``(text, met)`` per bound of ``targets.json``'s ``section``."""
    targets = json.loads(TARGETS_PATH.read_text())[section]
    values = report
    if isinstance(report.get("metrics"), dict):
        values = {
            name: entry["value"] for name, entry in report["metrics"].items()
        }
    rows = []
    for name, target in targets.items():
        got = values.get(name)
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            rows.append((f"{section} {name} is not in the report", False))
            continue
        low, high = target.get("min", -math.inf), target.get("max", math.inf)
        # A NaN is inside no interval, so it misses.
        rows.append((
            f"{section} {name} = {got:.6g}, bounds [{low:g}, {high:g}]",
            low <= got <= high,
        ))
    return rows


def check(section: str, report: dict) -> list[str]:
    """Every bound of the section that ``report`` misses."""
    return [text for text, met in judge(section, report) if not met]


def history_line(out_dir: Path) -> dict:
    """One ``history.jsonl`` record from the four result files."""
    catalogue = json.loads(CATALOGUE_PATH.read_text())
    names = [row["name"] for row in catalogue["end_to_end"]]
    line: dict = {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "bench.calib_ms": {},
        "metrics": {},
    }
    for workload in (row["name"] for row in catalogue["workloads"]):
        result = json.loads((out_dir / f"result_{workload}.json").read_text())
        if not result["correct"]:
            raise ValueError(f"{workload}: the run was not correct")
        for key in PROVENANCE:
            if line.setdefault(key, result[key]) != result[key]:
                raise ValueError(f"{workload}: {key} differs between runs")
        line["bench.calib_ms"][workload] = result["info"]["bench.calib_ms"]
        line["metrics"][workload] = {
            name: result["metrics"][name]["value"] for name in names
        }
    return line


def main(argv: "list[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sections = json.loads(TARGETS_PATH.read_text())
    if len(args) != 2 or args[0] not in {"history", *sections}:
        sys.stderr.write(f"{__doc__}\nsections: {', '.join(sections)}\n")
        return 2
    if args[0] == "history":
        print(json.dumps(history_line(Path(args[1])), sort_keys=True))
        return 0
    rows = judge(args[0], json.loads(Path(args[1]).read_text()))
    for text, met in rows:
        print(f"{'ok    ' if met else 'MISSED'} {text}")
    missed = sum(not met for _, met in rows)
    print(f"gate {args[0]}: {len(rows)} bound(s), {missed} missed ({args[1]})")
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
