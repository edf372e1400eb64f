"""The one benchmark gate, its sheet and its history — no stopwatch.

``benchmarks/gate.py`` is the only place a bound on a measured number
can fail; these tests make sure it *can*: the sheet must reject the
latencies from before the two PRs that moved them, accept the last
measured line, and never sit more than 2x away from it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [row["name"] for row in CATALOGUE["workloads"]]
END_TO_END = {row["name"]: row for row in CATALOGUE["end_to_end"]}
#: Units of the numbers a stopwatch produces; the rest are sizes,
#: ratios, counts and model outputs.
TIMED_UNITS = {"s", "ms", "1/s"}


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", ROOT / "benchmarks" / "gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()
TARGETS = json.loads(gate.TARGETS_PATH.read_text())
HISTORY = [
    json.loads(line)
    for line in (ROOT / "benchmarks" / "history.jsonl").read_text().splitlines()
]


@pytest.fixture
def sheet(tmp_path, monkeypatch):
    """A scratch target sheet in place of ``targets.json``."""
    path = tmp_path / "targets.json"
    path.write_text(json.dumps({
        "demo": {
            "rate": {"min": 100.0, "what": "a throughput"},
            "wait_ms": {"max": 5.0, "what": "a latency"},
            "ratio": {"min": 0.99, "max": 1.01, "what": "a model output"},
        }
    }))
    monkeypatch.setattr(gate, "TARGETS_PATH", path)
    return path


def test_min_and_max_semantics(sheet):
    assert gate.check("demo", {"rate": 100.0, "wait_ms": 5.0, "ratio": 1.0}) == []
    missed = gate.check("demo", {"rate": 99.9, "wait_ms": 5.1, "ratio": 1.02})
    assert len(missed) == 3
    assert "demo rate = 99.9" in missed[0]
    assert "demo wait_ms = 5.1" in missed[1]
    assert "demo ratio = 1.02" in missed[2]
    assert len(gate.check("demo", {"rate": 1e9, "wait_ms": 0.0, "ratio": 0.98})) == 1


def test_a_missing_or_non_numeric_metric_is_a_miss_not_a_traceback(sheet):
    missed = gate.check("demo", {"rate": 200.0, "wait_ms": None, "ratio": True})
    assert [text.split()[1] for text in missed] == ["wait_ms", "ratio"]
    assert all("not in the report" in text for text in missed)
    assert len(gate.check("demo", {"rate": float("nan")})) == 3


def test_e2e_result_files_are_read_by_their_metrics_table(sheet):
    result = {"failed": 0, "metrics": {
        "rate": {"value": 150.0, "unit": "1/s"},
        "wait_ms": {"value": 9.0, "unit": "ms"},
        "ratio": {"value": 1.0, "unit": "ratio"},
    }}
    assert len(gate.check("demo", result)) == 1


def test_cli_exit_codes(sheet, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"rate": 150.0, "wait_ms": 1.0, "ratio": 1.0}))
    assert gate.main(["demo", str(report)]) == 0
    report.write_text(json.dumps({"rate": 50.0, "wait_ms": 1.0}))
    assert gate.main(["demo", str(report)]) == 1
    out = capsys.readouterr().out
    assert "MISSED demo rate = 50" in out
    assert "MISSED demo ratio is not in the report" in out
    assert "ok     demo wait_ms = 1" in out
    assert gate.main(["no_such_section", str(report)]) == 2


def test_sections_of_the_sheet():
    assert set(TARGETS) == {f"e2e.{name}" for name in WORKLOADS} | {
        "layers", "slo.default", "slo.scale", "ha", "size",
    }
    per_layer = {row["name"] for row in CATALOGUE["per_layer"]}
    assert set(TARGETS["layers"]) <= per_layer
    for section, targets in TARGETS.items():
        if section.startswith("e2e."):
            assert set(targets) <= set(END_TO_END), section
        for name, target in targets.items():
            assert set(target) <= {"min", "max", "what"}, (section, name)
            assert set(target) & {"min", "max"}, (section, name)
            assert target["what"] and "\n" not in target["what"], (section, name)


def test_src_repro_stays_inside_its_line_bound():
    """``find src/repro -name '*.py' -exec cat {} + | wc -l``, as CI prints it."""
    lines = sum(
        path.read_bytes().count(b"\n")
        for path in (ROOT / "src" / "repro").rglob("*.py")
    )
    assert gate.check("size", {"src_repro_lines": lines}) == []
    # Tight from both sides: a deletion that leaves headroom lets the
    # next PR grow into it unseen.  Retighten `max` to the count.
    assert TARGETS["size"]["src_repro_lines"]["max"] - lines <= 25, lines


def test_every_history_line_is_whole():
    assert HISTORY, "benchmarks/history.jsonl holds no measured line"
    for line in HISTORY:
        assert line["schema_version"] == gate.HISTORY_SCHEMA_VERSION
        for key in gate.PROVENANCE:
            assert line[key] is not None, key
        assert set(line["metrics"]) == set(WORKLOADS)
        assert set(line["bench.calib_ms"]) == set(WORKLOADS)
        for workload in WORKLOADS:
            assert set(line["metrics"][workload]) == set(END_TO_END)
            assert all(
                isinstance(value, (int, float))
                for value in line["metrics"][workload].values()
            )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_sheet_passes_the_last_history_line(workload):
    assert gate.check(f"e2e.{workload}", HISTORY[-1]["metrics"][workload]) == []


@pytest.mark.parametrize(
    "workload, was",
    [("cold_scan", 210.0), ("fat_result", 133.0)],
    ids=["before_pr17_cold_path", "before_pr16_fat_answer"],
)
def test_the_sheet_fails_the_latency_from_before_the_gain(workload, was):
    report = dict(HISTORY[-1]["metrics"][workload], latency_p50_ms=was)
    missed = gate.check(f"e2e.{workload}", report)
    assert len(missed) == 1 and "latency_p50_ms" in missed[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_bounds_stay_within_2x_of_the_last_history_line(workload):
    """Floors cannot rot 4-900x away from what they guard again."""
    measured = HISTORY[-1]["metrics"][workload]
    timed = [
        name for name, target in TARGETS[f"e2e.{workload}"].items()
        if END_TO_END[name]["unit"] in TIMED_UNITS
    ]
    assert "latency_p50_ms" in timed
    for name in timed:
        for bound in ("min", "max"):
            limit = TARGETS[f"e2e.{workload}"][name].get(bound)
            if limit is not None:
                assert 0.5 <= limit / measured[name] <= 2.0, (name, bound)
