"""Self-test of the benchmark itself, at a size that runs in seconds.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

(tier-1's ``testpaths = ["tests"]`` leaves this file out).  It checks
that the runner reports exactly the metrics ``BENCHMARK.json`` names,
that a wrong answer is counted as a failed request, and that a seed
fixes the request script and every count that should repeat.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from system import Scale  # noqa: E402

SMALL = ["--side", "16", "--timesteps", "2", "--requests", "30", "--seed", "5"]
ONE_CLIENT = ("cold_scan", "warm_hit", "fat_result")
#: Counts a seed fixes exactly when one client replays a fixed script.
REPEATABLE = ("sim_s_per_query", "response_bytes_per_point")


def execute(name: str, out: Path, *extra: str, corrupt=None):
    args = run.parse_args(["--workload", name, "--out", str(out), *SMALL, *extra])
    job = run.Run(name, args, corrupt=corrupt)
    return job, job.execute()


@pytest.fixture(scope="module")
def out(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("e2e-out")


@pytest.fixture(scope="module")
def untraced(out):
    return {name: execute(name, out) for name in workloads.SPECS}


@pytest.fixture(scope="module")
def catalogue() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_names_match_the_catalogue(untraced, catalogue):
    listed = [row["name"] for row in catalogue["end_to_end"]]
    assert len(listed) == len(set(listed)) <= 16
    assert "setup_s" in listed
    for name, (job, verdict) in untraced.items():
        assert sorted(verdict["metrics"]) == sorted(listed), name
        assert verdict["failed"] == 0, job.failures
        assert all(m["value"] > 0 for m in verdict["metrics"].values()), name
    for name in ONE_CLIENT:
        assert untraced[name][1]["correct"], untraced[name][0].problems
    assert [w["name"] for w in catalogue["workloads"]] == list(workloads.SPECS)


def test_per_layer_names_match_the_catalogue(out, catalogue):
    job, verdict = execute("warm_hit", out, "--trace", "1")
    listed = [row["name"] for row in catalogue["per_layer"]]
    assert len(listed) == len(set(listed)) <= 128
    assert sorted(verdict["metrics"]) == sorted(listed)
    names = listed + [row["name"] for row in catalogue["end_to_end"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert verdict["correct"], job.problems + job.failures
    rows = [
        json.loads(line)
        for line in (out / "trace_warm_hit.jsonl").read_text().splitlines()
    ]
    assert {"client.request", "cache.lookup"} <= {row["name"] for row in rows}
    assert all(row["end"] >= row["start"] for row in rows)


def test_a_corrupted_answer_is_a_failed_request(out):
    calls = iter(range(10**6))

    def corrupt(body: bytes) -> bytes:
        response = json.loads(body)
        points = response.get("points")
        if points:
            if next(calls) % 2:
                del points[len(points) // 2]
            else:
                value = points[0]["value"]
                points[0]["value"] = math.nextafter(value, math.inf)
        return json.dumps(response).encode()

    job, verdict = execute("warm_hit", out, corrupt=corrupt)
    assert verdict["failed"] > 0 and not verdict["correct"]
    reasons = " ".join(job.failures)
    assert "values differ" in reasons
    assert "oracle has" in reasons


def test_a_seed_fixes_the_script_and_the_counts(out, untraced):
    for name in ONE_CLIENT:
        first_job, first = untraced[name]
        again_job, again = execute(name, out)
        for metric in REPEATABLE:
            assert (
                first["metrics"][metric]["value"]
                == again["metrics"][metric]["value"]
            ), (name, metric)
        assert (
            first_job.info["core.cache.hit_share"]
            == again_job.info["core.cache.hit_share"]
        )
    assert untraced["cold_scan"][0].info["core.cache.hit_share"] == 0.0
    assert untraced["warm_hit"][0].info["core.cache.hit_share"] == 1.0
    assert untraced["fat_result"][0].info["core.cache.hit_share"] == 1.0


def test_scripts_depend_on_the_seed_and_nothing_else():
    scale = Scale(16, 2)
    thresholds = {
        field: {workloads.SPARSE: 3.0, workloads.FAT: 1.0}
        for field in workloads.FIELDS
    }

    def script(name: str, seed: int) -> bytes:
        return workloads.script_bytes(
            workloads.build(name, scale, seed, thresholds), 60
        )

    for name in workloads.SPECS:
        assert script(name, 7) == script(name, 7)
        assert script(name, 7) != script(name, 8)
