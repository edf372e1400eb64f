"""End-to-end threshold-query benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload cold_scan --seed 1 \\
        --seconds 15 --trace 0

starts the system, replays a seeded request script from this one
process (closed loop), checks every answer against the oracle, prints
every metric by name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` replays with
span collection, runs the per-layer probes and gives the per-layer
metrics.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy

try:  # a faster parser for the ~3 MB answers of fat_result, when present
    from orjson import loads as parse_json
except ImportError:
    parse_json = json.loads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

RESULT_SCHEMA_VERSION = 1


def _catalogue() -> dict:
    """``BENCHMARK.json``: the names and units of everything reported."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _mix_cache_capacity(oracle, scale, thetas: dict, record_bytes: int) -> int:
    """Per-node cache bytes for ``explore_mix``: one and a half times
    what the hot keys' full-domain entries take on the busiest node —
    room for the hot set and a stream of cold entries to evict — and
    never less than the largest single entry any key can store."""
    from repro.cluster.partition import MortonPartitioner
    from system import NODES
    from workloads import mix_keys

    partitioner = MortonPartitioner(scale.side, NODES)
    hot, cold = mix_keys(scale)
    stored = [0] * NODES
    largest = 0
    for field, timestep in hot + cold:
        for node in range(NODES):
            for box in partitioner.node_boxes(node):
                # Thresholds only ever go ~10 % under the sparse one.
                count = oracle.count_at(
                    field, timestep, 0.9 * thetas[field], box.as_corners()
                )
                largest = max(largest, count)
                if (field, timestep) in hot:
                    stored[node] += count
    return max(max(stored) * 3 // 2, largest * 5 // 4) * record_bytes


class Run:
    """One workload, from set-up to verdict."""

    def __init__(self, name: str, args, corrupt=None) -> None:
        from system import Scale

        self.name = name
        self.args = args
        self.scale = Scale(args.side, args.timesteps)
        self.out = Path(args.out)
        #: Test hook: ``corrupt(body) -> body`` applied before checking.
        self.corrupt = corrupt
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.info: dict[str, float] = {}

    # -- sending and checking -----------------------------------------------------

    def _verify(self, request, body: bytes) -> dict:
        """Check one answer; returns the parsed response."""
        if self.corrupt is not None:
            body = self.corrupt(body)
        self.attempted += 1
        try:
            response = parse_json(body)
        except ValueError:
            self.failures.append(f"{request.payload['method']}: body is not JSON")
            return {}
        error = self.oracle.check(request.payload, response, request.expect_hits)
        if error is not None:
            self.failures.append(f"{request.payload}: {error}")
        return response

    def _send(self, request) -> dict:
        _, body = self.system.request(request.payload)
        return self._verify(request, body)

    def _calibrate(self, fields) -> dict:
        """One ``GetPdf`` per field picks the thresholds, as a user would."""
        from system import DATASET
        from workloads import Request, calibration_edges, thresholds_from_pdf

        edges = calibration_edges()
        thresholds = {}
        for field in fields:
            request = Request({
                "method": "GetPdf", "dataset": DATASET, "field": field,
                "timestep": 0, "bin_edges": edges,
            })
            response = self._send(request)
            if not self.failures and not self.system.setup_seconds:
                self.system.mark_ready()
            thresholds[field] = thresholds_from_pdf(
                edges, response.get("counts", []), self.scale.points
            )
        return thresholds

    # -- the run -------------------------------------------------------------------

    def execute(self) -> dict:
        import measure
        import workloads
        from oracle import Oracle
        from system import LibrarySystem, ShippedSystem, shm_segments

        args = self.args
        path, clients, fields = workloads.SPECS[self.name]
        self.out.mkdir(parents=True, exist_ok=True)
        shm_before = shm_segments()
        self.oracle = Oracle(self.scale)
        self.system = (
            ShippedSystem(self.scale, self.out) if path == "shipped"
            else LibrarySystem(self.scale)
        )
        door_stats: dict[str, float] = {}
        try:
            speed_before = measure.machine_calibration()
            self.system.start()
            thresholds = self._calibrate(fields)
            setup_seconds = self.system.setup_seconds * measure.speed_factor(
                speed_before, measure.machine_calibration()
            )
            workload = workloads.build(self.name, self.scale, args.seed, thresholds)
            if self.name == "explore_mix":
                self.system.cap_caches(_mix_cache_capacity(
                    self.oracle, self.scale,
                    {f: thresholds[f][workloads.SPARSE] for f in fields},
                    self.system.mediator.spec.point_record_bytes,
                ))
            for request in workload.preload:
                self._send(request)
            for request in itertools.islice(workload.script, workload.warmup):
                self._send(request)
            replay = measure.replay(
                self.system, workload.script, args.seconds, clients,
                trace=bool(args.trace), requests=args.requests,
            )
            self.system.check_alive()
            if path == "shipped":
                door_stats = self.system.stats()
            peak_rss = self.system.peak_rss_mib()
            evictions = (
                self.system.cache_evictions() if path == "library" else 0
            )
        finally:
            self.system.stop()

        samples = replay.samples
        hits = asked = points = body_bytes = 0
        sim_seconds = []
        for sample in samples:
            response = self._verify(sample.request, sample.body)
            body_bytes += len(sample.body)
            points += len(response.get("points", ()))
            if "elapsed_seconds" in response:
                sim_seconds.append(response["elapsed_seconds"])
            asked += sample.request.parts
            hits += response.get("cache_hits", 0) + sum(
                r["cache_hits"] for r in response.get("results", ())
            )
        hit_share = hits / asked if asked else 0.0
        if not points:
            self.problems.append("no answer carried a single point")
        if self.name == "explore_mix":
            if not evictions:
                self.problems.append("explore_mix evicted nothing")
            if not 0.15 < hit_share < 0.8:
                self.problems.append(f"explore_mix hit_share {hit_share:.3f}")
        shed = sum(
            value for key, value in door_stats.items()
            if key.startswith("aio_sheds_total")
        )
        if shed:
            self.problems.append(f"the door shed {shed:g} request(s)")
        waits = door_stats.get('aio_queue_wait_seconds_count{klass="query"}')
        queue_wait_ms = (
            door_stats['aio_queue_wait_seconds_sum{klass="query"}'] / waits * 1e3
            if waits else 0.0
        )

        latencies = [s.normalised * 1e3 for s in samples]
        count = len(samples)
        self.info = {
            "bench.timed_requests": count,
            "bench.samples_beyond_p90": count // 10,
            "bench.raw_latency_p50_ms": measure.percentile(
                [s.latency * 1e3 for s in samples], 50
            ),
            "bench.raw_queries_per_s": count / replay.raw_wall,
            "bench.latency_p10_ms": measure.percentile(latencies, 10),
            "bench.oracle_s": self.oracle.seconds,
            "bench.calib_ms": measure.percentile(replay.calib_ms, 50),
            "bench.drift_ratio": measure.drift_ratio(latencies),
            "core.cache.hit_share": hit_share,
            "core.cache.evictions": evictions,
            "cluster.admission.queue_wait_ms": queue_wait_ms,
            "cluster.admission.shed_total": shed,
        }
        if self.info["bench.drift_ratio"] > 1.10:
            print(
                f"WARNING {self.name}: second half of the replay is "
                f"{self.info['bench.drift_ratio']:.2f}x the first even at "
                f"reference speed (calibration loop {min(replay.calib_ms):.1f}"
                f"..{max(replay.calib_ms):.1f} ms)"
            )

        if args.trace:
            metrics = self._per_layer(samples, thresholds["vorticity"])
        else:
            metrics = {
                "setup_s": setup_seconds,
                "latency_p50_ms": measure.percentile(latencies, 50),
                "latency_p90_ms": measure.percentile(latencies, 90),
                "queries_per_s": count / replay.wall,
                "points_per_s": points / replay.wall,
                "cpu_ms_per_query": replay.cpu * 1e3 / count,
                "peak_rss_mib": peak_rss,
                "sim_s_per_query": sum(sim_seconds) / len(sim_seconds),
                "response_bytes_per_point": body_bytes / max(points, 1),
            }
        self.oracle.close()

        leaked = shm_segments() - shm_before
        if leaked:
            self.problems.append(f"shared memory leaked: {sorted(leaked)}")
        leftover = [p.name for p in self.out.glob("cluster-*")]
        if leftover:
            self.problems.append(f"temp dirs left behind: {leftover}")
        return self._report(metrics, replay)

    def _per_layer(self, samples, thresholds: dict) -> dict:
        """The replay's own layer metrics, the trace file, the probes."""
        import measure
        import probes

        metrics = {
            key: value for key, value in self.info.items()
            if not key.startswith(("bench.timed", "bench.samples", "bench.raw"))
        }
        traced = [s.normalised for s in samples if s.traced]
        plain = [s.normalised for s in samples if not s.traced]
        metrics["bench.trace_overhead_ratio"] = (
            measure.percentile(traced, 50) / measure.percentile(plain, 50)
            if traced and plain else 1.0
        )
        self_ms, dark = measure.span_profile(samples)
        for span_name, value in self_ms.items():
            metrics[f"obs.span_self_ms.{span_name}"] = value
        metrics["obs.tracing.unattributed_share"] = dark
        with open(self.out / f"trace_{self.name}.jsonl", "w") as sink:
            for record in measure.span_records(samples):
                sink.write(json.dumps(record) + "\n")
        metrics.update(probes.run(self.scale, self.out, thresholds))
        return metrics

    def _report(self, metrics: dict, replay) -> dict:
        """Print every metric with its unit; return the verdict."""
        catalogue = _catalogue()
        listed = catalogue["per_layer" if self.args.trace else "end_to_end"]
        units = {row["name"]: row["unit"] for row in listed}
        if set(units) != set(metrics):
            self.problems.append(
                "metrics differ from BENCHMARK.json: "
                f"{sorted(set(units) ^ set(metrics))}"
            )
        print(f"== {self.name} (seed {self.args.seed}, trace {self.args.trace})")
        for key, value in self.info.items():
            print(f"   {key} = {value:.6g}")
        for key in sorted(metrics):
            print(f"{self.name} {key} {metrics[key]:.6g} {units.get(key, '?')}")
        for failure in self.failures[:10]:
            print(f"FAILED {failure[:300]}")
        for problem in self.problems:
            print(f"PROBLEM {problem}")
        verdict = {
            "correct": not self.failures and not self.problems,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {
                key: {"value": metrics[key], "unit": units.get(key, "?")}
                for key in sorted(metrics)
            },
        }
        record = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "workload": self.name,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "seconds": self.args.seconds,
            "side": self.scale.side,
            "timesteps": self.scale.timesteps,
            "timed_requests": len(replay.samples),
            "info": self.info,
            "problems": self.problems,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": _git_commit(),
            **verdict,
        }
        suffix = "_trace" if self.args.trace else ""
        (self.out / f"result_{self.name}{suffix}.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        return verdict


def _git_commit() -> "str | None":
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            # Never climb out of the checkout looking for a repository.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv=None):
    from workloads import SPECS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=list(SPECS))
    target.add_argument("--all", action="store_true",
                        help="run the four workloads in turn")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the request script, nothing else")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed replay lasts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: collect spans and run the per-layer probes")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="logs, traces and result files land here")
    parser.add_argument("--requests", type=int, default=None,
                        help="replay exactly this many timed requests "
                             "(makes counts repeat; --seconds still caps)")
    parser.add_argument("--side", type=int, default=64)
    parser.add_argument("--timesteps", type=int, default=8)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("the benchmark runs from a checkout of the repository "
              "(src/repro and BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from workloads import SPECS

    names = list(SPECS) if args.all else [args.workload]
    exit_code = 0
    for name in names:
        started = time.perf_counter()
        verdict = Run(name, args).execute()
        print(f"   run wall {time.perf_counter() - started:.1f} s")
        print(json.dumps(verdict))
        if not verdict["correct"]:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
