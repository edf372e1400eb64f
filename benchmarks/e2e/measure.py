"""The closed-loop replay, its statistics, and the span arithmetic."""

from __future__ import annotations

import math
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from workloads import Request

#: A script is replayed in passes of about this many seconds; the
#: machine's speed is calibrated between passes.
PASS_SECONDS = 1.0
#: Milliseconds :func:`machine_calibration` takes on the reference box
#: when nothing disturbs it.  Timings are reported at this speed.
REFERENCE_CALIB_MS = 18.0
#: Span names that get their own ``obs.span_self_ms.*`` metric.
SPAN_NAMES = (
    "client", "query", "node.part", "net.rpc", "server.request",
    "cache.lookup", "node.evaluate", "node.io", "node.kernel", "node.halo",
    "cache.store", "other",
)
_QUERY_ID = re.compile(rb'"query_id": "([^"]+)"')


@dataclass
class Sample:
    request: Request
    #: Seconds from request sent to last byte read, as the clock saw them.
    latency: float
    body: bytes
    #: ``latency`` at the reference machine speed (see :func:`replay`).
    normalised: float = 0.0
    traced: bool = False
    spans: "list[dict] | None" = None


@dataclass
class Replay:
    samples: list[Sample] = field(default_factory=list)
    #: Seconds the passes lasted and CPU seconds the system's processes
    #: used in them — calibration gaps excluded, at reference speed.
    wall: float = 0.0
    cpu: float = 0.0
    raw_wall: float = 0.0
    calib_ms: list[float] = field(default_factory=list)


def percentile(values: "list[float]", q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def machine_calibration() -> float:
    """Milliseconds a fixed numpy + Python loop takes right now.

    The work never changes, so a change in this number is the machine
    (frequency, a noisy neighbour), not the program.
    """
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((64, 64, 64)).astype(np.float32)
    started = time.perf_counter()
    total = 0.0
    for _ in range(6):
        total += float(np.sqrt((np.gradient(grid, axis=0) ** 2).sum()))
    for i in range(300000):
        total += i % 7
    return (time.perf_counter() - started) * 1000.0


def speed_factor(*calib_ms: float) -> float:
    """What to multiply a duration by to get it at reference speed."""
    return REFERENCE_CALIB_MS / (sum(calib_ms) / len(calib_ms))


def replay(
    system,
    script: Iterator[Request],
    seconds: float,
    clients: int,
    trace: bool = False,
    requests: "int | None" = None,
) -> Replay:
    """Replay ``script`` closed-loop for ``seconds`` (or ``requests``).

    Each of ``clients`` threads sends its next request only when the
    previous answer has been read to the last byte.  Nothing is parsed
    or checked here; the caller verifies every body afterwards.

    The box this runs on changes speed by a third for seconds to
    minutes at a time (a neighbour on the host), which is more than any
    bound a regression is judged by.  So the replay is cut into short
    passes with :func:`machine_calibration` before and after each, and
    every duration of a pass is scaled by what the calibration loop
    took around it relative to :data:`REFERENCE_CALIB_MS`.  In a traced
    run every other pass fetches the spans of each request it sends.
    """
    out = Replay()
    lock = threading.Lock()
    passes = max(5, round(seconds / PASS_SECONDS))
    out.calib_ms.append(machine_calibration())
    for index in range(passes):
        traced = trace and index % 2 == 1
        quota = (
            math.ceil((index + 1) * requests / passes)
            if requests is not None else None
        )
        if traced:
            system.set_tracing(True)
        first = len(out.samples)
        deadline = time.perf_counter() + seconds / passes
        cpu_before = system.cpu_seconds()
        started = time.perf_counter()

        def client() -> None:
            while time.perf_counter() < deadline:
                with lock:
                    if quota is not None and len(out.samples) >= quota:
                        return
                    request = next(script)
                    # The slot is claimed before the request is sent so
                    # that a quota is met exactly with two clients.
                    sample = Sample(request, 0.0, b"", traced=traced)
                    out.samples.append(sample)
                sample.latency, sample.body = system.request(request.payload)
                if traced:
                    found = _QUERY_ID.search(sample.body[-120:])
                    if found:
                        sample.spans = system.spans_of(found.group(1).decode())

        threads = [
            threading.Thread(target=client, name=f"client-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        cpu = system.cpu_seconds() - cpu_before
        if traced:
            system.set_tracing(False)
        system.check_alive()
        out.calib_ms.append(machine_calibration())
        factor = speed_factor(*out.calib_ms[-2:])
        out.raw_wall += wall
        out.wall += wall * factor
        out.cpu += cpu * factor
        for sample in out.samples[first:]:
            sample.normalised = sample.latency * factor
    return out


def drift_ratio(latencies: "list[float]") -> float:
    """Second-half median over first-half median of one replay."""
    half = len(latencies) // 2
    if half == 0:
        return 1.0
    return percentile(latencies[half:], 50) / percentile(latencies[:half], 50)


# -- spans --------------------------------------------------------------------


def union_length(intervals: "list[tuple[float, float]]") -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


def _metric_name(span_name: str) -> str:
    if span_name.startswith("query."):
        return "query"
    return span_name if span_name in SPAN_NAMES else "other"


def span_profile(samples: "list[Sample]") -> tuple[dict[str, float], float]:
    """Mean self milliseconds per request by span name, and the share of
    the root span's wall that no leaf span covers.

    Self time is a span's duration minus what its children cover of it.
    ``client`` is the latency the generator saw beyond the root span:
    HTTP, the door, admission, the response dictionary and its JSON.
    """
    self_ms = dict.fromkeys(SPAN_NAMES, 0.0)
    dark = []
    traced = [s for s in samples if s.spans]
    for sample in traced:
        children: dict[int, list[dict]] = {}
        for span in sample.spans:
            children.setdefault(span["parent_id"], []).append(span)
        roots = children.get(None, [])
        if not roots:
            continue
        root = roots[0]
        # Spans are scaled to reference speed like the latency around them.
        to_ms = 1e3 * sample.normalised / sample.latency
        leaves = []
        for span in sample.spans:
            lo, hi = span["start"], span["end"]
            kids = children.get(span["span_id"], [])
            covered = union_length(
                [(max(k["start"], lo), min(k["end"], hi)) for k in kids
                 if min(k["end"], hi) > max(k["start"], lo)]
            )
            self_ms[_metric_name(span["name"])] += (hi - lo - covered) * to_ms
            if not kids and span is not root:
                leaves.append(
                    (max(lo, root["start"]), min(hi, root["end"]))
                )
        wall = root["end"] - root["start"]
        self_ms["client"] += (sample.latency - wall) * to_ms
        lit = union_length([(lo, hi) for lo, hi in leaves if hi > lo])
        dark.append(1.0 - lit / wall if wall > 0 else 0.0)
    count = max(1, len(traced))
    return (
        {name: total / count for name, total in self_ms.items()},
        float(np.mean(dark)) if dark else 0.0,
    )


def span_records(samples: "list[Sample]") -> Iterator[dict]:
    """``trace_<workload>.jsonl`` rows: one ``client.request`` span per
    traced request and, under it, every span the program recorded."""
    for number, sample in enumerate(samples):
        if not sample.spans:
            continue
        root = next(s for s in sample.spans if s["parent_id"] is None)
        request_id = root["trace_id"]
        # The client clock and the program's are both CLOCK_MONOTONIC;
        # centre the client span on the root it waited for.
        slack = (sample.latency - (root["end"] - root["start"])) / 2.0
        yield {
            "name": "client.request", "span_id": 0, "parent": None,
            "start": root["start"] - slack, "end": root["end"] + slack,
            "request_id": request_id, "request_number": number,
            "method": sample.request.payload["method"],
        }
        for span in sample.spans:
            yield {
                "name": span["name"], "span_id": span["span_id"],
                "parent": span["parent_id"] or 0,
                "start": span["start"], "end": span["end"],
                "request_id": request_id,
                "origin": span["attributes"].get("origin", "mediator"),
            }
