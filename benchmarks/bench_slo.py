"""SLO benchmark: open-loop mixed traffic, latency percentiles.

Two profiles, selected with ``--profile``, each bounded by its own
section (``slo.default`` / ``slo.scale``) of ``benchmarks/targets.json``:

``default``
    The original mediator-level check.  Stands up a two-node loopback
    TCP cluster (in-thread node servers) and drives it the way a
    service-level objective is actually checked: an **open-loop load
    generator** (requests depart on a fixed arrival schedule regardless
    of completions, so queueing shows up in the tail instead of being
    hidden by back-pressure) mixing threshold, top-k and PDF traffic;
    **p50/p99 wall latency per query class** plus the overall error
    rate; and the **span-category breakdown** of the traced load.

``scale``
    The front-door check.  Puts :class:`repro.net.aio.AsyncHttpFrontend`
    (admission control, prioritized queue, bounded bridge) over the same
    cluster and sustains **thousands of concurrent keep-alive clients**
    from an asyncio open-loop generator: every request departs on a
    global schedule, latency is measured from the *scheduled* departure,
    and every response must be either a correct answer or a well-formed
    typed shed.  Reports per-class p50/p99, shed rate and reasons, the
    admitted-request error rate, and the queue-wait breakdown from the
    door's own histogram.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_slo.py [--profile default|scale]
    python benchmarks/gate.py slo.default BENCH_slo.json
    python benchmarks/gate.py slo.scale BENCH_slo_scale.json

The default profile also writes the stitched traces to
``slo_trace.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.cluster.admission import AdmissionController
from repro.cluster.mediator import Mediator
from repro.cluster.partition import MortonPartitioner
from repro.cluster.webservice import WebService
from repro.core import PdfQuery, ThresholdQuery, TopKQuery
from repro.net.aio import AsyncHttpFrontend
from repro.net.server import ClusterConfig, NodeServer
from repro.net.transport import TcpTransport
from repro.obs import clock, tracing
from repro.obs.clock import Stopwatch, unix_now

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATHS = {
    "default": REPO_ROOT / "BENCH_slo.json",
    "scale": REPO_ROOT / "BENCH_slo_scale.json",
}
TRACE_PATH = REPO_ROOT / "slo_trace.jsonl"

#: Version of the report's key set; bump when keys are added,
#: renamed or removed so downstream dashboards can detect layout
#: changes.  v4: one report per profile; the target sheet is
#: ``benchmarks/targets.json``, no longer embedded in the report.
#: v5: the profiler-overhead keys are gone.
SCHEMA_VERSION = 5

#: The loopback cluster both profiles drive: an MHD cube of ``SIDE``
#: points per axis and ``TIMESTEPS`` timesteps over ``NODES`` nodes.
SIDE = 16
TIMESTEPS = 2
NODES = 2

#: Open-loop arrival rate (requests per second) and request count of
#: the default (mediator-level) profile.
ARRIVAL_RATE = 6.0
REQUESTS = 48

#: Scale-profile defaults: concurrent keep-alive clients, total
#: arrival rate, run length, and the tenant population the clients are
#: spread over.  Tuned for a small shared CI box: the light class sits
#: far below the door's sequential capacity and the query class rides
#: the mediator's result cache.
SCALE_CLIENTS = 1000
SCALE_ARRIVAL_RATE = 120.0
SCALE_DURATION_S = 12.0
SCALE_TENANTS = 8
SCALE_MAX_INFLIGHT = 4

#: Scale-profile traffic mix, cycled deterministically: nine light
#: introspection requests for every threshold query.
SCALE_MIX = ("light",) * 9 + ("query",)

#: Per-class shed/response codes a flooded client may legitimately see.
SHED_CODES = {"quota_exceeded", "queue_full", "queue_timeout", "overloaded"}

THRESHOLD_QUERY = ThresholdQuery(
    dataset="mhd", field="vorticity", timestep=0, threshold=0.5
)
TOPK_QUERY = TopKQuery(dataset="mhd", field="pressure", timestep=0, k=32)
PDF_QUERY = PdfQuery(
    dataset="mhd",
    field="pressure",
    timestep=1,
    bin_edges=tuple(-3.0 + 0.5 * i for i in range(13)),
)

#: The default profile's traffic mix, cycled deterministically: half
#: threshold scans, a quarter each top-k and PDF.
MIX = ("threshold", "topk", "threshold", "pdf")

#: Request bodies of the scale profile's two traffic classes.
SCALE_REQUESTS = {
    "light": {"method": "ListFields"},
    "query": {
        "method": "GetThreshold",
        "dataset": "mhd",
        "field": "vorticity",
        "timestep": 0,
        "threshold": 0.5,
    },
}


def start_cluster() -> tuple[list[NodeServer], list[str]]:
    """Two in-thread node servers over loopback, data loaded."""
    config = ClusterConfig(
        dataset="mhd", side=SIDE, timesteps=TIMESTEPS, seed=11, nodes=NODES
    )
    servers = [NodeServer(i, config) for i in range(NODES)]
    addresses = [f"127.0.0.1:{s.port}" for s in servers]
    for server in servers:
        server.connect_peers(addresses)
        server.load()
        server.start()
    return servers, addresses


def make_mediator(addresses: list[str]) -> Mediator:
    """A TCP mediator over the running servers."""
    return Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, NODES),
        transport=TcpTransport(addresses, timeout=300.0),
        scatter_timeout=600.0,
    )


def issue(mediator: Mediator, kind: str) -> object:
    if kind == "threshold":
        return mediator.threshold(THRESHOLD_QUERY, use_cache=False)
    if kind == "topk":
        return mediator.topk(TOPK_QUERY)
    if kind == "pdf":
        return mediator.pdf(PDF_QUERY)
    raise ValueError(f"unknown query class {kind!r}")


def percentile(samples: list[float], q: float) -> float:
    ranked = sorted(samples)
    return ranked[min(int(len(ranked) * q), len(ranked) - 1)]


def bench_open_loop(
    mediator: Mediator,
    collector: tracing.TraceCollector,
    arrival_rate: float,
    requests: int,
) -> dict[str, object]:
    """Fixed-schedule mixed traffic; latency is measured per departure
    slot, so a slow server shows up as tail latency, not a slower test."""
    latencies: dict[str, list[float]] = {kind: [] for kind in set(MIX)}
    errors = 0

    def one(kind: str) -> tuple[str, float, bool]:
        with Stopwatch() as watch:
            try:
                issue(mediator, kind)
            except Exception:
                return kind, watch.elapsed, True
        return kind, watch.elapsed, False

    schedule = [MIX[i % len(MIX)] for i in range(requests)]
    with ThreadPoolExecutor(max_workers=16) as pool:
        started = clock.now()
        futures = []
        for slot, kind in enumerate(schedule):
            pause = started + slot / arrival_rate - clock.now()
            if pause > 0:
                clock.sleep(pause)
            futures.append(pool.submit(one, kind))
        for future in futures:
            kind, elapsed, failed = future.result()
            if failed:
                errors += 1
            else:
                latencies[kind].append(elapsed)

    out: dict[str, object] = {
        "requests": requests,
        "arrival_rate_per_s": arrival_rate,
        "error_rate": errors / requests,
    }
    for kind, samples in sorted(latencies.items()):
        out[f"{kind}_requests"] = len(samples)
        if samples:
            out[f"{kind}_p50_ms"] = statistics.median(samples) * 1e3
            out[f"{kind}_p99_ms"] = percentile(samples, 0.99) * 1e3

    # Span-category breakdown of the traced load: wall seconds per span
    # name across every stitched trace, plus how much of it ran on the
    # nodes (grafted spans carry origin=nodeN).
    span_seconds: dict[str, float] = {}
    remote_seconds = 0.0
    total_spans = 0
    for trace_id in collector.trace_ids():
        for span in collector.trace(trace_id):
            total_spans += 1
            span_seconds[span.name] = (
                span_seconds.get(span.name, 0.0) + span.wall_seconds
            )
            if span.attributes.get("origin"):
                remote_seconds += span.wall_seconds
    out["traces"] = len(collector.trace_ids())
    out["spans"] = total_spans
    out["span_seconds_by_name"] = {
        name: round(seconds, 6)
        for name, seconds in sorted(span_seconds.items())
    }
    out["remote_span_seconds"] = round(remote_seconds, 6)
    return out


def run(arrival_rate: float, requests: int) -> dict[str, object]:
    """The default profile: the mediator-level open loop."""
    servers, addresses = start_cluster()
    mediator = make_mediator(addresses)
    collector = tracing.install(tracing.TraceCollector(max_traces=1024))
    try:
        report: dict[str, object] = {"side": SIDE, "nodes": len(servers)}
        report.update(
            bench_open_loop(mediator, collector, arrival_rate, requests)
        )
        TRACE_PATH.write_text(collector.to_jsonl())
        return report
    finally:
        tracing.uninstall()
        mediator.close()
        for server in servers:
            server.shutdown()


# -- scale profile: the asyncio front door under thousands of clients --


async def _read_http_response(
    reader: asyncio.StreamReader,
) -> tuple[int, dict]:
    """One framed HTTP/1.1 response: ``(status, parsed JSON body)``."""
    head = await asyncio.wait_for(reader.readline(), 30.0)
    status = int(head.split()[1])
    length = 0
    while True:
        line = await asyncio.wait_for(reader.readline(), 30.0)
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    raw = await asyncio.wait_for(reader.readexactly(length), 30.0)
    return status, json.loads(raw)


def _encode_request(kind: str, tenant: str) -> bytes:
    payload = json.dumps(SCALE_REQUESTS[kind]).encode("utf-8")
    head = (
        f"POST / HTTP/1.1\r\nContent-Type: application/json\r\n"
        f"X-Tenant: {tenant}\r\nContent-Length: {len(payload)}\r\n\r\n"
    ).encode("latin-1")
    return head + payload


async def _scale_client(
    port: int,
    tenant: str,
    slots: list[tuple[float, str]],
    start_at: float,
    results: list[tuple[str, float, str]],
) -> None:
    """One keep-alive client draining its share of the global schedule.

    ``slots`` are (relative departure time, kind) pairs.  Latency is
    measured from the *scheduled* departure, so a busy connection (or a
    slow door) shows up as tail latency — the open-loop property.
    """
    loop = asyncio.get_running_loop()
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection("127.0.0.1", port), 30.0
    )
    try:
        for offset, kind in slots:
            scheduled = start_at + offset
            pause = scheduled - loop.time()
            if pause > 0:
                await asyncio.sleep(pause)
            outcome = "malformed"
            try:
                writer.write(_encode_request(kind, tenant))
                await asyncio.wait_for(writer.drain(), 30.0)
                status, body = await _read_http_response(reader)
                if status == 200 and body.get("status") == "ok":
                    outcome = "ok"
                elif (
                    status in (429, 503)
                    and body.get("code") in SHED_CODES
                    and body.get("retry_after_s", 0) > 0
                ):
                    outcome = "shed"
                else:
                    outcome = "error"
            except (OSError, asyncio.TimeoutError, ValueError):
                outcome = "malformed"
            results.append((kind, loop.time() - scheduled, outcome))
    finally:
        writer.close()
        try:
            await asyncio.wait_for(writer.wait_closed(), 5.0)
        except (OSError, asyncio.TimeoutError):
            pass


async def _scale_drive(
    port: int, clients: int, arrival_rate: float, duration: float
) -> list[tuple[str, float, str]]:
    """Open ``clients`` keep-alive connections and run the open loop."""
    total = int(arrival_rate * duration)
    # Global departure schedule, round-robined over the client pool so
    # every connection stays live for the whole run.
    per_client: list[list[tuple[float, str]]] = [[] for _ in range(clients)]
    for slot in range(total):
        kind = SCALE_MIX[slot % len(SCALE_MIX)]
        per_client[slot % clients].append((slot / arrival_rate, kind))
    results: list[tuple[str, float, str]] = []
    loop = asyncio.get_running_loop()
    # Give the door time to accept the whole pool before traffic starts.
    start_at = loop.time() + max(2.0, clients / 500.0)
    tasks = [
        asyncio.ensure_future(
            _scale_client(
                port,
                f"t{index % SCALE_TENANTS}",
                slots,
                start_at,
                results,
            )
        )
        for index, slots in enumerate(per_client)
    ]
    await asyncio.gather(*tasks)
    return results


def run_scale(
    clients: int, arrival_rate: float, duration: float
) -> dict[str, object]:
    """The scale profile: the async door under an open-loop client fleet."""
    servers, addresses = start_cluster()
    mediator = make_mediator(addresses)
    service = WebService(mediator)
    per_tenant = arrival_rate / SCALE_TENANTS
    admission = AdmissionController(
        service.metrics,
        # Quotas sized to the offered load with ~2x headroom: normal
        # jitter is admitted, a runaway tenant is not.
        tenant_rate=per_tenant * 2.0,
        tenant_burst=max(8.0, per_tenant * 4.0),
        max_queue_depth=256,
        max_queue_wait=5.0,
        workers=SCALE_MAX_INFLIGHT,
    )
    door = AsyncHttpFrontend(
        service, admission=admission, max_inflight=SCALE_MAX_INFLIGHT
    )
    door.start()
    try:
        # Warm the mediator's result cache so the query class measures
        # the door, not one cold scatter.
        service.handle(dict(SCALE_REQUESTS["query"]))
        results = asyncio.run(
            _scale_drive(door.port, clients, arrival_rate, duration)
        )
    finally:
        door.shutdown()
        mediator.close()
        for server in servers:
            server.shutdown()

    admitted = [r for r in results if r[2] == "ok"]
    shed = [r for r in results if r[2] == "shed"]
    errored = [r for r in results if r[2] == "error"]
    malformed = [r for r in results if r[2] == "malformed"]
    total = len(results)
    out: dict[str, object] = {
        "scale_clients": clients,
        "scale_tenants": SCALE_TENANTS,
        "scale_arrival_rate_per_s": arrival_rate,
        "scale_duration_s": duration,
        "scale_requests": total,
        "scale_admitted": len(admitted),
        "scale_shed": len(shed),
        "scale_shed_rate": len(shed) / total if total else 0.0,
        "scale_admitted_error_rate": (
            len(errored) / (len(admitted) + len(errored))
            if admitted or errored
            else 0.0
        ),
        "scale_malformed_responses": len(malformed),
    }
    for kind in sorted(set(SCALE_MIX)):
        samples = [latency for k, latency, _ in admitted if k == kind]
        out[f"scale_{kind}_requests"] = len(samples)
        if samples:
            out[f"scale_{kind}_p50_ms"] = statistics.median(samples) * 1e3
            out[f"scale_{kind}_p99_ms"] = percentile(samples, 0.99) * 1e3
    # Queue-wait breakdown and shed reasons straight from the door's
    # own instruments — the same numbers /stats exports in production.
    waits = service.metrics.get("aio_queue_wait_seconds")
    for labels, hist in waits.series():
        out[f"scale_queue_wait_{labels[0]}_mean_ms"] = hist.mean * 1e3
        out[f"scale_queue_wait_{labels[0]}_count"] = hist.count
    sheds = service.metrics.get("aio_sheds_total")
    out["scale_sheds_by_reason"] = {
        labels[0]: counter.value for labels, counter in sheds.series()
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--profile",
        choices=tuple(OUT_PATHS),
        default="default",
        help="default: mediator-level open loop; scale: the asyncio "
        "front door under thousands of keep-alive clients",
    )
    profile = parser.parse_args(argv).profile
    if profile == "scale":
        report = run_scale(SCALE_CLIENTS, SCALE_ARRIVAL_RATE, SCALE_DURATION_S)
    else:
        report = run(ARRIVAL_RATE, REQUESTS)
    report["benchmark"] = "slo"
    report["profile"] = profile
    report["generated_unix"] = unix_now()
    report["schema_version"] = SCHEMA_VERSION
    OUT_PATHS[profile].write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    sys.stderr.write(f"bench_slo[{profile}] -> {OUT_PATHS[profile]}\n")
    if profile == "default":
        sys.stderr.write(f"bench_slo: traces -> {TRACE_PATH}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
