"""Streamed-transfer benchmark: PARTIAL frames over raw TCP and the ring.

Stands up a real two-node cluster in-thread (NodeServer instances over
loopback TCP) plus an identical in-process reference, and measures what
``benchmarks/e2e`` cannot reach — no end-to-end answer is as large as
``STREAM_CHUNK_POINTS`` and the e2e probes have no shm leg:

* a **payload sweep** — 64 KiB / 1 MiB / 16 MiB point-set transfers via
  the server's ``echo`` RPC, streamed as PARTIAL frames over ``raw``
  TCP (no codec) and over ``shm`` (same-host shared-memory ring, no
  codec) — recording MiB/s plus p50/p90 latency, and the headline
  ``shm_speedup_vs_raw``;
* a threshold query over a connection that negotiated the ring, equal
  point for point to the in-process answer, with its ``wire_bytes``.

Everything else this file used to time (ping, the zlib / shuffle echo
legs, TCP against in-process) is an e2e probe now: ``net.transport.*``,
``net.compress.*``, ``core.threshold.node_ms.*``.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_net.py
    python benchmarks/gate.py net_shm BENCH_net_shm.json

The first writes ``BENCH_net_shm.json``; the bounds are the ``net_shm``
section of ``benchmarks/targets.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np

from repro.cluster.mediator import Mediator, build_cluster
from repro.cluster.partition import MortonPartitioner
from repro.core import ThresholdQuery
from repro.net.compress import NO_COMPRESSION
from repro.net.server import ClusterConfig, NodeServer
from repro.net.stream import ByteStreamSink
from repro.net.transport import TcpTransport
from repro.obs.clock import Stopwatch, unix_now
from repro.simulation.datasets import mhd_dataset

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_net_shm.json"

#: Version of the report's key set; bump when keys are added, renamed
#: or removed so downstream dashboards can detect layout changes.
SCHEMA_VERSION = 3

SIDE = 16
TIMESTEPS = 2
NODES = 2
#: Payload sweep sizes (raw packed point-set bytes; 16 bytes/point).
SWEEP_SIZES = (
    (64 * 1024, "64KiB"),
    (1024 * 1024, "1MiB"),
    (16 * 1024 * 1024, "16MiB"),
)
QUERY = ThresholdQuery(
    dataset="mhd", field="vorticity", timestep=0, threshold=0.5
)


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


def make_mediator(addresses: list[str], **transport_kwargs) -> Mediator:
    """A TCP mediator over the running servers."""
    return Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, NODES),
        transport=TcpTransport(addresses, timeout=300.0, **transport_kwargs),
        scatter_timeout=600.0,
    )


def _echo_once(transport: TcpTransport, points: int, raw_bytes: int) -> float:
    """One timed echo transfer; verifies every raw byte arrived."""
    sink = ByteStreamSink()
    with Stopwatch() as watch:
        call = transport.call(
            0, "echo", {"points": points}, sink=sink, timeout=300.0
        )
    received = sink.raw_bytes + sum(len(blob) for blob in call.blobs)
    if received != raw_bytes:
        raise AssertionError(
            f"echo returned {received} raw bytes, expected {raw_bytes}"
        )
    return watch.elapsed


def bench_payload_sweep(
    legs: "list[tuple[str, TcpTransport]]",
) -> dict[str, float]:
    """MiB/s and p50/p90 latency per payload size, per data-plane leg.

    Throughput derives from the *minimum* time (the ``timeit``
    convention: on a small box the lowest observation is the least
    scheduler-disturbed estimate of the path's real capability, and the
    gated transport ratio needs that stability); p50/p90 stay as
    latency diagnostics, where the jitter itself is the information.
    """
    out: dict[str, float] = {}
    for raw_bytes, label in SWEEP_SIZES:
        points = raw_bytes // 16
        reps = 7 if raw_bytes >= 16 * 1024 * 1024 else 9
        for leg_name, transport in legs:
            _echo_once(transport, points, raw_bytes)  # warm the path
            times = sorted(
                _echo_once(transport, points, raw_bytes)
                for _ in range(reps)
            )
            p50 = statistics.median(times)
            p90 = times[min(int(len(times) * 0.9), len(times) - 1)]
            prefix = f"echo_{label}_{leg_name}"
            out[f"{prefix}_mib_per_s"] = raw_bytes / times[0] / (1024 * 1024)
            out[f"{prefix}_p50_ms"] = p50 * 1e3
            out[f"{prefix}_p90_ms"] = p90 * 1e3
    out["shm_speedup_vs_raw"] = (
        out["echo_16MiB_shm_mib_per_s"] / out["echo_16MiB_raw_mib_per_s"]
    )
    return out


def bench_threshold(shm: Mediator, in_process: Mediator) -> dict[str, float]:
    """One threshold query over a ring-negotiated connection, checked
    point for point against the in-process answer."""
    over_shm = shm.threshold(QUERY, use_cache=False)
    local = in_process.threshold(QUERY, use_cache=False)
    if not (
        np.array_equal(over_shm.zindexes, local.zindexes)
        and np.array_equal(over_shm.values, local.values)
    ):
        raise AssertionError("the answer over shm differs from in-process")
    return {
        "threshold_points": float(len(over_shm)),
        "threshold_wire_bytes": float(
            over_shm.ledger.meters().get("wire_bytes", 0.0)
        ),
    }


def run() -> dict[str, object]:
    servers, addresses = start_cluster()
    raw_tcp = make_mediator(addresses, compression=NO_COMPRESSION)
    shm_tcp = make_mediator(addresses, compression=NO_COMPRESSION, shm=True)
    in_process = build_cluster(
        mhd_dataset(side=SIDE, timesteps=TIMESTEPS, seed=11), nodes=NODES
    )
    try:
        report: dict[str, object] = {
            "benchmark": "net_shm",
            "schema_version": SCHEMA_VERSION,
            "generated_unix": unix_now(),
            "side": SIDE,
            "nodes": NODES,
        }
        report.update(
            bench_payload_sweep(
                [("raw", raw_tcp.transport), ("shm", shm_tcp.transport)]
            )
        )
        report.update(bench_threshold(shm_tcp, in_process))
        return report
    finally:
        raw_tcp.close()
        shm_tcp.close()
        in_process.close()
        for server in servers:
            server.shutdown()


def main() -> int:
    report = run()
    OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    sys.stderr.write(f"bench_net -> {OUT_PATH}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
