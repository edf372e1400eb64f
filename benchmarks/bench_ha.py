"""High-availability benchmark: failover cost and anti-entropy rate.

Stands up a two-node cluster with replication factor 2 (every Morton
shard on both nodes) behind :class:`~repro.ha.HaTcpTransport` and
measures:

* ``healthy_threshold_s`` — median threshold latency with both
  replicas alive, the replicated-routing baseline;
* ``failover_added_s`` — the *extra* wall time of the first query
  issued after one node is killed: the dead replica's parts fail their
  dial, the router demotes it, and the shard re-scatters to the
  survivor.  The answer is verified point-for-point against the
  in-process cluster, so the number is the cost of a correct failover,
  not of a degraded one;
* ``steady_after_failover_s`` — median latency once the router has
  learned the death, i.e. the one-node steady state;
* ``antientropy_atoms_per_s`` — digest-compare throughput of a clean
  :func:`~repro.ha.anti_entropy.catch_up` pass (no drift, so the rate
  is the compare path itself);
* ``antientropy_catchup_s`` / ``antientropy_atoms_restored`` — a
  drifted pass: atoms are deleted from one replica and fetched back
  from its peer.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_ha.py
    python benchmarks/gate.py ha BENCH_ha.json

Results land in ``BENCH_ha.json``; the bounds are the ``ha`` section of
``benchmarks/targets.json``.  ``benchmarks/e2e`` probes replication at
R = 1 only, so none of these numbers has a twin there.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np

from repro.cluster.mediator import Mediator, build_cluster
from repro.cluster.node import _atom_table_name
from repro.cluster.partition import MortonPartitioner
from repro.core import ThresholdQuery
from repro.ha import HaTcpTransport, PlacementMap
from repro.ha.anti_entropy import catch_up
from repro.morton import MortonRange
from repro.net.server import ClusterConfig, NodeServer
from repro.obs.clock import Stopwatch, unix_now
from repro.simulation.datasets import mhd_dataset

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_ha.json"

SCHEMA_VERSION = 1

SIDE = 16
TIMESTEPS = 1
NODES = 2
REPLICATION = 2
HEALTHY_REPS = 5
#: Atoms deleted from one replica for the drifted catch-up leg.
DRIFT_ATOMS = 8
QUERY = ThresholdQuery(
    dataset="mhd", field="vorticity", timestep=0, threshold=0.5
)


def start_cluster() -> tuple[list[NodeServer], list[str]]:
    """Two in-thread replicated node servers over loopback, loaded."""
    config = ClusterConfig(
        dataset="mhd",
        side=SIDE,
        timesteps=TIMESTEPS,
        seed=11,
        nodes=NODES,
        replication_factor=REPLICATION,
    )
    servers = [NodeServer(i, config) for i in range(NODES)]
    addresses = [f"127.0.0.1:{s.port}" for s in servers]
    for server in servers:
        server.connect_peers(addresses)
        server.load()
        server.start()
    return servers, addresses


def make_mediator(addresses: list[str]) -> Mediator:
    """A replica-routing mediator over the running servers."""
    return Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, NODES),
        transport=HaTcpTransport(
            addresses,
            placement=PlacementMap(NODES, NODES, REPLICATION),
            timeout=300.0,
        ),
        scatter_timeout=600.0,
    )


def bench_failover(
    mediator: Mediator,
    servers: list[NodeServer],
    expected_zindexes: np.ndarray,
) -> dict[str, float]:
    def timed_threshold() -> float:
        with Stopwatch() as watch:
            result = mediator.threshold(QUERY, use_cache=False)
        assert np.array_equal(np.sort(result.zindexes), expected_zindexes)
        return watch.elapsed

    timed_threshold()  # warm connections + describe
    healthy = statistics.median(timed_threshold() for _ in range(HEALTHY_REPS))
    servers[0].shutdown()
    first_after_kill = timed_threshold()
    steady = statistics.median(timed_threshold() for _ in range(HEALTHY_REPS))
    return {
        "healthy_threshold_s": healthy,
        "post_kill_threshold_s": first_after_kill,
        "failover_added_s": max(0.0, first_after_kill - healthy),
        "steady_after_failover_s": steady,
        "ha_failovers_total": mediator.metrics.get(
            "ha_failovers_total"
        ).value,
    }


def bench_antientropy() -> dict[str, float]:
    servers, _addresses = start_cluster()
    rejoiner = servers[0]
    try:
        # Clean pass: every atom compared, nothing moved.
        with Stopwatch() as clean_watch:
            clean = catch_up(rejoiner)
        assert clean.chunks_fetched == 0
        # Drifted pass: drop atoms from one replica, fetch them back.
        full_range = MortonRange(0, SIDE**3)
        with rejoiner.node.db.transaction(None) as txn:
            atoms = rejoiner.node.read_atoms(
                txn, "mhd", "pressure", 0, [full_range], charge=False
            )
        victims = sorted(atoms)[:DRIFT_ATOMS]
        table = rejoiner.node.db.table(_atom_table_name("mhd", "pressure"))
        with rejoiner.node.db.transaction() as txn:
            for zindex in victims:
                table.delete(txn, (0, zindex))
        with Stopwatch() as drift_watch:
            drifted = catch_up(rejoiner)
        assert drifted.chunks_fetched == len(victims)
        return {
            "antientropy_atoms_checked": float(clean.atoms_checked),
            "antientropy_clean_pass_s": clean_watch.elapsed,
            "antientropy_atoms_per_s": (
                clean.atoms_checked / clean_watch.elapsed
            ),
            "antientropy_catchup_s": drift_watch.elapsed,
            "antientropy_atoms_restored": float(drifted.chunks_fetched),
            "antientropy_bytes_fetched": float(drifted.bytes_fetched),
        }
    finally:
        for server in servers:
            server.shutdown()


def run() -> dict[str, object]:
    servers, addresses = start_cluster()
    mediator = make_mediator(addresses)
    in_process = build_cluster(
        mhd_dataset(side=SIDE, timesteps=TIMESTEPS, seed=11), nodes=NODES
    )
    try:
        expected = np.sort(
            in_process.threshold(QUERY, use_cache=False).zindexes
        )
        report: dict[str, object] = {
            "benchmark": "ha",
            "schema_version": SCHEMA_VERSION,
            "generated_unix": unix_now(),
            "side": SIDE,
            "nodes": NODES,
            "replication_factor": REPLICATION,
            "threshold_points": float(len(expected)),
        }
        report.update(bench_failover(mediator, servers, expected))
    finally:
        mediator.close()
        in_process.close()
        for server in servers:
            server.shutdown()
    report.update(bench_antientropy())
    return report


def main() -> int:
    report = run()
    OUT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    sys.stderr.write(f"bench_ha -> {OUT_PATH}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
