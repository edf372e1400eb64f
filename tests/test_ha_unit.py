"""Unit tests for the ``repro.ha`` building blocks.

The chaos proof (``test_ha_failover.py``) exercises the integrated
system; this file pins the individual contracts — placement spreading,
router ordering and health transitions, the failover predicate, pool
hygiene (probe-failure eviction), replicated halo reads, and
digest anti-entropy.
"""

from __future__ import annotations

import pytest

from repro.cluster.node import _atom_table_name
from repro.cluster.partition import MortonPartitioner
from repro.core import ThresholdQuery
from repro.grid.atoms import ATOM_VOLUME
from repro.ha import PlacementMap, ReplicaRouter, chunk_digests
from repro.ha.anti_entropy import catch_up, coalesce_atoms, diverging_atoms
from repro.ha.failover import failover_worthy
from repro.morton import MortonRange
from repro.net.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    NodeUnavailableError,
    PartialFailureError,
    ProtocolError,
    RemoteCallError,
)
from repro.net.client import NodeClient
from repro.net.pool import MAX_PROBE_FAILURES, ConnectionPool
from repro.net.server import ClusterConfig, NodeServer, ReplicatedHaloPeer
from tests.net_doubles import GatedNodeServer, fill_pool


# -- placement -----------------------------------------------------------------


def test_placement_r1_is_identity():
    placement = PlacementMap(4, 4, 1)
    for shard in range(4):
        assert placement.replicas_of(shard) == (shard,)
        assert placement.shards_of(shard) == (shard,)
        assert placement.owns(shard, shard)
        assert not placement.owns(shard, (shard + 1) % 4)


def test_placement_ring_spread():
    placement = PlacementMap(4, 4, 2)
    assert [placement.replicas_of(s) for s in range(4)] == [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 0),
    ]
    # shards_of is the exact inverse of replicas_of.
    for node in range(4):
        for shard in placement.shards_of(node):
            assert node in placement.replicas_of(shard)
    for shard in range(4):
        for node in placement.replicas_of(shard):
            assert shard in placement.shards_of(node)


def test_placement_prefers_other_racks():
    placement = PlacementMap(4, 4, 2, racks=("a", "a", "b", "b"))
    # Shard 0's primary sits in rack "a", so its second copy skips
    # node 1 (same rack) for node 2.
    assert placement.replicas_of(0) == (0, 2)
    assert placement.replicas_of(2) == (2, 0)


def test_placement_full_replication():
    placement = PlacementMap(2, 2, 2)
    for node in range(2):
        assert placement.shards_of(node) == (0, 1)


def test_placement_validation():
    with pytest.raises(ValueError):
        PlacementMap(2, 4, 1)  # shards must equal nodes
    with pytest.raises(ValueError):
        PlacementMap(2, 2, 3)  # more copies than nodes
    with pytest.raises(ValueError):
        PlacementMap(2, 2, 0)
    with pytest.raises(ValueError):
        PlacementMap(2, 2, 2, racks=("a",))  # one rack label per node


def test_placement_wire_round_trip():
    placement = PlacementMap(4, 4, 2)
    wire = placement.to_wire()
    assert wire["replication_factor"] == 2
    assert wire["replicas"] == [[0, 1], [1, 2], [2, 3], [3, 0]]


def test_placement_from_partitioner():
    partitioner = MortonPartitioner(16, 2)
    placement = PlacementMap.from_partitioner(partitioner, 2)
    assert placement.shards == 2
    assert placement.replication_factor == 2


# -- router --------------------------------------------------------------------


def test_router_orders_by_ewma():
    router = ReplicaRouter(PlacementMap(2, 2, 2))
    router.record_success(0, 0.5)
    router.record_success(1, 0.1)
    assert router.route(0) == [1, 0]
    assert router.route(1) == [1, 0]
    # Fresh samples move the EWMA: node 0 becomes the fast one.
    for _ in range(20):
        router.record_success(0, 0.01)
    assert router.route(0) == [0, 1]


def test_router_unsampled_node_is_not_starved():
    router = ReplicaRouter(PlacementMap(2, 2, 2))
    router.record_success(0, 0.001)
    # Node 1 has no samples yet; it still routes first so it gets
    # traffic (and therefore samples) instead of being starved.
    assert router.route(0)[0] == 1


def test_router_health_transitions():
    router = ReplicaRouter(PlacementMap(2, 2, 2), failure_threshold=2)
    assert router.is_healthy(0)
    router.record_failure(0)
    assert router.is_healthy(0)  # below threshold
    router.record_failure(0)
    assert not router.is_healthy(0)
    assert router.unhealthy_count() == 1
    # Unhealthy nodes are demoted to last resort, never dropped.
    assert router.route(0) == [1, 0]
    # One success resets the streak.
    router.record_success(0, 0.2)
    assert router.is_healthy(0)
    assert router.unhealthy_count() == 0


def test_router_probe_once_folds_outcomes():
    rtts = {0: 0.01, 1: None}  # node 1's probe fails

    def probe(node_id: int) -> float:
        rtt = rtts[node_id]
        if rtt is None:
            raise NodeUnavailableError("stub", attempts=1, message="down")
        return rtt

    router = ReplicaRouter(
        PlacementMap(2, 2, 2), probe=probe, failure_threshold=1
    )
    router.probe_once()
    assert router.latency(0) == pytest.approx(0.01)
    assert not router.is_healthy(1)
    assert router.route(0) == [0, 1]


def test_router_requires_probe_for_heartbeat():
    router = ReplicaRouter(PlacementMap(2, 2, 2))
    with pytest.raises(ValueError):
        router.probe_once()
    with pytest.raises(ValueError):
        router.start_heartbeat()


# -- failover predicate --------------------------------------------------------


def test_failover_worthy_connection_errors():
    assert failover_worthy(ConnectionLostError("gone"))
    assert failover_worthy(DeadlineExceededError("late"))
    assert failover_worthy(
        NodeUnavailableError("host:1", attempts=3, message="down")
    )


def test_failover_worthy_remote_connection_failures():
    # A node whose *own* halo dependency died answers with a typed
    # error naming the connection failure — worth a different replica.
    assert failover_worthy(
        RemoteCallError("NodeUnavailableError", "unavailable", "halo died")
    )
    assert not failover_worthy(
        RemoteCallError("ValueError", "bad_request", "bad box")
    )


def test_failover_worthy_rejects_logic_errors():
    assert not failover_worthy(ProtocolError("desync"))
    assert not failover_worthy(ValueError("nope"))


# -- partial failure metadata --------------------------------------------------


def test_partial_failure_error_defaults_node_ids():
    error = PartialFailureError(2, "part lost")
    assert error.node_id == 2
    assert error.node_ids == (2,)
    assert error.ranges == ()


def test_partial_failure_error_carries_blast_radius():
    rng = MortonRange(0, 2048)
    error = PartialFailureError(
        0, "all replicas dead", node_ids=(0, 1), ranges=(rng,)
    )
    assert error.node_ids == (0, 1)
    assert error.ranges == (rng,)


# -- pool hygiene --------------------------------------------------------------


def test_pool_validates_hygiene_options():
    with pytest.raises(ValueError):
        ConnectionPool("127.0.0.1", 1, max_connections=0)


def test_pool_probe_failures_evict_everything(monkeypatch):
    """Each failed probe costs the connection it rode; the one that
    reaches the threshold takes every idle connection with it."""
    config = ClusterConfig(
        dataset="mhd", side=16, timesteps=1, seed=23, nodes=1
    )
    server = GatedNodeServer(0, config)
    server.start()
    pool = ConnectionPool("127.0.0.1", server.port, max_connections=5)

    def timed_out(self, deadline):
        raise DeadlineExceededError("health ping timed out")

    try:
        fill_pool(pool, server, 5)
        monkeypatch.setattr(NodeClient, "ping", timed_out)
        for failures in range(1, MAX_PROBE_FAILURES):
            with pytest.raises(DeadlineExceededError):
                pool.ping(1.0)
            assert pool.open_connections == 5 - failures
            assert pool.probe_failures == failures
        with pytest.raises(DeadlineExceededError):
            pool.ping(1.0)
        assert pool.open_connections == 0
        assert pool.probe_failures == 0  # clean slate after the purge
    finally:
        pool.close()
        server.shutdown()


def test_pool_ping_success_resets_probe_failures():
    pool = ConnectionPool("127.0.0.1", 1)
    pool._ping_once = lambda timeout: 0.001
    pool.probe_failures = 2
    assert pool.ping(1.0) == 0.001
    assert pool.probe_failures == 0


# -- replicated halo reads -----------------------------------------------------


class _StubHaloPeer:
    def __init__(self, error=None, atoms=None):
        self.error = error
        self.atoms = atoms or {}
        self.calls = 0

    def serve_halo(self, dataset, field, timestep, ranges, ledger):
        self.calls += 1
        if self.error is not None:
            raise self.error
        return self.atoms


def test_replicated_halo_peer_fails_over():
    dead = _StubHaloPeer(error=ConnectionLostError("gone"))
    live = _StubHaloPeer(atoms={0: b"x"})
    peer = ReplicatedHaloPeer([dead, live])
    assert peer.serve_halo("mhd", "f", 0, [], None) == {0: b"x"}
    assert dead.calls == 1 and live.calls == 1


def test_replicated_halo_peer_propagates_logic_errors():
    bad = _StubHaloPeer(error=ValueError("bad request"))
    live = _StubHaloPeer(atoms={0: b"x"})
    peer = ReplicatedHaloPeer([bad, live])
    with pytest.raises(ValueError):
        peer.serve_halo("mhd", "f", 0, [], None)
    assert live.calls == 0


def test_replicated_halo_peer_exhaustion():
    peers = [
        _StubHaloPeer(error=NodeUnavailableError("a", attempts=1, message="x")),
        _StubHaloPeer(error=ConnectionLostError("y")),
    ]
    with pytest.raises(NodeUnavailableError):
        ReplicatedHaloPeer(peers).serve_halo("mhd", "f", 0, [], None)
    with pytest.raises(ValueError):
        ReplicatedHaloPeer([])


# -- anti-entropy primitives ---------------------------------------------------


def test_chunk_digests_are_stable_and_distinct():
    first = chunk_digests({0: b"abc", 512: b"xyz"})
    assert first == chunk_digests({0: b"abc", 512: b"xyz"})
    assert first[0] != first[512]
    assert all(len(digest) == 16 for digest in first.values())  # 8 bytes hex


def test_diverging_atoms_peer_is_truth():
    local = {0: "aa", 512: "bb"}
    remote = {0: "aa", 512: "CHANGED", 1024: "new"}
    # 512 differs, 1024 is missing locally; local-only atoms are kept.
    assert diverging_atoms(local, remote) == [512, 1024]
    assert diverging_atoms({99: "only-local"}, {}) == []


def test_coalesce_atoms_merges_adjacent():
    v = ATOM_VOLUME
    ranges = coalesce_atoms([0, v, 3 * v, 4 * v, 10 * v])
    assert ranges == [
        MortonRange(0, 2 * v),
        MortonRange(3 * v, 5 * v),
        MortonRange(10 * v, 11 * v),
    ]
    assert coalesce_atoms([]) == []


# -- anti-entropy end to end ---------------------------------------------------


def _start_replicated_pair():
    config = ClusterConfig(
        dataset="mhd",
        side=16,
        timesteps=1,
        seed=11,
        nodes=2,
        cache_capacity_bytes=None,
        replication_factor=2,
    )
    servers = [NodeServer(i, config) for i in range(2)]
    addresses = [f"127.0.0.1:{s.port}" for s in servers]
    for server in servers:
        server.connect_peers(addresses)
        server.load()
        server.start()
    return servers


def test_catch_up_restores_deleted_atoms():
    servers = _start_replicated_pair()
    try:
        rejoiner = servers[0]
        full_range = MortonRange(0, 16**3)
        with rejoiner.node.db.transaction(None) as txn:
            before = rejoiner.node.read_atoms(
                txn, "mhd", "pressure", 0, [full_range], charge=False
            )
        assert before
        # Simulate drift: drop a contiguous pair plus a lone atom.
        victims = sorted(before)[:2] + [sorted(before)[5]]
        table = rejoiner.node.db.table(_atom_table_name("mhd", "pressure"))
        with rejoiner.node.db.transaction() as txn:
            for zindex in victims:
                assert table.delete(txn, (0, zindex))
        report = catch_up(rejoiner)
        assert report.shards == (0, 1)
        assert report.chunks_fetched == len(victims)
        assert report.bytes_fetched > 0
        with rejoiner.node.db.transaction(None) as txn:
            after = rejoiner.node.read_atoms(
                txn, "mhd", "pressure", 0, [full_range], charge=False
            )
        assert after == before
        # A second pass finds nothing to move.
        clean = catch_up(rejoiner)
        assert clean.chunks_fetched == 0
        assert clean.atoms_checked == report.atoms_checked
    finally:
        for server in servers:
            server.shutdown()


def test_catch_up_requires_peer_addresses():
    config = ClusterConfig(
        dataset="mhd", side=16, timesteps=1, seed=11, nodes=1
    )
    server = NodeServer(0, config)
    try:
        with pytest.raises(ValueError):
            catch_up(server)
    finally:
        server.shutdown()


# -- cluster config ------------------------------------------------------------


def test_cluster_config_replication_round_trip(tmp_path):
    config = ClusterConfig(
        dataset="mhd",
        side=16,
        timesteps=1,
        seed=11,
        nodes=2,
        replication_factor=2,
    )
    config.save(tmp_path)
    loaded = ClusterConfig.load(tmp_path)
    assert loaded.replication_factor == 2


def test_cluster_config_legacy_default(tmp_path):
    ClusterConfig(dataset="mhd", side=16, timesteps=1, seed=11, nodes=2).save(
        tmp_path
    )
    assert ClusterConfig.load(tmp_path).replication_factor == 1


def test_cluster_config_validates_replication():
    with pytest.raises(ValueError):
        ClusterConfig(
            dataset="mhd",
            side=16,
            timesteps=1,
            seed=11,
            nodes=2,
            replication_factor=3,
        )
    with pytest.raises(ValueError):
        ClusterConfig(
            dataset="mhd",
            side=16,
            timesteps=1,
            seed=11,
            nodes=2,
            replication_factor=0,
        )


def test_mediator_part_failure_names_replicas():
    # The mediator's wrapper turns a transport error's `attempted` node
    # list into machine-readable PartialFailureError metadata.
    from repro.cluster.mediator import Mediator
    from repro.net.errors import NoLiveReplicaError

    class _FailingTransport:
        node_count = 2

        def attach(self, metrics, spec):
            pass

        def dataset_side(self, dataset):
            return 16

        def threshold_part(self, node_id, query, boxes, **kwargs):
            raise NoLiveReplicaError(node_id, (0, 1), "no live replica")

        def close(self):
            pass

    mediator = Mediator(
        nodes=[],
        partitioner=MortonPartitioner(16, 2),
        transport=_FailingTransport(),
        cache_capacity_bytes=None,
    )
    with pytest.raises(PartialFailureError) as excinfo:
        mediator.threshold(
            ThresholdQuery("mhd", "vorticity", 0, 0.5), use_cache=False
        )
    error = excinfo.value
    assert set(error.node_ids) == {0, 1}
    assert error.ranges == (MortonPartitioner(16, 2).node_ranges(error.node_id),)
