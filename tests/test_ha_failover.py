"""Chaos proof: kill a replica mid-query, answers stay byte-identical.

A two-node cluster with replication factor 2 (each node holds both
Morton shards) is queried through :class:`~repro.ha.HaTcpTransport`
while one node is killed at the nastiest possible moments — before
answering, mid-PARTIAL-stream, and mid-shm-grant.  A four-node cluster
at the same factor loses a node between queries, which moves node
servers' halo reads onto surviving replicas too.  Every leg asserts
point-for-point equality with the in-process reference cluster: the
failed shard parts restart clean on the survivor and the gather's
merge produces the same Morton-sorted columns.
"""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro.cluster.mediator import Mediator, build_cluster
from repro.cluster.partition import MortonPartitioner
from repro.core import ThresholdQuery
from repro.ha import HaTcpTransport, PlacementMap
from repro.net.errors import NoLiveReplicaError, PartialFailureError
from repro.net.server import ClusterConfig, NodeServer
from repro.simulation.datasets import mhd_dataset
from tests.net_doubles import shm_segments

SIDE = 16
TIMESTEPS = 1
NODES = 2
QUERY = ThresholdQuery("mhd", "vorticity", 0, 0.5)
#: Small chunks so even this toy domain streams many PARTIAL frames.
CHUNK_POINTS = 64


class DyingNodeServer(NodeServer):
    """A node server with chaos switches for abrupt mid-query death.

    ``kill()`` emulates a crashed process as closely as one thread can:
    stop accepting, close the listener, and hard-close every open
    connection socket so clients observe resets/EOF, not clean
    shutdowns.  The switches arm a kill at a specific protocol moment.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.die_before_answer = False
        self.die_after_partials: int | None = None
        self.die_on_hello = False
        self._kill_lock = threading.Lock()
        self.killed = False

    def kill(self) -> None:
        with self._kill_lock:
            if self.killed:
                return
            self.killed = True
        self._running = False
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._open_conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def _accept_loop(self):
        try:
            super()._accept_loop()
        except OSError:
            # kill() closes the listener under the accept thread's feet.
            if not self.killed:
                raise

    def _dispatch(self, method, header, blobs):
        if self.die_before_answer and method == "threshold":
            self.die_before_answer = False
            self.kill()
            raise OSError("node killed before answering")
        return super()._dispatch(method, header, blobs)

    def _point_stream(self, items):
        for sent, message in enumerate(super()._point_stream(items)):
            if (
                self.die_after_partials is not None
                and sent >= self.die_after_partials
            ):
                self.die_after_partials = None
                self.kill()
                raise OSError("node killed mid-stream")
            yield message

    def _answer_hello(self, state, request_id, payload):
        if self.die_on_hello:
            self.die_on_hello = False
            self.kill()
            raise OSError("node killed during handshake")
        super()._answer_hello(state, request_id, payload)


def start_cluster(
    shm: bool = False, nodes: int = NODES
) -> tuple[list[DyingNodeServer], list[str]]:
    """Replicated (R = 2) in-thread node servers over loopback, loaded."""
    config = ClusterConfig(
        dataset="mhd",
        side=SIDE,
        timesteps=TIMESTEPS,
        seed=11,
        nodes=nodes,
        cache_capacity_bytes=None,
        replication_factor=2,
    )
    servers = [
        DyingNodeServer(
            i, config, stream_chunk_points=CHUNK_POINTS, shm=shm
        )
        for i in range(nodes)
    ]
    addresses = [f"127.0.0.1:{s.port}" for s in servers]
    for server in servers:
        server.connect_peers(addresses)
        server.load()
        server.start()
    return servers, addresses


def make_ha_mediator(addresses: list[str], **transport_kwargs) -> Mediator:
    nodes = len(addresses)
    transport = HaTcpTransport(
        addresses,
        placement=PlacementMap(nodes, nodes, 2),
        timeout=30.0,
        **transport_kwargs,
    )
    return Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, nodes),
        transport=transport,
        cache_capacity_bytes=None,
        scatter_timeout=120.0,
    )


def prefer(mediator: Mediator, victim: int) -> None:
    """Seed the router so every shard routes to ``victim`` first.

    Chaos must be deterministic: the kill switch only fires if the
    armed node actually receives the query part, so we teach the
    latency-aware router that the victim is the fast replica.
    """
    router = mediator.transport.router
    router.record_success(victim, 0.0001)
    router.record_success(1 - victim, 10.0)


@pytest.fixture(scope="module")
def reference():
    """The in-process cluster's answer — the byte-identity oracle."""
    dataset = mhd_dataset(side=SIDE, timesteps=TIMESTEPS, seed=11)
    with build_cluster(dataset, nodes=NODES, cache_capacity_bytes=None) as mediator:
        result = mediator.threshold(QUERY, use_cache=False)
        yield result.zindexes.copy(), result.values.copy()


def assert_identical(result, reference) -> None:
    zindexes, values = reference
    assert np.array_equal(result.zindexes, zindexes)
    assert np.array_equal(result.values, values)


@pytest.mark.parametrize("victim", [0, 1])
def test_replicated_cluster_answers_without_failures(victim, reference):
    # Baseline: replication changes placement, not answers.
    servers, addresses = start_cluster()
    try:
        with make_ha_mediator(addresses) as mediator:
            assert_identical(
                mediator.threshold(QUERY, use_cache=False), reference
            )
            # Both nodes ingested both shards.
            for server in servers:
                assert server.placement.shards_of(server.node_id) == (0, 1)
    finally:
        for server in servers:
            server.shutdown()
    del victim  # placement is symmetric; parametrize documents intent


@pytest.mark.parametrize("victim", [0, 1])
def test_kill_before_answer_monolithic(victim, reference):
    servers, addresses = start_cluster()
    try:
        with make_ha_mediator(addresses) as mediator:
            prefer(mediator, victim)
            servers[victim].die_before_answer = True
            result = mediator.threshold(QUERY, use_cache=False)
            assert_identical(result, reference)
            assert servers[victim].killed
            # The survivor actually served: its EWMA moved off the seed.
            assert mediator.transport.router.latency(1 - victim) != 10.0
    finally:
        for server in servers:
            server.shutdown()


@pytest.mark.parametrize("victim", [0, 1])
def test_kill_mid_partial_stream(victim, reference):
    servers, addresses = start_cluster()
    try:
        with make_ha_mediator(addresses) as mediator:
            prefer(mediator, victim)
            # Warm the connections so the kill hits an active stream.
            mediator.transport.ping(victim)
            servers[victim].die_after_partials = 2
            result = mediator.threshold(QUERY, use_cache=False)
            assert_identical(result, reference)
            assert servers[victim].killed
    finally:
        for server in servers:
            server.shutdown()


def test_kill_mid_shm_grant(reference):
    # The victim dies during the HELLO exchange, after the client
    # created and advertised its shared-memory ring: the client must
    # unlink the ring and fail over cleanly.
    servers, addresses = start_cluster(shm=True)
    victim = 0
    rings_before = shm_segments()
    try:
        with make_ha_mediator(addresses, shm=True) as mediator:
            prefer(mediator, victim)
            servers[victim].die_on_hello = True
            result = mediator.threshold(QUERY, use_cache=False)
            assert_identical(result, reference)
            assert servers[victim].killed
            # No connection survives to the dead node, and no ring but
            # the survivor's connections' own.
            pools = mediator.transport.pools
            assert pools[victim].open_connections == 0
            assert len(shm_segments() - rings_before) == (
                pools[1 - victim].open_connections
            )
    finally:
        for server in servers:
            server.shutdown()


def test_kill_mid_shm_stream_unlinks_ring(reference):
    # A streamed response is flowing through the victim's ring when it
    # dies: the client must discard that connection, unlink
    # the ring segment, and the retried part must land on the survivor
    # over plain TCP with an identical answer.
    servers, addresses = start_cluster(shm=True)
    victim = 0
    try:
        with make_ha_mediator(addresses, shm=True) as mediator:
            prefer(mediator, victim)
            rings_before = shm_segments()
            mediator.transport.ping(victim)  # dial + handshake the ring
            pool = mediator.transport.pools[victim]
            assert pool.open_connections == 1
            (ring_path,) = shm_segments() - rings_before
            servers[victim].die_after_partials = 2
            result = mediator.threshold(QUERY, use_cache=False)
            assert_identical(result, reference)
            # The dead peer's connection was discarded, its ring unlinked.
            assert pool.open_connections == 0
            assert ring_path not in shm_segments()
    finally:
        for server in servers:
            server.shutdown()


def test_kill_between_queries_on_four_nodes(reference):
    # Node 0 holds shards 0 and 3 and reads shards 1 and 2's halo bands
    # from their replicas; with node 1 dead, both its shard part and
    # the halo reads of shard 1 land on node 2.
    servers, addresses = start_cluster(nodes=4)
    try:
        assert servers[0].placement.shards_of(0) == (0, 3)
        with make_ha_mediator(addresses) as mediator:
            assert_identical(
                mediator.threshold(QUERY, use_cache=False), reference
            )
            servers[1].kill()
            assert_identical(
                mediator.threshold(QUERY, use_cache=False), reference
            )
    finally:
        for server in servers:
            server.shutdown()


def test_both_replicas_dead_raises_partial_failure(reference):
    servers, addresses = start_cluster()
    try:
        with make_ha_mediator(addresses) as mediator:
            # A healthy query first, so the failure below hits the
            # scatter itself rather than the one-time describe.
            assert_identical(
                mediator.threshold(QUERY, use_cache=False), reference
            )
            for server in servers:
                server.kill()
            with pytest.raises(PartialFailureError) as excinfo:
                mediator.threshold(QUERY, use_cache=False)
            error = excinfo.value
            # Machine-readable blast radius: both replicas named, the
            # failed shard's Morton range attached.
            assert set(error.node_ids) == {0, 1}
            assert len(error.ranges) == 1
            cause = error.__cause__
            assert isinstance(cause, NoLiveReplicaError)
            assert set(cause.attempted) == {0, 1}
    finally:
        for server in servers:
            server.shutdown()
