"""Chaos proof: kill a replica mid-query, answers stay byte-identical.

A two-node cluster with replication factor 2 (each node holds both
Morton shards) is queried through :class:`~repro.ha.HaTcpTransport`
while one node is killed at the nastiest possible moments — during the
HELLO handshake, before answering, and halfway through writing its
RESPONSE frame.  A node part too large for one frame is refused once,
with a typed error no replica is asked to repeat.  A four-node cluster
at the same factor loses a node between queries, which moves node
servers' halo reads onto surviving replicas too.  Concurrent queries
whose parts all go to one node's pool finish at its connection
ceiling.  Every leg asserts
point-for-point equality with the in-process reference cluster: the
failed shard parts restart clean on the survivor and the gather's
merge produces the same Morton-sorted columns.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.cluster.mediator import Mediator, build_cluster
from repro.cluster.partition import MortonPartitioner
from repro.core import ThresholdQuery
from repro.ha import HaTcpTransport, PlacementMap
from repro.net import codec, frame
from repro.net.errors import (
    NoLiveReplicaError,
    PartialFailureError,
    RemoteCallError,
)
from repro.net.frame import FrameType, HEADER, MAGIC, PROTOCOL_VERSION
from repro.net.server import ClusterConfig, NodeServer
from repro.simulation.datasets import mhd_dataset

SIDE = 16
TIMESTEPS = 1
NODES = 2
QUERY = ThresholdQuery("mhd", "vorticity", 0, 0.5)


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
        self.die_mid_response = False
        self.die_on_hello = False
        #: Threshold parts this node was asked to answer.
        self.requests = 0
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
        if method == "threshold":
            self.requests += 1
            if self.die_before_answer:
                self.die_before_answer = False
                self.kill()
                raise OSError("node killed before answering")
        return super()._dispatch(method, header, blobs)

    def _answer_request(self, state, request_id, payload):
        header, _ = codec.decode_message(payload)
        if self.die_mid_response and header.get("method") == "threshold":
            self.die_mid_response = False
            state = _HalfResponse(state, self)
        super()._answer_request(state, request_id, payload)

    def _answer_hello(self, state, request_id, payload):
        if self.die_on_hello:
            self.die_on_hello = False
            self.kill()
            raise OSError("node killed during handshake")
        super()._answer_hello(state, request_id, payload)


class _HalfResponse:
    """A connection that writes the first half of its RESPONSE frame
    raw, uncompressed, and then loses its node."""

    def __init__(self, state, server: DyingNodeServer) -> None:
        self._state = state
        self._server = server

    def send(self, frame_type, request_id, payload, raw=False):
        if frame_type != FrameType.RESPONSE:
            self._state.send(frame_type, request_id, payload, raw)
            return
        body = b"".join(bytes(part) for part in payload)
        whole = HEADER.pack(
            MAGIC, PROTOCOL_VERSION, int(frame_type), 0, request_id, len(body)
        ) + body
        self._state.conn.sendall(whole[: len(whole) // 2])
        self._server.kill()
        raise OSError("node killed mid-response")


def start_cluster(nodes: int = NODES) -> tuple[list[DyingNodeServer], list[str]]:
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
    servers = [DyingNodeServer(i, config) for i in range(nodes)]
    addresses = [f"127.0.0.1:{s.port}" for s in servers]
    for server in servers:
        server.connect_peers(addresses)
        server.load()
        server.start()
    return servers, addresses


def make_ha_mediator(addresses: list[str]) -> Mediator:
    nodes = len(addresses)
    transport = HaTcpTransport(
        addresses, placement=PlacementMap(nodes, nodes, 2), timeout=30.0
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
def test_kill_mid_response(victim, reference):
    # The victim dies with half of its RESPONSE frame on the wire: the
    # truncated reply leaves nothing behind, and the part restarts on
    # the survivor.
    servers, addresses = start_cluster()
    try:
        with make_ha_mediator(addresses) as mediator:
            prefer(mediator, victim)
            servers[victim].die_mid_response = True
            result = mediator.threshold(QUERY, use_cache=False)
            assert_identical(result, reference)
            assert servers[victim].killed
    finally:
        for server in servers:
            server.shutdown()


def test_kill_mid_handshake(reference):
    # The victim dies during the HELLO exchange of the first connection
    # dialled to it: the client must drop that connection and fail the
    # part over cleanly.
    servers, addresses = start_cluster()
    victim = 0
    try:
        with make_ha_mediator(addresses) as mediator:
            prefer(mediator, victim)
            servers[victim].die_on_hello = True
            result = mediator.threshold(QUERY, use_cache=False)
            assert_identical(result, reference)
            assert servers[victim].killed
            # No connection survives to the dead node.
            assert mediator.transport.pools[victim].open_connections == 0
    finally:
        for server in servers:
            server.shutdown()


def test_an_answer_over_the_frame_ceiling_fails_once(reference, monkeypatch):
    # A part whose reply is over MAX_PAYLOAD is refused before a byte of
    # it is written, with a typed ERROR: no retry, no failover, and no
    # replica recomputes it.
    zindexes, _ = reference
    monkeypatch.setattr(frame, "MAX_PAYLOAD", len(zindexes) * 16 // 4)
    servers, addresses = start_cluster()
    try:
        with make_ha_mediator(addresses) as mediator:
            started = time.monotonic()
            with pytest.raises(PartialFailureError) as excinfo:
                mediator.threshold(QUERY, use_cache=False)
            assert time.monotonic() - started < mediator.transport.timeout
            cause = excinfo.value.__cause__
            assert isinstance(cause, RemoteCallError)
            assert cause.remote_type == "FrameError"
            assert "ceiling" in str(cause)
            # One request written per shard part and none resent.  What
            # the client wrote is counted, not what the servers read: the
            # first ERROR makes run_all close the other part's exchange,
            # and that node may not have read its request yet.
            metrics = mediator.metrics.to_dict()
            written = [
                sample for sample in metrics["rpc_requests_total"]["samples"]
                if sample["labels"]["method"] == "threshold"
            ]
            assert sum(sample["value"] for sample in written) == NODES
            assert sum(server.requests for server in servers) <= NODES
            assert metrics["ha_failovers_total"]["samples"][0]["value"] == 0
            assert metrics["rpc_retries_total"]["samples"][0]["value"] == 0
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


@pytest.mark.parametrize("ceiling", [1, 2, 8])
def test_concurrent_queries_on_one_replica_all_finish(reference, ceiling):
    """Both shards route to node 0, so each query's two parts share its
    pool, at a ceiling of one or two connections or of the default
    eight.  Eight queries at once: a part waiting for a connection never
    holds up the reply that would free one, and every query answers well
    inside its 10 s part budget."""
    servers, addresses = start_cluster()
    transport = HaTcpTransport(
        addresses, placement=PlacementMap(NODES, NODES, 2), timeout=10.0
    )
    for pool in transport.pools:
        pool.max_connections = ceiling
    answers, errors = [], []

    def query() -> None:
        try:
            answers.append(mediator.threshold(QUERY, use_cache=False))
        except Exception as error:
            errors.append(error)

    try:
        with Mediator(
            nodes=[],
            partitioner=MortonPartitioner(SIDE, NODES),
            transport=transport,
            cache_capacity_bytes=None,
            scatter_timeout=120.0,
        ) as mediator:
            prefer(mediator, 0)
            threads = [threading.Thread(target=query) for _ in range(8)]
            started = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            elapsed = time.monotonic() - started
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert len(answers) == 8
            for answer in answers:
                assert_identical(answer, reference)
            assert elapsed < 5.0
            assert servers[1].requests == 0
            assert transport.pools[0].open_connections <= ceiling
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
