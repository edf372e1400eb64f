"""Shared-memory transport tests: ring protocol, negotiation, parity.

The ring/writer units run against a real ``multiprocessing``
shared-memory segment; the end-to-end tests stand up in-thread node
servers and verify that the shm fast path returns byte-identical
results to plain TCP while moving almost nothing through the socket.
"""

import pathlib

import numpy as np
import pytest

from repro.cluster.mediator import Mediator, build_cluster
from repro.cluster.partition import MortonPartitioner
from repro.core import ThresholdQuery
from repro.net.compress import NO_COMPRESSION
from repro.net.errors import FrameError
from repro.net.server import ClusterConfig, NodeServer
from repro.net.shm import (
    _OWNED_NAMES,
    LOCATOR,
    ShmRing,
    ShmWriter,
    host_token,
)
from repro.net.transport import TcpTransport
from repro.simulation.datasets import mhd_dataset

SIDE = 16
TIMESTEPS = 2
NODES = 2
CONFIG = ClusterConfig(
    dataset="mhd", side=SIDE, timesteps=TIMESTEPS, seed=11, nodes=NODES
)


# -- ring protocol ----------------------------------------------------------------


def test_ring_claim_copy_view_release_cycle():
    """A payload written through the writer reads back via the ring."""
    with ShmRing(slots=2, slot_bytes=4096) as ring:
        writer = ShmWriter(ring.name, 2, 4096)
        try:
            payload = bytes(range(256)) * 4
            claimed = writer.claim(len(payload))
            assert claimed is not None
            slot, gen, target = claimed
            target[: len(payload)] = payload
            target.release()  # writers drop their view after the copy
            assert bytes(ring.view(slot, gen, len(payload))) == payload
            ring.release(slot, gen)
            again = writer.claim(16)
            assert again is not None and again[0] == slot
            assert again[1] != gen
            again[2].release()
        finally:
            writer.close()


def test_ring_exhaustion_returns_none_until_released():
    """With every slot claimed the writer reports no space (the caller
    then ships that frame inline over TCP) until the reader acks."""
    with ShmRing(slots=2, slot_bytes=1024) as ring:
        writer = ShmWriter(ring.name, 2, 1024)
        try:
            first = writer.claim(8)
            second = writer.claim(8)
            assert first is not None and second is not None
            first[2].release()
            second[2].release()
            assert writer.claim(8) is None
            ring.release(first[0], first[1])
            reclaimed = writer.claim(8)
            assert reclaimed is not None
            reclaimed[2].release()
        finally:
            writer.close()


def test_oversized_claim_returns_none():
    with ShmRing(slots=1, slot_bytes=64) as ring:
        writer = ShmWriter(ring.name, 1, 64)
        try:
            assert writer.claim(65) is None
            assert writer.claim(64) is not None
        finally:
            writer.close()


def test_view_outside_geometry_is_a_frame_error():
    with ShmRing(slots=2, slot_bytes=128) as ring:
        with pytest.raises(FrameError, match="outside ring"):
            ring.view(2, 1, 16)
        with pytest.raises(FrameError, match="outside ring"):
            ring.view(0, 1, 129)


def test_writer_rejects_mismatched_geometry():
    with ShmRing(slots=1, slot_bytes=64) as ring:
        with pytest.raises(ValueError, match="ring geometry"):
            ShmWriter(ring.name, 64, 1 << 20)


def test_ring_close_unlinks_the_segment():
    """The owner's close removes the backing file (what the session-end
    leak audit of ``tests/conftest.py`` holds every other test to)."""
    ring = ShmRing(slots=1, slot_bytes=64)
    name = ring.name
    backing = pathlib.Path("/dev/shm") / name.lstrip("/")
    assert backing.exists()
    assert name in _OWNED_NAMES
    ring.close()
    assert not backing.exists()
    assert name not in _OWNED_NAMES
    ring.close()  # idempotent


def test_same_process_writer_does_not_break_owner_cleanup():
    """Attaching a ring owned by this very process (in-thread clusters)
    must leave the owner's tracker registration alone."""
    ring = ShmRing(slots=1, slot_bytes=64)
    writer = ShmWriter(ring.name, 1, 64)
    writer.close()
    backing = pathlib.Path("/dev/shm") / ring.name.lstrip("/")
    ring.close()
    assert not backing.exists()


def test_host_token_is_stable_and_qualified():
    token = host_token()
    assert token == host_token()
    assert ":" in token


def test_locator_layout_is_wire_stable():
    assert LOCATOR.size == 20
    assert LOCATOR.unpack(LOCATOR.pack(3, 7, 4096)) == (3, 7, 4096)


# -- end-to-end over in-thread servers --------------------------------------------


class _CollectSink:
    """PartialSink that copies every streamed blob for comparison."""

    def __init__(self) -> None:
        self.chunks: list[bytes] = []

    def reset(self) -> None:
        self.chunks.clear()

    def feed(self, header: dict, blobs) -> None:
        # Copy: shm blobs are views of a ring slot that is recycled
        # the moment feed returns.
        self.chunks.append(b"".join(bytes(blob) for blob in blobs))


@pytest.fixture(scope="module")
def cluster():
    servers = [NodeServer(i, CONFIG) for i in range(NODES)]
    addresses = [f"127.0.0.1:{s.port}" for s in servers]
    for server in servers:
        server.connect_peers(addresses)
        server.load()
        server.start()
    yield addresses
    for server in servers:
        server.shutdown()


def _transport(addresses, **kwargs) -> TcpTransport:
    return TcpTransport(addresses, timeout=60.0, **kwargs)


def test_streamed_echo_is_byte_identical_across_transports(cluster):
    """A 16 MiB streamed transfer arrives bit-exact via ring and socket."""
    points = 1 << 20
    tcp = _transport(cluster, compression=NO_COMPRESSION)
    shm = _transport(cluster, compression=NO_COMPRESSION, shm=True)
    try:
        tcp_sink, shm_sink = _CollectSink(), _CollectSink()
        tcp_call = tcp.call(
            0, "echo", {"points": points}, sink=tcp_sink, timeout=60.0
        )
        shm_call = shm.call(
            0, "echo", {"points": points}, sink=shm_sink, timeout=60.0
        )
        assert b"".join(tcp_sink.chunks) == b"".join(shm_sink.chunks)
        assert sum(len(c) for c in shm_sink.chunks) == points * 16
        # The payload rode the ring: the socket carried only locators.
        assert shm_call.shm_bytes >= points * 16
        assert shm_call.bytes_received < 4096
        assert tcp_call.shm_bytes == 0
        assert tcp_call.bytes_received > points * 16
    finally:
        tcp.close()
        shm.close()


def test_shm_grant_declined_by_a_server_without_shm():
    """A server configured without shm declines the grant; the client
    falls back to TCP transparently and still gets every byte."""
    config = ClusterConfig(
        dataset="mhd", side=SIDE, timesteps=TIMESTEPS, seed=11, nodes=1
    )
    server = NodeServer(0, config, shm=False)
    server.load()
    server.start()
    transport = _transport(
        [f"127.0.0.1:{server.port}"], compression=NO_COMPRESSION, shm=True
    )
    try:
        points = 1 << 20
        sink = _CollectSink()
        call = transport.call(
            0, "echo", {"points": points}, sink=sink, timeout=60.0
        )
        assert call.shm_bytes == 0
        assert sum(len(c) for c in sink.chunks) == points * 16
    finally:
        transport.close()
        server.shutdown()


def _mediator(addresses, **kwargs) -> Mediator:
    return Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, NODES),
        transport=_transport(addresses, **kwargs),
        scatter_timeout=120.0,
    )


def test_threshold_results_identical_tcp_shm_inprocess(cluster):
    """Point-for-point equality across all three execution paths."""
    query = ThresholdQuery(
        dataset="mhd", field="vorticity", timestep=0, threshold=0.5
    )
    tcp = _mediator(cluster)
    shm = _mediator(cluster, shm=True)
    local = build_cluster(
        mhd_dataset(side=SIDE, timesteps=TIMESTEPS, seed=11), nodes=NODES
    )
    try:
        over_tcp = tcp.threshold(query, use_cache=False)
        over_shm = shm.threshold(query, use_cache=False)
        in_process = local.threshold(query, use_cache=False)
        assert len(over_shm) == len(in_process) > 0
        order_tcp = np.argsort(over_tcp.zindexes, kind="stable")
        order_shm = np.argsort(over_shm.zindexes, kind="stable")
        order_ref = np.argsort(in_process.zindexes, kind="stable")
        assert np.array_equal(
            over_shm.zindexes[order_shm], in_process.zindexes[order_ref]
        )
        assert np.array_equal(
            over_shm.values[order_shm], in_process.values[order_ref]
        )
        assert np.array_equal(
            over_tcp.zindexes[order_tcp], over_shm.zindexes[order_shm]
        )
        assert np.array_equal(
            over_tcp.values[order_tcp], over_shm.values[order_shm]
        )
    finally:
        tcp.close()
        shm.close()
        local.close()


def test_shm_transport_closes_its_rings(cluster):
    """The leak gate's direct check: no ring segment survives transport close."""
    transport = _transport(cluster, compression=NO_COMPRESSION, shm=True)
    sink = _CollectSink()
    transport.call(0, "echo", {"points": 1 << 20}, sink=sink, timeout=60.0)
    owned_before = set(_OWNED_NAMES)
    assert owned_before  # the connection ring is registered
    transport.close()
    for name in owned_before:
        backing = pathlib.Path("/dev/shm") / name.lstrip("/")
        assert not backing.exists()
    assert not _OWNED_NAMES & owned_before
