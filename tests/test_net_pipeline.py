"""Data-plane tests: codec negotiation edges, pooled-connection faults, big parts.

Covers the contract the fast path rests on:

* a peer that advertises no codecs gets raw frames (and vice versa);
* corrupted compressed payloads surface as typed :class:`FrameError`,
  never a bare ``zlib.error``;
* concurrent calls ride a connection each up to the pool's ceiling, a
  socket lost mid-call fails that call with
  :class:`ConnectionLostError` and the pool discards that connection
  only, and connections that died idle are closed at checkout without
  costing a retry;
* a node part of more than 64^3 points arrives in its one RESPONSE
  frame, equal to the in-process answer.
"""

import socket
import time

import pytest

from repro.cluster.mediator import Mediator, build_cluster
from repro.cluster.partition import MortonPartitioner
from repro.core import ThresholdQuery
from repro.net.client import NodeClient, RetryPolicy
from repro.net.compress import (
    CompressionConfig,
    DEFAULT_COMPRESSION,
    FrameCodec,
    NO_COMPRESSION,
    negotiate,
)
from repro.net.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    FrameError,
    NodeUnavailableError,
)
from repro.net.frame import (
    Deadline,
    FrameType,
    HEADER,
    MAGIC,
    PROTOCOL_VERSION,
    recv_frame,
)
from repro.net.pool import ConnectionPool
from repro.net.server import ClusterConfig, NodeServer
from repro.net.transport import TcpTransport
from tests.net_doubles import (
    GatedNodeServer,
    HeldCalls,
    fill_pool,
    live_sockets_to,
    payload,
)

SIDE = 16
CONFIG = ClusterConfig(
    dataset="mhd", side=SIDE, timesteps=1, seed=23, nodes=1
)
FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05)


def start_node(**kwargs):
    """One in-thread node server hosting the small test dataset."""
    server = NodeServer(0, CONFIG, **kwargs)
    server.load()
    server.start()
    return server


# -- codec negotiation -----------------------------------------------------------


def test_negotiate_prefers_local_order():
    assert negotiate(("zlib",), ["zlib", "none"]) == "zlib"
    assert negotiate(("zlib",), []) == "none"
    assert negotiate((), ["zlib"]) == "none"
    assert negotiate(("zlib",), ["lz5", "snappy"]) == "none"


def test_peer_without_codecs_gets_raw_frames():
    """A server that advertises nothing falls back to raw frames."""
    server = start_node(compression=NO_COMPRESSION)
    try:
        client = NodeClient(
            "127.0.0.1", server.port, Deadline.after(5),
            compression=DEFAULT_COMPRESSION,
        )
        try:
            assert client._codec.codec == "none"
            blob = b"a" * 65536  # would compress ~1000x if negotiated
            result = client.call(
                "echo", {}, [blob], Deadline.after(10)
            )
            assert bytes(result.blobs[0]) == blob
            # Raw on the wire: the response carries the full blob.
            assert result.bytes_received > len(blob)
        finally:
            client.close()
    finally:
        server.shutdown()


def test_client_without_codecs_forces_raw_frames():
    """The negotiation is symmetric: a raw-only client stays raw."""
    server = start_node()
    try:
        client = NodeClient(
            "127.0.0.1", server.port, Deadline.after(5),
            compression=NO_COMPRESSION,
        )
        try:
            assert client._codec.codec == "none"
            result = client.call(
                "echo", {}, [b"b" * 65536], Deadline.after(10)
            )
            assert result.bytes_received > 65536
        finally:
            client.close()
    finally:
        server.shutdown()


def test_negotiated_zlib_shrinks_both_directions():
    """With zlib agreed, request and response both ride compressed."""
    server = start_node()
    try:
        ratios: list[float] = []
        client = NodeClient(
            "127.0.0.1", server.port, Deadline.after(5),
            on_ratio=ratios.append,
        )
        try:
            assert client._codec.codec == "zlib"
            blob = b"c" * (1024 * 1024)
            result = client.call("echo", {}, [blob], Deadline.after(30))
            assert bytes(result.blobs[0]) == blob
            assert result.bytes_sent < len(blob) // 10
            assert result.bytes_received < len(blob) // 10
            assert ratios and max(ratios) > 10.0
        finally:
            client.close()
    finally:
        server.shutdown()


def test_corrupt_compressed_payload_is_a_typed_frame_error():
    """Garbage under a zlib flag is a FrameError, never zlib.error."""
    config = CompressionConfig(codecs=("zlib",))
    rx = FrameCodec(config, codec="zlib")
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    try:
        garbage = b"this is definitely not a zlib stream"
        left.sendall(
            HEADER.pack(
                MAGIC, PROTOCOL_VERSION, int(FrameType.RESPONSE),
                1, 7, len(garbage),
            )
            + garbage
        )
        with pytest.raises(FrameError, match="corrupt zlib"):
            recv_frame(right, Deadline.after(5), codec=rx)
    finally:
        left.close()
        right.close()


def test_unknown_codec_ids_are_frame_errors():
    config = CompressionConfig(codecs=("zlib",))
    rx = FrameCodec(config, codec="zlib")
    with pytest.raises(FrameError, match="unknown frame codec id"):
        rx.decode(200, b"x")
    # Codec id 1 is zlib; a peer using it against a raw-only config is
    # speaking a codec we never advertised.
    raw_only = FrameCodec(NO_COMPRESSION, codec="none")
    with pytest.raises(FrameError):
        raw_only.decode(1, b"x")


def test_compression_config_validation():
    with pytest.raises(ValueError):
        CompressionConfig(codecs=("brotli",))
    with pytest.raises(ValueError):
        CompressionConfig(level=42)
    with pytest.raises(ValueError):
        CompressionConfig(min_payload_bytes=-1)


# -- one connection, one request -------------------------------------------------


def start_gated(**kwargs):
    """A node server with a gate; ``echo`` needs no dataset loaded."""
    server = GatedNodeServer(0, CONFIG, **kwargs)
    server.start()
    return server


def test_concurrent_calls_get_a_connection_each_up_to_the_ceiling():
    """N callers at once ride N connections; the N+1st waits its turn
    inside its own deadline, and answers come back un-crossed."""
    server = start_gated()
    pool = ConnectionPool("127.0.0.1", server.port, max_connections=3)
    try:
        held = HeldCalls(pool, server, 3)
        assert pool.open_connections == 3
        assert pool.connections_created == 3
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            pool.call("echo", {}, [b"late"], timeout=0.3)
        assert 0.3 <= time.monotonic() - started < 5.0
        assert pool.connections_created == 3  # it waited; it never dialled
        assert held.release() == {i: payload(i) for i in range(3)}
        result = pool.call("echo", {}, [b"next"], timeout=5.0)
        assert bytes(result.blobs[0]) == b"next"
        assert pool.connections_created == 3 and pool.open_connections == 3
    finally:
        pool.close()
        server.shutdown()


def test_midflight_socket_loss_fails_that_call_and_that_connection_only():
    server = start_gated()
    pool = ConnectionPool(
        "127.0.0.1", server.port, max_connections=2,
        retry=RetryPolicy(attempts=1, base_delay=0.01),
    )
    try:
        fill_pool(pool, server, 2)
        with pytest.raises(NodeUnavailableError) as lost:
            pool.call("echo", {"drop": True}, (), timeout=15.0)
        assert isinstance(lost.value.__cause__, ConnectionLostError)
        assert lost.value.attempts == 1
        assert pool.open_connections == 1  # the carcass, and only it, went
        result = pool.call("echo", {}, [b"x"], timeout=5.0)
        assert bytes(result.blobs[0]) == b"x"
        assert pool.connections_created == 2  # served by the survivor
    finally:
        pool.close()
        server.shutdown()


def test_a_restarted_node_costs_no_retry():
    """Every idle connection of a restarted node is dead.  They are
    found readable at checkout, closed and skipped — not tried one per
    attempt until the retry budget (3) is gone."""
    server = start_gated()
    pool = ConnectionPool("127.0.0.1", server.port, max_connections=4)
    try:
        fill_pool(pool, server, 4)
        server.shutdown()
        server = start_gated(port=server.port)
        result = pool.call("echo", {}, [b"x"], timeout=5.0)
        assert bytes(result.blobs[0]) == b"x"
        assert pool.retries == 0
        assert pool.connections_created == 5
        assert pool.open_connections == 1  # four corpses out, four slots back
    finally:
        pool.close()
        server.shutdown()


def test_the_old_field_registration_is_an_unknown_method():
    """Every node RPC is a read.  A caller still sending the removed
    ``register_field`` write gets the node's typed unknown-method error
    inside its deadline, and the pool it used keeps serving."""
    server = start_node()
    pool = ConnectionPool("127.0.0.1", server.port, max_connections=1)
    try:
        started = time.monotonic()
        with pytest.raises(ValueError, match="unknown RPC method 'register_field'"):
            pool.call(
                "register_field",
                {"name": "abs_pressure", "text": "abs(pressure)"},
                (), timeout=5.0,
            )
        assert time.monotonic() - started < 5.0
        result = pool.call("echo", {}, [b"x"], timeout=5.0)
        assert bytes(result.blobs[0]) == b"x"
        assert pool.retries == 0
    finally:
        pool.close()
        server.shutdown()


def test_pool_closes_a_connection_that_died_idle():
    """A node that dies with no call in flight: no call fails on the
    connection, so the next checkout must close the carcass — the socket,
    both ends gone from the kernel's table."""
    server = start_node()
    pool = ConnectionPool("127.0.0.1", server.port, retry=FAST_RETRY)
    try:
        pool.ping(5.0)
        assert pool.open_connections == 1
        assert live_sockets_to(server.port) == 3  # listener + both ends
        server.shutdown()
        with pytest.raises(NodeUnavailableError):
            pool.call("echo", {}, (), timeout=5.0)
        assert pool.open_connections == 0
        give_up = time.monotonic() + 5.0
        while live_sockets_to(server.port) and time.monotonic() < give_up:
            time.sleep(0.01)
        assert live_sockets_to(server.port) == 0
    finally:
        pool.close()
        server.shutdown()


def test_a_timed_out_health_ping_gives_its_slot_back(monkeypatch):
    """A health ping that runs out of budget closes the connection it
    was on and returns its checkout slot to the pool."""
    server = start_node()
    pool = ConnectionPool("127.0.0.1", server.port, max_connections=2)

    def timed_out(self, deadline):
        raise DeadlineExceededError("health ping timed out")

    try:
        with monkeypatch.context() as patch:
            patch.setattr(NodeClient, "ping", timed_out)
            for failures in (1, 2):
                with pytest.raises(DeadlineExceededError):
                    pool.ping(5.0)
                assert pool.open_connections == 0
                assert pool.probe_failures == failures
        result = pool.call("echo", {}, [b"x"], timeout=1.0)
        assert bytes(result.blobs[0]) == b"x"
        assert pool.open_connections == 1
    finally:
        pool.close()
        server.shutdown()


# -- one RESPONSE per part --------------------------------------------------------


def test_a_part_of_more_than_64_cubed_points_is_one_response():
    """A 64^3 node's vorticity + Q batch at threshold 0 holds more than
    262,144 points (every point's vorticity, and Q where it is not
    negative); the node ships it as one RESPONSE, equal to the
    in-process answer array for array."""
    side = 64
    queries = [
        ThresholdQuery(dataset="mhd", field=field, timestep=0, threshold=0.0)
        for field in ("vorticity", "q_criterion")
    ]
    config = ClusterConfig(
        dataset="mhd", side=side, timesteps=1, seed=23, nodes=1,
        cache_capacity_bytes=None,
    )
    server = NodeServer(0, config)
    server.load()
    server.start()
    try:
        mediator = Mediator(
            nodes=[],
            partitioner=MortonPartitioner(side, 1),
            transport=TcpTransport(
                [f"127.0.0.1:{server.port}"], timeout=60.0, retry=FAST_RETRY
            ),
            cache_capacity_bytes=None,
            scatter_timeout=120.0,
        )
        with mediator:
            remote = mediator.batch_threshold(queries, use_cache=False)
            requests = mediator.metrics.to_dict()["rpc_requests_total"]
    finally:
        server.shutdown()
    with build_cluster(
        config.build_dataset(), nodes=1, cache_capacity_bytes=None
    ) as local_mediator:
        local = local_mediator.batch_threshold(queries, use_cache=False)
    assert sum(len(result) for result in remote.results) > side**3
    assert [
        (sample["labels"], sample["value"])
        for sample in requests["samples"]
        if sample["labels"]["method"] == "batch_threshold"
    ] == [({"method": "batch_threshold", "status": "ok"}, 1)]
    for got, want in zip(remote.results, local.results):
        assert got.zindexes.tobytes() == want.zindexes.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
