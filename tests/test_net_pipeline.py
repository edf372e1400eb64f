"""Data-plane tests: codec negotiation edges, pooled-connection faults, streaming.

Covers the contract the fast path rests on:

* a peer that advertises no codecs gets raw frames (and vice versa);
* corrupted compressed payloads surface as typed :class:`FrameError`,
  never a bare ``zlib.error``;
* concurrent calls ride a connection each up to the pool's ceiling, a
  socket lost mid-call fails that call with
  :class:`ConnectionLostError` and the pool discards that connection
  only, and connections that died idle are closed at checkout without
  costing a retry;
* responses larger than the server's chunk size arrive as two or more
  ``PARTIAL`` frames whose merged columns are byte-identical to the
  monolithic path.
"""

import socket
import time

import numpy as np
import pytest

from repro.cluster.mediator import Mediator
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
    shm_segments,
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


@pytest.mark.parametrize("shm", [False, True], ids=["tcp", "shm"])
def test_pool_closes_a_connection_that_died_idle(shm):
    """A node that dies with no call in flight: no call fails on the
    connection, so the next checkout must close the carcass — the socket
    (both ends gone from the kernel's table) and, over shm, the ring in
    ``/dev/shm``."""
    rings_before = shm_segments()
    server = start_node()
    pool = ConnectionPool(
        "127.0.0.1", server.port, retry=FAST_RETRY, shm=shm
    )
    try:
        pool.ping(5.0)
        assert pool.open_connections == 1
        assert len(shm_segments() - rings_before) == (1 if shm else 0)
        assert live_sockets_to(server.port) == 3  # listener + both ends
        server.shutdown()
        with pytest.raises(NodeUnavailableError):
            pool.call("echo", {}, (), timeout=5.0)
        assert pool.open_connections == 0
        assert shm_segments() == rings_before
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


# -- streamed partial results ----------------------------------------------------


def _tcp_mediator(server, **transport_kwargs):
    transport = TcpTransport(
        [f"127.0.0.1:{server.port}"],
        timeout=60.0,
        retry=FAST_RETRY,
        **transport_kwargs,
    )
    return Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, 1),
        transport=transport,
        scatter_timeout=120.0,
    )


def test_streamed_threshold_is_byte_identical_to_monolithic():
    """A >chunk response ships as >=2 PARTIALs, merged bit-for-bit."""
    query = ThresholdQuery(
        dataset="mhd", field="pressure", timestep=0, threshold=0.0
    )  # matches nearly every point: ~16^3 points, far past the chunk
    streaming = start_node(stream_chunk_points=512)
    monolithic = start_node()  # default chunk (256Ki) => single frame
    try:
        med_stream = _tcp_mediator(streaming)
        med_mono = _tcp_mediator(monolithic)
        try:
            streamed = med_stream.threshold(query, use_cache=False)
            plain = med_mono.threshold(query, use_cache=False)
            assert len(streamed) > 2 * 512  # spans several chunks
            assert np.array_equal(streamed.zindexes, plain.zindexes)
            assert streamed.values.tobytes() == plain.values.tobytes()
            assert streamed.zindexes.tobytes() == plain.zindexes.tobytes()
            partials = med_stream.metrics.to_dict()[
                "rpc_partial_frames_total"
            ]["samples"][0]["value"]
            assert partials >= 2  # 4096 points / 512-point chunks = 8
        finally:
            med_stream.close()
            med_mono.close()
    finally:
        streaming.shutdown()
        monolithic.shutdown()


def test_streamed_batch_matches_monolithic_per_query():
    queries = [
        ThresholdQuery(
            dataset="mhd", field="pressure", timestep=0, threshold=t
        )
        for t in (0.0, 0.5)
    ]
    streaming = start_node(stream_chunk_points=512)
    monolithic = start_node()
    try:
        med_stream = _tcp_mediator(streaming)
        med_mono = _tcp_mediator(monolithic)
        try:
            batch_s = med_stream.batch_threshold(queries, use_cache=False)
            batch_m = med_mono.batch_threshold(queries, use_cache=False)
            for qs, qm in zip(batch_s.results, batch_m.results):
                assert qs.zindexes.tobytes() == qm.zindexes.tobytes()
                assert qs.values.tobytes() == qm.values.tobytes()
        finally:
            med_stream.close()
            med_mono.close()
    finally:
        streaming.shutdown()
        monolithic.shutdown()
