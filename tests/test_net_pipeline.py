"""Data-plane tests: codec negotiation edges, pipelining faults, streaming.

Covers the contract the fast path rests on:

* a peer that advertises no codecs gets raw frames (and vice versa);
* corrupted compressed payloads surface as typed :class:`FrameError`,
  never a bare ``zlib.error``;
* a pipelined connection that loses its socket mid-flight fails *all*
  outstanding requests with :class:`ConnectionLostError`, and the pool
  discards the carcass;
* responses larger than the server's chunk size arrive as two or more
  ``PARTIAL`` frames whose merged columns are byte-identical to the
  monolithic path.
"""

import pathlib
import socket
import threading
import time

import numpy as np
import pytest

from repro.cluster.mediator import Mediator
from repro.cluster.partition import MortonPartitioner
from repro.core import ThresholdQuery
from repro.net import codec
from repro.net.client import NodeClient, PipelinedConnection, RetryPolicy
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
    send_frame,
)
from repro.net.pool import ConnectionPool, HEALTH_CHECK_IDLE_SECONDS
from repro.net.server import ClusterConfig, NodeServer
from repro.net.transport import TcpTransport

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


# -- pipelined connections -------------------------------------------------------


class _HandshakeThenDropServer:
    """Speaks a valid handshake, then kills the socket after N requests.

    The drop happens from the *server* side while client requests are
    still outstanding — the exact mid-flight failure the pipelined
    connection must translate into ConnectionLostError for everyone.
    """

    def __init__(self, drop_after: int = 1):
        self.drop_after = drop_after
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]
        self._running = True
        self.requests_seen = 0
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while self._running:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                self._serve(conn)
            except Exception:
                pass
            finally:
                conn.close()

    def _serve(self, conn):
        conn.settimeout(5.0)
        hello = recv_frame(conn, Deadline.after(10), eof_ok=True)
        if hello is None:
            return
        send_frame(
            conn,
            FrameType.HELLO_ACK,
            hello.request_id,
            codec.encode_message(
                {
                    "protocol": PROTOCOL_VERSION,
                    "node_id": 0,
                    "codecs": [],
                    "codec": "none",
                }
            ),
            Deadline.after(10),
        )
        seen = 0
        while self._running and seen < self.drop_after:
            frame = recv_frame(conn, Deadline.after(30), eof_ok=True)
            if frame is None:
                return
            seen += 1
            self.requests_seen += 1
        # Abrupt close with requests still unanswered.

    def close(self):
        self._running = False
        self._listener.close()
        self._thread.join(timeout=5)


def test_midflight_socket_loss_fails_all_outstanding_requests():
    server = _HandshakeThenDropServer(drop_after=3)
    pipe = None
    try:
        pipe = PipelinedConnection(
            "127.0.0.1", server.port, Deadline.after(5)
        )
        errors: list[Exception] = []
        barrier = threading.Barrier(3)

        def call():
            barrier.wait(timeout=5)
            try:
                pipe.call("threshold", {"x": 1}, (), Deadline.after(30))
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=call) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        # Every outstanding request failed, with the typed error.
        assert len(errors) == 3
        assert all(isinstance(e, ConnectionLostError) for e in errors)
        assert not pipe.usable
        assert pipe.in_flight == 0
        # New calls are refused immediately.
        with pytest.raises(ConnectionLostError):
            pipe.call("threshold", {}, (), Deadline.after(5))
    finally:
        if pipe is not None:
            pipe.close()
        server.close()


def test_pool_discards_a_dead_pipelined_connection():
    server = _HandshakeThenDropServer(drop_after=1)
    pool = ConnectionPool(
        "127.0.0.1",
        server.port,
        retry=RetryPolicy(attempts=1, base_delay=0.01),
    )
    try:
        with pytest.raises(NodeUnavailableError):
            pool.call("threshold", {}, (), timeout=15.0, idempotent=True)
        assert pool.connections_created >= 1
        assert pool.open_connections == 0  # the carcass was discarded
    finally:
        pool.close()
        server.close()


@pytest.mark.parametrize("shm", [False, True], ids=["tcp", "shm"])
def test_pool_closes_a_connection_that_died_idle(shm):
    """A node that dies with no call in flight: nothing runs
    ``_discard_pipe``, so the next caller's sweep must close the carcass
    (both socket handles and, over shm, the ring in ``/dev/shm``)."""
    server = start_node()
    pool = ConnectionPool(
        "127.0.0.1", server.port, retry=FAST_RETRY, shm=shm
    )
    try:
        pool.ping(5.0)
        (pipe,) = pool._pipes
        assert pipe.shm_active is shm
        backing = (
            pathlib.Path("/dev/shm") / pipe._ring.name.lstrip("/")
            if shm else None
        )
        server.shutdown()
        give_up = time.monotonic() + 5.0
        while pipe.usable and time.monotonic() < give_up:
            time.sleep(0.01)
        assert not pipe.usable and not pipe.closed  # dead, still open
        with pytest.raises(NodeUnavailableError):
            pool.call("echo", {}, (), timeout=5.0, idempotent=True)
        assert pool._pipes == []
        assert pipe.closed
        assert backing is None or not backing.exists()
    finally:
        pool.close()
        server.shutdown()


def test_a_timed_out_health_ping_gives_its_slot_back(monkeypatch):
    """Serial mode: a stale connection whose health ping runs out of
    budget is closed, and its checkout slot returns to the pool."""
    server = start_node()
    pool = ConnectionPool(
        "127.0.0.1", server.port, max_connections=2, pipeline=False
    )

    def timed_out(deadline):
        raise DeadlineExceededError("health ping timed out")

    try:
        for _ in range(2):
            pool.ping(5.0)
            (conn,) = pool._idle
            conn.last_used -= 2 * HEALTH_CHECK_IDLE_SECONDS
            monkeypatch.setattr(conn.client, "ping", timed_out)
            with pytest.raises(DeadlineExceededError):
                pool.call("echo", {}, (), timeout=5.0, idempotent=True)
            assert conn.client.closed
            assert pool._checked_out == 0
        result = pool.call("echo", {}, [b"x"], timeout=1.0, idempotent=True)
        assert bytes(result.blobs[0]) == b"x"
        assert pool._checked_out == 0
    finally:
        pool.close()
        server.shutdown()


def test_concurrent_calls_multiplex_on_one_socket():
    """Many threads share one pipelined connection, answers un-crossed."""
    server = start_node()
    pipe = None
    try:
        pipe = PipelinedConnection(
            "127.0.0.1", server.port, Deadline.after(5)
        )
        results: dict[int, bytes] = {}
        lock = threading.Lock()

        def call(i: int):
            blob = bytes([i]) * (1000 + i)
            result = pipe.call("echo", {}, [blob], Deadline.after(30))
            with lock:
                results[i] = bytes(result.blobs[0])

        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == 8
        for i in range(8):
            assert results[i] == bytes([i]) * (1000 + i)
        assert pipe.usable and pipe.in_flight == 0
    finally:
        if pipe is not None:
            pipe.close()
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
