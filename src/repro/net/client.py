"""Client connections to a node server, plus the retry policy.

Two connection flavours share one wire dialect:

* :class:`NodeClient` — the serial connection: handshake on connect
  (HELLO/HELLO_ACK with protocol version, node id and codec
  negotiation), then one REQUEST at a time, reading PARTIAL frames and
  the final RESPONSE inline.
* :class:`PipelinedConnection` — the multiplexed connection the pool
  uses by default: a background reader loop dispatches incoming frames
  by ``request_id`` to per-request queues, so many calls are in flight
  on one socket and the Mediator's scatter no longer serializes
  send→recv per call.  If the socket dies, *every* outstanding request
  fails with :class:`ConnectionLostError` and the connection reports
  itself unusable.

Every public operation takes an explicit deadline — there is no "no
timeout" mode anywhere in this tier (lint rule NET01 enforces the
discipline statically).

:class:`RetryPolicy` describes exponential backoff with jitter for
*idempotent reads*; the decision of what is idempotent and the retry
loop itself live in :class:`~repro.net.pool.ConnectionPool`, which can
swap the broken connection a retry needs.
"""

from __future__ import annotations

import queue
import random
import socket
import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.fields.derived import UnknownFieldError
from repro.fields.expressions import ExpressionError
from repro.net import codec, compress
from repro.net.compress import CompressionConfig, DEFAULT_COMPRESSION, FrameCodec
from repro.net.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    NetError,
    NodeUnavailableError,
    ProtocolError,
    RemoteCallError,
)
from repro.net.frame import (
    Buffer,
    Deadline,
    Frame,
    FrameType,
    PROTOCOL_VERSION,
    poll_frame,
    recv_frame,
    send_frame,
)
from repro.net.shm import ShmRing
from repro.net.stream import PartialSink
from repro.obs import clock

#: Remote exception types rebuilt as their local classes, so the web
#: service's error mapping behaves identically on both transports.
_REMOTE_TYPES: Mapping[str, type[Exception]] = {
    "UnknownFieldError": UnknownFieldError,
    "ExpressionError": ExpressionError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "TypeError": TypeError,
}

#: How long the pipelined reader blocks per poll before re-checking
#: for shutdown; short enough that close() feels immediate.
READ_POLL_SECONDS = 0.25
#: Budget for completing a frame once its first byte has arrived.  This
#: is a liveness backstop, not a request deadline (those are enforced
#: per call on the waiter queue) — it only has to distinguish "a large
#: frame is flowing" from "the peer wedged mid-frame".
READER_FRAME_TIMEOUT = 600.0


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for idempotent reads.

    ``delay(attempt)`` for attempt 0, 1, 2... is ``base * 2^attempt``
    capped at ``max_delay``, widened by a uniform jitter of ±25 % so a
    restarted node is not hit by every client in lockstep.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("a retry policy needs at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        raw = min(self.base_delay * 2.0**attempt, self.max_delay)
        return raw * (1.0 + 0.25 * (2.0 * random.random() - 1.0))


@dataclass(frozen=True)
class CallResult:
    """A successful RPC: decoded message plus its wire-byte footprint.

    ``bytes_sent``/``bytes_received`` count what actually crossed the
    wire (headers included, compression applied), which is what the
    ledger's ``wire_bytes`` meter charges.  ``partial_frames`` is how
    many PARTIAL chunks preceded the final response.
    """

    header: dict
    blobs: list[Buffer]
    bytes_sent: int
    bytes_received: int
    partial_frames: int = 0
    #: Payload bytes that travelled via the shared-memory ring instead
    #: of the socket (their locators are already in ``bytes_received``).
    shm_bytes: int = 0


def remote_error(header: dict) -> Exception:
    """Rebuild the exception an ERROR frame describes."""
    record = header.get("error")
    if not isinstance(record, dict):
        return ProtocolError("ERROR frame without an error record")
    remote_type = str(record.get("type", "Exception"))
    message = str(record.get("message", ""))
    local = _REMOTE_TYPES.get(remote_type)
    if local is not None:
        return local(message)
    return RemoteCallError(
        remote_type, str(record.get("code", "remote_error")), message
    )


def _connect(host: str, port: int, address: str, deadline: Deadline) -> socket.socket:
    """Open the TCP connection (or raise :class:`NodeUnavailableError`)."""
    try:
        sock = socket.create_connection(
            (host, port), timeout=deadline.remaining()
        )
    except OSError as error:
        raise NodeUnavailableError(
            address, attempts=1,
            message=f"connect to {address} failed: {error}",
        ) from error
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _make_ring(shm: bool) -> ShmRing | None:
    """A fresh payload ring, or ``None`` when shm is off or unusable."""
    if not shm:
        return None
    try:
        return ShmRing()
    except (OSError, ValueError):  # pragma: no cover - no usable /dev/shm
        return None


def perform_handshake(
    sock: socket.socket,
    address: str,
    deadline: Deadline,
    config: CompressionConfig,
    on_ratio: Callable[[float], None] | None = None,
    ring: ShmRing | None = None,
) -> tuple[int | None, FrameCodec, bool]:
    """HELLO/HELLO_ACK: agree on protocol version, codecs and shm.

    The client advertises the codec names it supports (and, with a
    ``ring``, its shared-memory grant: host token + segment geometry);
    the server picks a primary codec (or ``"none"``), echoes its own
    codec list so both sides know the shared set the per-frame probe
    may use, and accepts or declines the ring.  Returns the server's
    node id, the negotiated :class:`FrameCodec`, and whether the server
    attached to the ring.

    Raises:
        ProtocolError: version mismatch, or the server chose a codec
            this client never advertised.
    """
    hello: dict = {"protocol": PROTOCOL_VERSION, "codecs": list(config.codecs)}
    if ring is not None:
        hello["shm"] = ring.grant()
    payload = codec.encode_message(hello)
    send_frame(sock, FrameType.HELLO, 0, payload, deadline)
    frame = recv_frame(sock, deadline)
    assert frame is not None
    if frame.frame_type != FrameType.HELLO_ACK:
        raise ProtocolError(
            f"expected HELLO_ACK, got {frame.frame_type.name} from {address}"
        )
    header, _ = codec.decode_message(frame.payload)
    if header.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{address} speaks protocol {header.get('protocol')}, "
            f"this build speaks {PROTOCOL_VERSION}"
        )
    chosen = str(header.get("codec", "none"))
    if chosen != "none" and chosen not in config.codecs:
        raise ProtocolError(
            f"{address} chose frame codec {chosen!r} this client "
            f"never advertised"
        )
    remote_names = header.get("codecs")
    if isinstance(remote_names, list):
        allowed = compress.shared_codecs(
            config.codecs, [str(name) for name in remote_names]
        )
    else:  # a peer that omits its codec list: trust only its pick
        allowed = (chosen,) if chosen != "none" else ()
    if chosen != "none" and chosen not in allowed:
        allowed = (chosen, *allowed)
    node_id = int(header["node_id"]) if "node_id" in header else None
    shm_granted = ring is not None and bool(header.get("shm"))
    return (
        node_id,
        FrameCodec(config, chosen, on_ratio=on_ratio, allowed=allowed),
        shm_granted,
    )


class NodeClient:
    """One serial framed connection to a node server.

    Args:
        host: server host.
        port: server port.
        connect_deadline: budget for TCP connect plus the handshake.
        compression: codecs to advertise (defaults to the stock zlib
            configuration; pass ``NO_COMPRESSION`` to force raw frames).
        on_ratio: callback fed each frame's achieved compression ratio.
        shm: offer the server a shared-memory payload ring (used only
            when both ends share a host; declined grants fall back to
            plain TCP transparently).

    Raises:
        NodeUnavailableError: the TCP connection could not be opened.
        ProtocolError: the handshake failed.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_deadline: Deadline,
        *,
        compression: CompressionConfig | None = None,
        on_ratio: Callable[[float], None] | None = None,
        shm: bool = False,
    ) -> None:
        self.address = f"{host}:{port}"
        config = compression if compression is not None else DEFAULT_COMPRESSION
        self._sock = _connect(host, port, self.address, connect_deadline)
        self._next_request_id = 1
        self._closed = False
        self.node_id: int | None = None
        self._ring = _make_ring(shm)
        try:
            self.node_id, self._codec, granted = perform_handshake(
                self._sock, self.address, connect_deadline, config, on_ratio,
                ring=self._ring,
            )
            if not granted and self._ring is not None:
                self._ring.close()
                self._ring = None
        except Exception:
            self.close()
            raise

    # -- calls -----------------------------------------------------------------

    def call(
        self,
        method: str,
        header: dict,
        blobs: Sequence[Buffer],
        deadline: Deadline,
        *,
        sink: PartialSink | None = None,
    ) -> CallResult:
        """One RPC round trip.

        A streamed response (PARTIAL frames before the final RESPONSE)
        is fed chunk-by-chunk into ``sink``; a server that streams at a
        caller that supplied no sink is a protocol violation.

        Raises:
            DeadlineExceededError: budget spent before the response landed.
            ConnectionLostError: the socket broke mid-call.
            ProtocolError: the response violated the protocol; the
                connection must be discarded.
            RemoteCallError: the server answered with a typed error (or
                a rebuilt local exception class for the allowlisted
                types, e.g. ``UnknownFieldError``).
        """
        self._ensure_open()
        request_id = self._next_request_id
        self._next_request_id += 1
        parts = codec.encode_message_parts({"method": method, **header}, blobs)
        sent = send_frame(
            self._sock, FrameType.REQUEST, request_id, parts, deadline,
            codec=self._codec,
        )
        received = 0
        partials = 0
        via_shm = 0
        while True:
            frame = recv_frame(
                self._sock, deadline, codec=self._codec, shm=self._ring
            )
            assert frame is not None
            if frame.request_id != request_id:
                raise ProtocolError(
                    f"response id {frame.request_id} does not match "
                    f"request {request_id}"
                )
            received += frame.wire_bytes
            via_shm += frame.shm_bytes
            response_header, response_blobs = codec.decode_message(frame.payload)
            if frame.frame_type == FrameType.PARTIAL:
                try:
                    if sink is None:
                        raise ProtocolError(
                            f"{self.address} streamed PARTIAL frames for a "
                            f"call without a sink"
                        )
                    sink.feed(response_header, response_blobs)
                finally:
                    if frame.release is not None:
                        frame.release()
                partials += 1
                continue
            if frame.frame_type == FrameType.ERROR:
                raise remote_error(response_header)
            if frame.frame_type != FrameType.RESPONSE:
                raise ProtocolError(
                    f"expected RESPONSE, got {frame.frame_type.name} "
                    f"from {self.address}"
                )
            return CallResult(
                response_header, response_blobs, sent, received, partials,
                via_shm,
            )

    def ping(self, deadline: Deadline) -> float:
        """Health check; returns the round-trip wall seconds.

        Raises the same family of errors as :meth:`call`.
        """
        self._ensure_open()
        start = clock.now()
        send_frame(self._sock, FrameType.PING, 0, b"", deadline)
        frame = recv_frame(self._sock, deadline)
        assert frame is not None
        if frame.frame_type != FrameType.PONG:
            raise ProtocolError(f"expected PONG, got {frame.frame_type.name}")
        return clock.now() - start

    # -- lifecycle -------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ConnectionLostError(f"client to {self.address} is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def shm_active(self) -> bool:
        """Whether the server attached to this connection's ring."""
        return self._ring is not None

    def close(self) -> None:
        """Close the socket and the payload ring (idempotent)."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never owes us anything
                pass
            if self._ring is not None:
                self._ring.close()
                self._ring = None

    def __enter__(self) -> "NodeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class _Waiter:
    """Per-request mailbox the reader loop posts frames into."""

    frames: "queue.SimpleQueue[tuple]" = field(default_factory=queue.SimpleQueue)


def _drain_releases(waiter: _Waiter) -> None:
    """Ack ring slots of frames a finished/abandoned caller never took."""
    while True:
        try:
            entry = waiter.frames.get_nowait()
        except queue.Empty:
            return
        if entry[0] in ("partial", "final") and callable(entry[-1]):
            entry[-1]()


class PipelinedConnection:
    """One multiplexed framed connection with many in-flight requests.

    A daemon reader thread owns a duplicate of the socket's file
    descriptor (``sock.dup()``), so receive timeouts never race the
    sender's ``settimeout`` calls.  Sends are serialized by a lock;
    responses are matched to callers by the ``request_id`` the frame
    header already carries.  Any transport failure — EOF, reset, a
    malformed frame — fails *all* outstanding requests with
    :class:`ConnectionLostError` and permanently marks the connection
    unusable; the pool then discards it.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_deadline: Deadline,
        *,
        compression: CompressionConfig | None = None,
        on_ratio: Callable[[float], None] | None = None,
        shm: bool = False,
    ) -> None:
        self.address = f"{host}:{port}"
        config = compression if compression is not None else DEFAULT_COMPRESSION
        self._sock = _connect(host, port, self.address, connect_deadline)
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._waiters: dict[int, _Waiter] = {}
        self._next_request_id = 1
        self._dead: Exception | None = None
        self._closed = False
        self.node_id: int | None = None
        self._ring = _make_ring(shm)
        try:
            self.node_id, self._codec, granted = perform_handshake(
                self._sock, self.address, connect_deadline, config, on_ratio,
                ring=self._ring,
            )
            if not granted and self._ring is not None:
                self._ring.close()
                self._ring = None
            self._rsock = self._sock.dup()
        except Exception:
            self._sock.close()
            if self._ring is not None:
                self._ring.close()
                self._ring = None
            raise
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"net-mux-{self.address}",
            daemon=True,
        )
        self._reader.start()

    # -- state -----------------------------------------------------------------

    @property
    def usable(self) -> bool:
        """Whether new calls may be issued on this connection."""
        with self._state_lock:
            return not self._closed and self._dead is None

    @property
    def in_flight(self) -> int:
        """Outstanding requests (the pool's load-balancing signal)."""
        with self._state_lock:
            return len(self._waiters)

    @property
    def shm_active(self) -> bool:
        """Whether the server attached to this connection's ring."""
        return self._ring is not None

    # -- calls -----------------------------------------------------------------

    def call(
        self,
        method: str,
        header: dict,
        blobs: Sequence[Buffer],
        deadline: Deadline,
        *,
        sink: PartialSink | None = None,
    ) -> CallResult:
        """One multiplexed RPC; safe to invoke from many threads at once.

        Raises the same family of errors as :meth:`NodeClient.call`; in
        addition, a request that times out merely abandons its mailbox
        (the connection stays healthy and a late response is dropped).
        """
        request_id, waiter = self._register()
        parts = codec.encode_message_parts({"method": method, **header}, blobs)
        sent = self._send(FrameType.REQUEST, request_id, parts, deadline)
        return self._await_response(
            request_id, waiter, deadline, sent, sink=sink
        )

    def ping(self, deadline: Deadline) -> float:
        """Health check; returns the round-trip wall seconds."""
        request_id, waiter = self._register()
        start = clock.now()
        self._send(FrameType.PING, request_id, b"", deadline)
        result = self._await_response(request_id, waiter, deadline, 0,
                                      sink=None, expect=FrameType.PONG)
        del result
        return clock.now() - start

    def _register(self) -> tuple[int, _Waiter]:
        with self._state_lock:
            if self._closed:
                raise ConnectionLostError(
                    f"client to {self.address} is closed"
                )
            if self._dead is not None:
                raise ConnectionLostError(
                    f"connection to {self.address} is dead: {self._dead}"
                )
            request_id = self._next_request_id
            self._next_request_id += 1
            waiter = _Waiter()
            self._waiters[request_id] = waiter
            return request_id, waiter

    def _unregister(self, request_id: int) -> None:
        with self._state_lock:
            self._waiters.pop(request_id, None)

    def _send(
        self,
        frame_type: FrameType,
        request_id: int,
        payload: Buffer | Sequence[Buffer],
        deadline: Deadline,
    ) -> int:
        try:
            # Holding _send_lock across the write is the point: frames
            # from concurrent callers must not interleave on the wire,
            # and the send is bounded by the request deadline.
            with self._send_lock:
                return send_frame(  # turblint: disable=LOCK02
                    self._sock, frame_type, request_id, payload, deadline,
                    codec=self._codec,
                )
        except (DeadlineExceededError, ConnectionLostError, OSError) as error:
            # A partially-written frame desyncs the stream for everyone:
            # poison the connection, not just this call.
            self._unregister(request_id)
            self._fail_all(
                ConnectionLostError(
                    f"send to {self.address} failed mid-frame: {error}"
                )
            )
            raise
        except BaseException:
            self._unregister(request_id)
            raise

    def _await_response(
        self,
        request_id: int,
        waiter: _Waiter,
        deadline: Deadline,
        sent: int,
        *,
        sink: PartialSink | None,
        expect: FrameType = FrameType.RESPONSE,
    ) -> CallResult:
        received = 0
        partials = 0
        via_shm = 0
        try:
            while True:
                try:
                    entry = waiter.frames.get(timeout=deadline.remaining())
                except queue.Empty:
                    raise DeadlineExceededError(
                        f"no response from {self.address} within the deadline"
                    ) from None
                kind = entry[0]
                if kind == "partial":
                    _, part_header, part_blobs, wire, shm_span, release = entry
                    received += wire
                    via_shm += shm_span
                    partials += 1
                    try:
                        if sink is None:
                            raise ProtocolError(
                                f"{self.address} streamed PARTIAL frames for "
                                f"a call without a sink"
                            )
                        sink.feed(part_header, part_blobs)
                    finally:
                        if release is not None:
                            del part_blobs
                            release()
                    continue
                if kind == "failed":
                    raise entry[1]
                _, frame_type, resp_header, resp_blobs, wire, shm_span, _rel = (
                    entry
                )
                received += wire
                via_shm += shm_span
                if frame_type == FrameType.ERROR:
                    raise remote_error(resp_header)
                if frame_type != expect:
                    raise ProtocolError(
                        f"expected {expect.name}, got {frame_type.name} "
                        f"from {self.address}"
                    )
                return CallResult(
                    resp_header, resp_blobs, sent, received, partials, via_shm
                )
        finally:
            self._unregister(request_id)
            _drain_releases(waiter)

    # -- reader loop -----------------------------------------------------------

    def _read_loop(self) -> None:
        while True:
            with self._state_lock:
                if self._closed or self._dead is not None:
                    return
            try:
                frame = poll_frame(
                    self._rsock,
                    poll=READ_POLL_SECONDS,
                    frame_timeout=READER_FRAME_TIMEOUT,
                    codec=self._codec,
                    shm=self._ring,
                )
            except (NetError, OSError) as error:
                self._fail_all(
                    ConnectionLostError(
                        f"connection to {self.address} lost: {error}"
                    )
                )
                return
            if frame is None:
                continue
            try:
                self._dispatch(frame)
            except NetError as error:
                self._fail_all(
                    ConnectionLostError(
                        f"undecodable frame from {self.address}: {error}"
                    )
                )
                return

    def _dispatch(self, frame: Frame) -> None:
        frame_type = frame.frame_type
        if frame_type == FrameType.PARTIAL:
            header, blobs = codec.decode_message(frame.payload)
            with self._state_lock:
                waiter = self._waiters.get(frame.request_id)
            if waiter is None:
                # The caller already timed out: nobody will consume this
                # chunk, so hand its ring slot straight back.
                if frame.release is not None:
                    frame.release()
                return
            waiter.frames.put(
                (
                    "partial", header, blobs, frame.wire_bytes,
                    frame.shm_bytes, frame.release,
                )
            )
            return
        if frame_type in (FrameType.RESPONSE, FrameType.ERROR, FrameType.PONG):
            if frame_type == FrameType.PONG:
                header, blobs = {}, []
            else:
                header, blobs = codec.decode_message(frame.payload)
            with self._state_lock:
                waiter = self._waiters.pop(frame.request_id, None)
            # A missing waiter is a caller that already timed out; the
            # late response is dropped and the connection stays healthy.
            if waiter is None:
                if frame.release is not None:
                    frame.release()
                return
            waiter.frames.put(
                (
                    "final", frame_type, header, blobs, frame.wire_bytes,
                    frame.shm_bytes, frame.release,
                )
            )
            return
        raise ProtocolError(
            f"unexpected {frame_type.name} frame on a pipelined connection"
        )

    def _fail_all(self, error: ConnectionLostError) -> None:
        with self._state_lock:
            if self._dead is None and not self._closed:
                self._dead = error
            waiters = list(self._waiters.values())
            self._waiters.clear()
        for waiter in waiters:
            waiter.frames.put(("failed", error))

    # -- lifecycle -------------------------------------------------------------

    @property
    def closed(self) -> bool:
        with self._state_lock:
            return self._closed

    def close(self) -> None:
        """Close both socket handles and fail any outstanding requests."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
        self._fail_all(
            ConnectionLostError(f"client to {self.address} was closed")
        )
        for sock in (self._sock, self._rsock):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never owes us anything
                pass
        self._reader.join(timeout=2.0)
        if self._ring is not None:
            self._ring.close()
            self._ring = None

    def __enter__(self) -> "PipelinedConnection":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
