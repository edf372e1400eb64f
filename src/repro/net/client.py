"""The client connection to a node server, plus the retry policy.

:class:`NodeClient` is the one connection type: handshake on connect
(HELLO/HELLO_ACK with protocol version, node id and codec negotiation),
then one REQUEST at a time, reading its one RESPONSE inline on the
caller's thread.  Concurrent calls to one node take one connection each
from the node's :class:`~repro.net.pool.ConnectionPool`.

A call is written once, as an *exchange*: a generator that writes its
request, yields a :class:`Wait` for the reply and returns the
:class:`CallResult`.  The pool's retry loop and the transport's failover
loop ``yield from`` it, so each layer's body exists once.
:func:`run_inline` drives an exchange on the calling thread (a blocking
read, a plain sleep); :func:`run_all` drives several at once — every
request written first, then one ``selectors`` wait over all their
sockets — which is how the mediator scatters a query to its nodes
without a thread per part.

Every public operation takes an explicit deadline — there is no "no
timeout" mode anywhere in this tier (lint rule NET01 enforces the
discipline statically).

:class:`RetryPolicy` describes exponential backoff with jitter for
connection-level failures; every node RPC is a read, so any of them may
be replayed.  The retry loop itself lives in
:class:`~repro.net.pool.ConnectionPool`, which can swap the broken
connection a retry needs.
"""

from __future__ import annotations

import contextvars
import random
import selectors
import socket
from dataclasses import dataclass
from typing import Any, Callable, Generator, Mapping, NamedTuple, Sequence, TypeVar

from repro.core.query import BadRequestError
from repro.fields.derived import UnknownFieldError
from repro.net import codec, compress
from repro.net.compress import CompressionConfig, DEFAULT_COMPRESSION, FrameCodec
from repro.net.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    NodeUnavailableError,
    ProtocolError,
    RemoteCallError,
)
from repro.net.frame import (
    Buffer,
    Deadline,
    FrameType,
    PROTOCOL_VERSION,
    idle_socket_is_stale,
    recv_frame,
    send_frame,
)
from repro.obs import clock

#: Remote exception types rebuilt as their local classes, so the web
#: service's error mapping behaves identically on both transports.  Any
#: other type (a kernel's ``KeyError`` among them) is a
#: :class:`RemoteCallError`: a fault of the node, never a bad request.
_REMOTE_TYPES: Mapping[str, type[Exception]] = {
    "UnknownFieldError": UnknownFieldError,
    "BadRequestError": BadRequestError,
}


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for connection-level failures.

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
    ledger's ``wire_bytes`` meter charges.  ``received_at`` is when the
    reply was there to read: the instant :func:`run_all`'s wait saw the
    socket readable, or the end of the read when the caller blocked in
    it — so a reply read second is not charged the first one's decode.
    """

    header: dict
    blobs: list[Buffer]
    bytes_sent: int
    bytes_received: int
    received_at: float


class Wait(NamedTuple):
    """What an exchange waits for when it yields.

    ``client`` set: its reply (:func:`run_all` sends back the instant the
    socket was seen readable, or ``None`` once ``until`` — the call's
    deadline — has passed, and the read then raises
    :class:`DeadlineExceededError`).  ``client`` unset: a pause, a
    retry's backoff, over at ``until``.
    """

    client: "NodeClient | None"
    until: float


T = TypeVar("T")
#: A call written as a generator: yields :class:`Wait`, returns the answer.
Exchange = Generator[Wait, "float | None", T]


def run_inline(exchange: "Exchange[T]") -> T:
    """Drive one exchange on this thread: block in its read, sleep its pauses."""
    try:
        wait = next(exchange)
        while True:
            if wait.client is None:
                clock.sleep(max(0.0, wait.until - clock.now()))
            wait = exchange.send(None)
    except StopIteration as done:
        return done.value


def run_all(exchanges: "Sequence[Exchange[Any]]", deadline: Deadline) -> list[Any]:
    """Drive several exchanges at once on this thread; answers in order.

    Each exchange runs in its own copy of the caller's context, so the
    spans it opens nest per exchange although all of them interleave
    here.  Every exchange first runs until it has written its request;
    one ``selectors`` wait then serves every reply and every pause, so
    no reply, backoff or full pool one exchange waits for holds up
    another.  An exchange is resumed when its socket turns readable, its
    pause ends or its own deadline passes.  What does block the thread
    is a dial, and a reply's read once its first bytes are there; both
    are bounded by the exchange's own deadline, not by ``deadline``.

    On the first failure — or when ``deadline`` passes — every other
    exchange is closed: its open connection is discarded and nothing is
    left running or checked out.

    Raises:
        DeadlineExceededError: ``deadline`` passed with exchanges open.
        Exception: the first exception an exchange raised.
    """
    contexts = [contextvars.copy_context() for _ in exchanges]
    answers: list[Any] = [None] * len(exchanges)
    waiting: dict[int, Wait] = {}
    selector = selectors.DefaultSelector()

    def advance(index: int, ready_at: float | None) -> None:
        try:
            wait = contexts[index].run(exchanges[index].send, ready_at)
        except StopIteration as done:
            answers[index] = done.value
            return
        waiting[index] = wait
        if wait.client is not None:
            selector.register(wait.client, selectors.EVENT_READ, index)

    try:
        for index in range(len(exchanges)):
            advance(index, None)
        while waiting:
            now = clock.now()
            if now >= deadline.expires_at:
                raise DeadlineExceededError(
                    f"gather exceeded its deadline waiting on part(s) "
                    f"{sorted(waiting)}"
                )
            due = min(wait.until for wait in waiting.values())
            events = selector.select(
                max(0.0, min(due, deadline.expires_at) - now)
            )
            now = clock.now()
            ready = {key.data for key, _ in events}
            for index, wait in sorted(waiting.items()):
                if index in ready or wait.until <= now:
                    del waiting[index]
                    if wait.client is not None:
                        selector.unregister(wait.client)
                    advance(index, now if index in ready else None)
    except BaseException:
        for context, exchange in zip(contexts, exchanges):
            context.run(exchange.close)
        raise
    finally:
        selector.close()
    return answers


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


def perform_handshake(
    sock: socket.socket,
    address: str,
    deadline: Deadline,
    config: CompressionConfig,
    on_ratio: Callable[[float], None] | None = None,
) -> tuple[int | None, FrameCodec]:
    """HELLO/HELLO_ACK: agree on protocol version and codecs.

    The client advertises the codec names it supports; the server picks
    a primary codec (or ``"none"``) and echoes its own codec list so
    both sides know the shared set the per-frame probe may use.
    Returns the server's node id and the negotiated :class:`FrameCodec`.

    Raises:
        ProtocolError: version mismatch, or the server chose a codec
            this client never advertised.
    """
    payload = codec.encode_message(
        {"protocol": PROTOCOL_VERSION, "codecs": list(config.codecs)}
    )
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
    return node_id, FrameCodec(
        config, chosen, on_ratio=on_ratio, allowed=allowed
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
    ) -> None:
        self.address = f"{host}:{port}"
        config = compression if compression is not None else DEFAULT_COMPRESSION
        self._sock = _connect(host, port, self.address, connect_deadline)
        self._next_request_id = 1
        self._closed = False
        self.node_id: int | None = None
        try:
            self.node_id, self._codec = perform_handshake(
                self._sock, self.address, connect_deadline, config, on_ratio
            )
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
    ) -> CallResult:
        """One RPC round trip: one REQUEST frame, one RESPONSE frame.

        Raises the errors of :meth:`exchange`.
        """
        return run_inline(self.exchange(method, header, blobs, deadline))

    def exchange(
        self,
        method: str,
        header: dict,
        blobs: Sequence[Buffer],
        deadline: Deadline,
    ) -> "Exchange[CallResult]":
        """:meth:`call` as an exchange: yields once, after the request is written.

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
        ready_at = yield Wait(self, deadline.expires_at)
        frame = recv_frame(self._sock, deadline, codec=self._codec)
        assert frame is not None
        received_at = clock.now() if ready_at is None else ready_at
        if frame.request_id != request_id:
            raise ProtocolError(
                f"response id {frame.request_id} does not match "
                f"request {request_id}"
            )
        response_header, response_blobs = codec.decode_message(frame.payload)
        if frame.frame_type == FrameType.ERROR:
            raise remote_error(response_header)
        if frame.frame_type != FrameType.RESPONSE:
            raise ProtocolError(
                f"expected RESPONSE, got {frame.frame_type.name} "
                f"from {self.address}"
            )
        return CallResult(
            response_header, response_blobs, sent, frame.wire_bytes,
            received_at,
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

    def fileno(self) -> int:
        """The socket's descriptor, for :func:`run_all`'s wait."""
        return self._sock.fileno()

    def stale(self) -> bool:
        """Whether the peer hung up (or spoke) while no call was open.

        Between calls nothing is owed on a request/response connection,
        so a readable socket means EOF, a reset or stray bytes: the pool
        closes such a connection instead of spending a call on it.
        """
        return idle_socket_is_stale(self._sock)

    def close(self) -> None:
        """Close the socket (idempotent)."""
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never owes us anything
                pass

    def __enter__(self) -> "NodeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
