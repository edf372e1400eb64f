"""Length-prefixed binary framing with mandatory deadlines.

One frame is a fixed 20-byte header followed by an opaque payload::

    magic    4s   b"RNET"
    version  B    protocol version (3)
    type     B    frame type (FrameType)
    flags    H    low byte: payload codec id (0 raw, 1 zlib); high byte 0
    request  Q    request id, echoed by the matching response
    length   I    payload byte count *as sent* (post-compression)

The payload of :data:`FrameType.REQUEST` / ``RESPONSE`` frames is a
:mod:`repro.net.codec` message whose column blobs are the pointset
blobs *verbatim* — query results cross the wire without re-encoding.
Every request is answered by exactly one RESPONSE (or ERROR) frame.

The data plane is zero-copy in both directions.  Senders hand
:func:`send_frame` a *list* of buffers (header dict bytes, per-blob
length prefixes, the blobs themselves) and a vectored
``socket.sendmsg`` loop pushes them out without ever concatenating;
receivers preallocate one ``bytearray`` per frame and fill it with
``recv_into``, handing slices of it upward as ``memoryview``s.  A
16 MiB pointset response therefore touches userspace memory exactly
once on each side.

Every read and write on a socket goes through :func:`send_frame` /
:func:`recv_frame`, which re-arm the socket timeout around each OS
call (:func:`idle_socket_is_stale` is the one non-blocking peek) — the
NET01 lint rule pins all raw socket usage to this module and checks the
timeout discipline statically, and NET02 keeps payload concatenation
off this hot path.
"""

from __future__ import annotations

import enum
import socket
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from repro.net.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    FrameError,
    TruncatedFrameError,
)
from repro.obs import clock

if TYPE_CHECKING:
    from repro.net.compress import FrameCodec

#: Anything the wire layer accepts as payload bytes without copying.
Buffer = Union[bytes, bytearray, memoryview]

#: First bytes of every frame.
MAGIC = b"RNET"
#: Wire protocol version; bumped on incompatible frame/codec changes.
#: Version 2: flags carry the per-frame codec id and the handshake
#: negotiates compression codecs.  Version 3: one RESPONSE per request —
#: frame type 8 (a streamed chunk) and flag 0x100 (a shared-memory
#: locator) are no longer legal.
PROTOCOL_VERSION = 3
#: Frame header layout (little-endian, 20 bytes).
HEADER = struct.Struct("<4sBBHQI")
#: Ceiling on a single frame's payload.  A node's whole share of an
#: answer travels in one frame, and the largest answer the service
#: allows (10^6 points at 16 bytes each) is 16 MB; a node refuses a
#: bigger reply with a typed ERROR, and a peer announcing one is garbage.
MAX_PAYLOAD = 256 * 1024 * 1024
#: Mask of the flags bits that carry the codec id; every other bit is
#: illegal.
CODEC_FLAG_MASK = 0x00FF
#: Buffers per sendmsg call — comfortably under every platform's IOV_MAX.
_IOV_BATCH = 64

#: ``socket.sendmsg`` is POSIX-only; fall back to per-buffer sendall
#: elsewhere (still zero-copy, just one syscall per buffer).
_HAS_SENDMSG = hasattr(socket.socket, "sendmsg")


class FrameType(enum.IntEnum):
    """Kinds of frames the protocol exchanges."""

    HELLO = 1  #: client -> server: version + codec handshake
    HELLO_ACK = 2  #: server -> client: handshake accepted, codec chosen
    PING = 3  #: client -> server: health check
    PONG = 4  #: server -> client: health response
    REQUEST = 5  #: client -> server: one RPC call
    RESPONSE = 6  #: server -> client: successful RPC result
    ERROR = 7  #: server -> client: typed RPC failure


class Frame(NamedTuple):
    """One decoded frame as it came off the wire.

    ``payload`` is the *decompressed* payload — usually a ``memoryview``
    over the preallocated receive buffer (or over the inflated bytes for
    a compressed frame).  ``wire_bytes`` is what actually crossed the
    wire, header included, so the ledger's ``wire_bytes`` meter charges
    the compressed footprint.
    """

    frame_type: FrameType
    request_id: int
    payload: Buffer
    wire_bytes: int


@dataclass(frozen=True)
class Deadline:
    """An absolute point on the monotonic clock a request must beat.

    Deadlines are mandatory on every socket operation: a
    :class:`Deadline` is created once per request from a relative
    timeout and passed down the stack, so retries and multi-frame
    exchanges share one budget instead of resetting it per read.
    """

    expires_at: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` of wall time from now.

        Raises:
            ValueError: on a non-positive budget.
        """
        if seconds <= 0:
            raise ValueError(f"deadline budget must be positive, got {seconds}")
        return cls(clock.now() + seconds)

    def remaining(self) -> float:
        """Seconds left on the budget.

        Raises:
            DeadlineExceededError: when the budget is already spent.
        """
        left = self.expires_at - clock.now()
        if left <= 0:
            raise DeadlineExceededError("request deadline exceeded")
        return left


def send_frame(
    sock: socket.socket,
    frame_type: FrameType,
    request_id: int,
    payload: Buffer | Sequence[Buffer],
    deadline: Deadline,
    *,
    codec: "FrameCodec | None" = None,
) -> int:
    """Write one frame; returns the number of bytes put on the wire.

    ``payload`` may be a single buffer or a sequence of buffers; the
    sequence form is the hot path — header bytes, length prefixes and
    column blobs are handed straight to the vectored send loop without
    ever being joined.  With a negotiated ``codec`` the payload may ship
    compressed, in which case the returned byte count (and the flags
    field) reflect the compressed frame.

    Raises:
        FrameError: payload over :data:`MAX_PAYLOAD`.
        DeadlineExceededError: the send did not finish in time.
        ConnectionLostError: the peer closed or reset the connection.
    """
    if isinstance(payload, (bytes, bytearray, memoryview)):
        parts: Sequence[Buffer] = (payload,)
    else:
        parts = payload
    total = 0
    for part in parts:
        total += len(part)
    if total > MAX_PAYLOAD:
        raise FrameError(
            f"payload of {total} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame ceiling"
        )
    flags = 0
    if codec is not None:
        flags, parts, total = codec.encode(parts, total)
    header = HEADER.pack(
        MAGIC, PROTOCOL_VERSION, int(frame_type), flags, request_id, total
    )
    buffers: list[Buffer] = [header]
    for part in parts:
        if len(part):
            buffers.append(part)
    _send_all(sock, buffers, deadline)
    return HEADER.size + total


def _send_all(
    sock: socket.socket, buffers: list[Buffer], deadline: Deadline
) -> None:
    """Vectored ``sendall``: push every buffer, re-arming the timeout.

    Uses ``sendmsg`` with up to :data:`_IOV_BATCH` iovecs per syscall
    and advances past partial sends by re-slicing memoryviews — no
    buffer is ever copied or concatenated.
    """
    views = [memoryview(buffer) for buffer in buffers]
    index = 0
    while index < len(views):
        sock.settimeout(deadline.remaining())
        try:
            if _HAS_SENDMSG:
                sent = sock.sendmsg(views[index : index + _IOV_BATCH])
            else:  # pragma: no cover - non-POSIX fallback
                sock.sendall(views[index])
                sent = len(views[index])
        except socket.timeout:
            raise DeadlineExceededError(
                "deadline exceeded while sending"
            ) from None
        except OSError as error:
            raise ConnectionLostError(f"send failed: {error}") from error
        while sent > 0:
            head = views[index]
            if sent >= len(head):
                sent -= len(head)
                index += 1
            else:
                views[index] = head[sent:]
                sent = 0


def recv_frame(
    sock: socket.socket,
    deadline: Deadline,
    *,
    eof_ok: bool = False,
    codec: "FrameCodec | None" = None,
) -> Frame | None:
    """Read one frame; returns a :class:`Frame` (or ``None`` at EOF).

    A clean end-of-stream *before any header byte* returns ``None`` when
    ``eof_ok`` is set (a client hanging up between requests) and raises
    :class:`ConnectionLostError` otherwise; EOF anywhere inside a frame
    is always a truncation (:class:`TruncatedFrameError`, a
    :class:`FrameError` that is also a :class:`ConnectionLostError`).

    Raises:
        FrameError: bad magic/version/flags, oversized, truncated or
            corrupt-compressed frame.
        DeadlineExceededError: the frame did not arrive in time.
        ConnectionLostError: reset, or EOF with ``eof_ok`` unset.
    """
    header = bytearray(HEADER.size)
    if not _recv_exact(sock, memoryview(header), deadline, eof_ok=eof_ok):
        return None
    return _finish_frame(sock, header, deadline, codec)


def idle_socket_is_stale(sock: socket.socket) -> bool:
    """Whether a socket with no exchange open has anything to read.

    A non-blocking one-byte peek: nothing there means the peer is
    connected and quiet; EOF, a reset or unsolicited bytes all mean the
    connection can carry no further request.  The next frame call
    re-arms the socket's timeout from its own deadline.
    """
    try:
        sock.settimeout(0.0)
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return False
    except OSError:
        return True
    return True


def _finish_frame(
    sock: socket.socket,
    header: bytearray,
    deadline: Deadline,
    codec: "FrameCodec | None",
) -> Frame:
    """Validate a complete header and collect the payload."""
    magic, version, type_code, flags, request_id, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise FrameError(
            f"peer speaks protocol {version}, this build speaks "
            f"{PROTOCOL_VERSION}"
        )
    if flags & ~CODEC_FLAG_MASK:
        raise FrameError(f"unsupported frame flags {flags:#x}")
    try:
        frame_type = FrameType(type_code)
    except ValueError:
        raise FrameError(f"unknown frame type {type_code}") from None
    if length > MAX_PAYLOAD:
        raise FrameError(
            f"frame announces {length} payload bytes, over the "
            f"{MAX_PAYLOAD}-byte ceiling"
        )
    buffer = bytearray(length)
    if length:
        _recv_exact(sock, memoryview(buffer), deadline, eof_ok=False)
    codec_id = flags & CODEC_FLAG_MASK
    payload: Buffer = memoryview(buffer)
    if codec_id:
        if codec is None:
            raise FrameError(
                f"unsupported frame flags {flags:#x}: compressed frame "
                "on a connection that negotiated no codec"
            )
        payload = codec.decode(codec_id, payload)
    return Frame(frame_type, request_id, payload, HEADER.size + length)


def _recv_exact(
    sock: socket.socket,
    view: memoryview,
    deadline: Deadline,
    *,
    eof_ok: bool,
) -> bool:
    """Fill ``view`` from the socket, re-arming the timeout per read.

    Returns ``False`` only on a clean EOF before the first byte with
    ``eof_ok`` set; otherwise ``True`` once the view is full.
    """
    total = len(view)
    got = 0
    while got < total:
        sock.settimeout(deadline.remaining())
        try:
            count = sock.recv_into(view[got:])
        except socket.timeout:
            raise DeadlineExceededError(
                "deadline exceeded while awaiting frame bytes"
            ) from None
        except OSError as error:
            raise ConnectionLostError(f"recv failed: {error}") from error
        if count == 0:
            if got == 0 and eof_ok:
                return False
            if got == 0:
                raise ConnectionLostError("connection closed by peer")
            raise TruncatedFrameError(
                f"truncated frame: peer closed after {got} of {total} bytes"
            )
        got += count
    return True
