"""repro.net: the cluster's real transport tier.

A length-prefixed binary wire protocol (:mod:`repro.net.frame`,
:mod:`repro.net.codec`) whose payloads carry the engine's columnar
point-set blobs verbatim; a threaded TCP node server
(:mod:`repro.net.server`, ``python -m repro.net serve-node``); a client
stack with per-host connection pooling, mandatory deadlines and
jittered retries (:mod:`repro.net.client`, :mod:`repro.net.pool`); and
the :class:`~repro.net.transport.Transport` seam that lets the mediator
run its per-node query parts either in-process (the seed behaviour,
bit-for-bit) or against a real multi-process cluster (one
replica-aware :class:`~repro.net.transport.TcpTransport`; its default
placement is the unreplicated layout).  What differs between query
kinds is one table, :mod:`repro.net.kinds`.

The data plane is built for throughput: frames are assembled as lists
of buffers and sent with vectored I/O (no full-payload concatenation),
the handshake negotiates per-frame compression
(:mod:`repro.net.compress`), and each call owns one pooled connection
for its request and its one response frame.
"""

from repro.net.client import CallResult, NodeClient, RetryPolicy
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
    NetError,
    NodeUnavailableError,
    PartialFailureError,
    ProtocolError,
    RemoteCallError,
    UnsupportedRemoteOperationError,
)
from repro.net.frame import Deadline, Frame, FrameType, PROTOCOL_VERSION
from repro.net.pool import ConnectionPool
from repro.net.transport import InProcessTransport, TcpTransport, Transport

__all__ = [
    "CallResult",
    "CompressionConfig",
    "ConnectionLostError",
    "ConnectionPool",
    "DEFAULT_COMPRESSION",
    "Deadline",
    "DeadlineExceededError",
    "Frame",
    "FrameCodec",
    "FrameError",
    "FrameType",
    "InProcessTransport",
    "NO_COMPRESSION",
    "NetError",
    "NodeClient",
    "NodeUnavailableError",
    "PROTOCOL_VERSION",
    "PartialFailureError",
    "ProtocolError",
    "RemoteCallError",
    "RetryPolicy",
    "TcpTransport",
    "Transport",
    "UnsupportedRemoteOperationError",
    "negotiate",
]
