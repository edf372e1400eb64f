"""Typed error taxonomy of the network tier.

Every failure mode of the cluster transport has its own class so that
callers (the mediator's gather loop, the web service's error mapper,
tests) can dispatch on it — the same ERR01 contract the storage engine
keeps with :mod:`repro.storage.errors`.  The taxonomy distinguishes the
three questions a caller asks about an RPC failure:

* *is the request known not to have executed?* —
  :class:`NodeUnavailableError` (the connection never opened) and
  :class:`ConnectionLostError` before the request was written are safe
  to retry; the client stack retries them automatically (every node
  RPC is a read);
* *did we run out of time?* — :class:`DeadlineExceededError` is never
  retried (the budget is spent by definition);
* *did the peer speak garbage?* — :class:`FrameError` /
  :class:`ProtocolError` poison the connection, which is discarded
  rather than returned to the pool.  A frame cut off by the peer's
  close (:class:`TruncatedFrameError`) is both: garbage on this
  connection, and a lost connection to retry and fail over on.
"""

from __future__ import annotations


class NetError(Exception):
    """Base class for every error of the ``repro.net`` tier."""


class ProtocolError(NetError):
    """The peer violated the wire protocol (bad magic, version, ids)."""


class FrameError(ProtocolError):
    """A malformed frame: truncated, oversized or garbage bytes."""


class DeadlineExceededError(NetError):
    """The per-request deadline expired before the response arrived."""


class ConnectionLostError(NetError):
    """An established connection broke while a call was in flight."""


class TruncatedFrameError(FrameError, ConnectionLostError):
    """The peer closed the connection partway through a frame.

    A node that dies while writing its RESPONSE leaves exactly this
    behind, so the pool retries it and the transport fails over on it
    like any other lost connection.
    """


class NodeUnavailableError(NetError):
    """A node could not be reached (after any configured retries).

    Attributes:
        address: ``host:port`` of the unreachable node.
        attempts: connection attempts made before giving up.
    """

    def __init__(self, address: str, attempts: int, message: str) -> None:
        super().__init__(message)
        self.address = address
        self.attempts = attempts


class RemoteCallError(NetError):
    """The server answered with a typed error response.

    Attributes:
        remote_type: exception class name raised on the server.
        code: stable wire-level error code.
    """

    def __init__(self, remote_type: str, code: str, message: str) -> None:
        super().__init__(message)
        self.remote_type = remote_type
        self.code = code


class PartialFailureError(NetError):
    """A distributed query lost one of its node parts.

    Raised by the mediator's gather after the transport's retries are
    exhausted; the remaining node parts have been cancelled or drained,
    so the cluster is quiescent when this surfaces.

    Attributes:
        node_id: the shard whose part failed first (kept for backward
            compatibility; equals ``node_ids[0]`` when those are set).
        node_ids: every node id involved in the failed part — on a
            replicated cluster these are the replicas that were tried
            and found dead, so failover logic and tests can target the
            exact machines that were lost.
        ranges: the Morton ranges (as ``(start, stop)`` pairs or
            :class:`~repro.morton.ranges.MortonRange` objects) the
            failed part was responsible for — the sub-ranges a retry
            must re-scatter.
    """

    def __init__(
        self,
        node_id: int,
        message: str,
        *,
        node_ids: "tuple[int, ...]" = (),
        ranges: tuple = (),
    ) -> None:
        super().__init__(message)
        self.node_id = node_id
        self.node_ids = node_ids or (node_id,)
        self.ranges = tuple(ranges)


class NoLiveReplicaError(NetError):
    """Every replica of a shard was tried and none could answer.

    Raised by the HA transport when mid-query failover exhausts a
    shard's placement — the distributed query cannot complete until a
    replica returns.

    Attributes:
        shard_id: the Morton shard with no live replica.
        attempted: node ids tried, in routing order.
    """

    def __init__(
        self, shard_id: int, attempted: "tuple[int, ...]", message: str
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        self.attempted = attempted


class UnsupportedRemoteOperationError(NetError):
    """A local-only operation (ingest, raw block reads) on a TCP cluster.

    Data loading and whole-array reads run where the storage lives; a
    mediator fronting remote node servers must not silently no-op them.
    """
