"""The node server: one DatabaseNode behind the wire protocol.

``python -m repro.net serve-node`` turns one :class:`DatabaseNode` into
an OS process answering the mediator's per-node query parts — threshold,
batched threshold, PDF and top-k evaluation over its Morton shard — plus
the internal ``halo`` reads its peer node servers issue for boundary
bands.  Every node of a multi-process cluster regenerates the cluster's
deterministic synthetic dataset from the shared :class:`ClusterConfig`
and ingests only its own shard, so no bulk data ever crosses the wire
at start-up.

Peer halo reads go through :class:`RemoteHaloPeer`, an RPC proxy with
the same signature and cost-charging contract as
:meth:`~repro.cluster.node.DatabaseNode.serve_halo`: the *server* side
reads with no ledger bound, and the *requesting* side charges the
interconnect transfer to the query's ledger — identical accounting to
the in-process cluster.  Each proxy calls one peer shard through the
server's :class:`~repro.net.transport.TcpTransport`, so a halo read
picks and fails over between a shard's replicas exactly like the
mediator's query parts do.

Each connection gets one thread.  It negotiates a frame codec in the
HELLO exchange and then answers one REQUEST at a time, in place: the
frame is read, the query runs and its one RESPONSE frame — a node's
whole share of the answer — is written on that thread before the next
frame is read.  A client with several calls in flight holds several
connections, so requests run concurrently across connection threads
and no frame can interleave with another.
"""

from __future__ import annotations

import json
import socket
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.cluster.node import DatabaseNode
from repro.cluster.partition import MortonPartitioner
from repro.core.cache import SemanticCache
from repro.core.executor import HaloPeer, NodeExecutor
from repro.core.pdfcache import PdfCache
from repro.core.query import BadRequestError, parse, to_record
from repro.costmodel import Category, ClusterSpec, CostLedger, paper_cluster
from repro.costmodel.ledger import METER_HALO_BYTES, METER_HALO_SECONDS
from repro.fields.derived import FieldRegistry, UnknownFieldError, default_registry
from repro.morton import MortonRange
from repro.net import codec
from repro.net.compress import (
    CompressionConfig,
    DEFAULT_COMPRESSION,
    FrameCodec,
    negotiate,
    shared_codecs,
)
from repro.ha.placement import PlacementMap
from repro.net.client import CallResult
from repro.net.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    FrameError,
    NetError,
    NoLiveReplicaError,
    NodeUnavailableError,
    ProtocolError,
)
from repro.net.frame import (
    Buffer,
    Deadline,
    FrameType,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
)
from repro.net.kinds import KINDS, NodeContext, QueryKind
from repro.net.pool import ConnectionPool
from repro.net.transport import DEFAULT_RPC_TIMEOUT, TcpTransport
from repro.obs import clock, tracing
from repro.simulation.datasets import (
    SyntheticDataset,
    channel_dataset,
    isotropic_dataset,
    mhd_dataset,
)
from repro.simulation.ingest import AtomRun, atomize
from repro.storage.errors import StorageError

#: Name of the cluster description file inside ``--db`` directories.
CONFIG_FILENAME = "cluster.json"

#: Seconds a connection may sit idle between frames before the server
#: drops it (a pooled client finds the EOF at its next checkout).
IDLE_TIMEOUT = 300.0

#: Budget for writing one response back to a (possibly slow) client.
RESPONSE_TIMEOUT = 60.0

#: Methods whose RESPONSE ships raw whatever HELLO negotiated.  The
#: probe lets shuffle-zlib at halo atoms for a 1.14x smaller frame that
#: costs 29.6 ms per 768 KiB band to deflate and inflate, 3.9 ms raw.
#: A threshold part asked to ``render`` ships raw too: zlib level 1
#: takes 25.8 ms to shrink a 1.48 MB fragment 3.1x.
RAW_REPLY_METHODS = frozenset({"halo"})

_DATASET_FACTORIES = {
    "mhd": mhd_dataset,
    "isotropic": isotropic_dataset,
    "channel": channel_dataset,
}

#: The typed failures of a request (the ERR01 taxonomy boundary),
#: answered with a ``remote_error`` ERROR frame.  The connection-level
#: types cover a node's *outgoing* halo RPCs: when a peer shard's
#: replicas die mid-query, the requesting node must answer its client
#: with a typed ERROR (which the transport treats as failover-worthy)
#: instead of going silent until the client's deadline.  Anything else
#: a request raises is this node's fault, not the request's: it is
#: answered too, as an ``internal_error`` naming its type.
_REQUEST_ERRORS = (
    ProtocolError,
    BadRequestError,
    UnknownFieldError,
    StorageError,
    NodeUnavailableError,
    ConnectionLostError,
    DeadlineExceededError,
    NoLiveReplicaError,
)


#: What a request handler returns: one RESPONSE message.
Response = tuple[dict, Sequence[Buffer]]


@dataclass(frozen=True)
class _AtomRead:
    """The header of a ``halo`` or ``digest`` request: whose atoms."""

    dataset: str
    field: str
    timestep: int
    ranges: list[MortonRange]


class _ConnectionState:
    """One client connection: its socket and what HELLO negotiated.

    ``codec`` is ``None`` until the HELLO exchange negotiates one.
    Only the connection's own thread reads or writes the socket.
    """

    __slots__ = ("conn", "codec")

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        self.codec: FrameCodec | None = None

    def send(
        self,
        frame_type: FrameType,
        request_id: int,
        payload: "Buffer | Sequence[Buffer]",
        raw: bool = False,
    ) -> None:
        send_frame(
            self.conn,
            frame_type,
            request_id,
            payload,
            Deadline.after(RESPONSE_TIMEOUT),
            # Codec flags 0 (raw) is legal on every connection.
            codec=None if raw else self.codec,
        )

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - close owes us nothing
            pass


@dataclass(frozen=True)
class ClusterConfig:
    """The shared description every node of one cluster starts from.

    Stored as ``cluster.json`` in each node's ``--db`` directory; the
    dataset is deterministic in ``(kind, side, timesteps, seed)``, so
    each node process regenerates it locally and ingests only its own
    Morton shard.
    """

    dataset: str
    side: int
    timesteps: int
    seed: int
    nodes: int
    buffer_pages: int = 256
    cache_capacity_bytes: int | None = 256 * 1024 * 1024
    replication_factor: int = 1

    def __post_init__(self) -> None:
        if self.dataset not in _DATASET_FACTORIES:
            raise ValueError(
                f"unknown dataset kind {self.dataset!r}; "
                f"known: {sorted(_DATASET_FACTORIES)}"
            )
        if not 1 <= self.replication_factor <= self.nodes:
            raise ValueError(
                f"replication factor {self.replication_factor} outside "
                f"[1, {self.nodes}] for a {self.nodes}-node cluster"
            )

    def build_dataset(self) -> SyntheticDataset:
        """Regenerate the cluster's synthetic dataset."""
        factory = _DATASET_FACTORIES[self.dataset]
        return factory(
            side=self.side, timesteps=self.timesteps, seed=self.seed
        )

    def save(self, directory: "Path | str") -> Path:
        """Write ``cluster.json`` into ``directory``; returns its path."""
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        target = path / CONFIG_FILENAME
        target.write_text(json.dumps(to_record(self), indent=2) + "\n")
        return target

    @classmethod
    def load(cls, directory: "Path | str") -> "ClusterConfig":
        """Read ``cluster.json`` from a ``--db`` directory."""
        return parse(cls, json.loads((Path(directory) / CONFIG_FILENAME).read_text()))


@dataclass(frozen=True)
class _ShardLink:
    """One peer shard's calls, through the transport's failover loop.

    Shaped like :meth:`ConnectionPool.call`, so :class:`RemoteHaloPeer`
    takes either: the benchmark probe builds its peer on a bare pool.
    Once that probe reaches the halo through the transport (ROADMAP
    item 3), the peer can call the transport itself and this goes.
    """

    transport: TcpTransport
    shard: int

    def call(
        self,
        method: str,
        header: dict,
        blobs: Sequence[Buffer],
        *,
        timeout: float,
    ) -> CallResult:
        return self.transport.call(
            self.shard, method, header, blobs, timeout=timeout
        )


class RemoteHaloPeer:
    """RPC proxy for a peer node's boundary reads.

    Satisfies :class:`repro.core.executor.HaloPeer`: the remote server
    reads its atoms with no ledger bound (charging nothing there), and
    this proxy charges the interconnect transfer to the requesting
    query's ledger — exactly what
    :meth:`~repro.cluster.node.DatabaseNode.serve_halo` does in-process.
    """

    def __init__(
        self,
        pool: "ConnectionPool | _ShardLink",
        dataset_spec_source: ClusterSpec,
        timeout: float,
    ) -> None:
        self._pool = pool
        self._spec = dataset_spec_source
        self._timeout = timeout

    def serve_halo(
        self,
        dataset: str,
        field: str,
        timestep: int,
        ranges: list[MortonRange],
        ledger: CostLedger | None,
    ) -> AtomRun:
        """Fetch boundary atoms from the peer over one RPC."""
        call = self._pool.call(
            "halo",
            {
                "dataset": dataset,
                "field": field,
                "timestep": timestep,
                "ranges": codec.ranges_to_wire(ranges),
            },
            (),
            timeout=self._timeout,
        )
        atoms = codec.halo_atoms_from_wire(call.header, call.blobs)
        if ledger is not None:
            nbytes = atoms.nbytes
            seconds = self._spec.interconnect.transfer_time(nbytes)
            ledger.charge(Category.IO, seconds)
            ledger.count(METER_HALO_SECONDS, seconds)
            ledger.count(METER_HALO_BYTES, nbytes)
        return atoms


class NodeServer:
    """One database node listening on a TCP port.

    Args:
        node_id: this node's position in the cluster.
        config: the cluster description shared by every node.
        host: bind address.
        port: bind port (0 picks a free one; see :attr:`port`).
        peer_addresses: every node's ``host:port`` in node-id order (the
            entry at ``node_id`` is ignored).  Multi-node clusters that
            bind ephemeral ports (tests) can pass ``None`` here and call
            :meth:`connect_peers` once every node's port is known.
        spec: hardware spec (defaults to the paper-calibrated cluster).
        registry: derived-field registry (defaults to the stock one).
        compression: frame codecs this server offers during HELLO
            negotiation (defaults to the stock zlib configuration).
    """

    def __init__(
        self,
        node_id: int,
        config: ClusterConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        peer_addresses: "Sequence[str | tuple[str, int]] | None" = None,
        spec: ClusterSpec | None = None,
        registry: FieldRegistry | None = None,
        compression: CompressionConfig | None = None,
    ) -> None:
        if not 0 <= node_id < config.nodes:
            raise ValueError(
                f"node id {node_id} outside cluster of {config.nodes}"
            )
        self.node_id = node_id
        self.config = config
        self.spec = spec or paper_cluster()
        self.registry = registry or default_registry()
        self.compression = (
            compression if compression is not None else DEFAULT_COMPRESSION
        )
        self.partitioner = MortonPartitioner(config.side, config.nodes)
        self.placement = PlacementMap.from_partitioner(
            self.partitioner, config.replication_factor
        )
        self.node = DatabaseNode(
            node_id, self.spec, buffer_pages=config.buffer_pages
        )
        #: Calls to the peer nodes; ``None`` until :meth:`connect_peers`
        #: (and for good on a single-node cluster).
        self.transport: TcpTransport | None = None
        self.executor: NodeExecutor | None = None
        if config.nodes == 1:
            self.connect_peers([])
        elif peer_addresses is not None:
            self.connect_peers(peer_addresses)
        self.cache: SemanticCache | None = None
        self.pdf_cache: PdfCache | None = None
        if config.cache_capacity_bytes is not None:
            self.cache = SemanticCache(
                self.node.db,
                capacity_bytes=config.cache_capacity_bytes,
                point_record_bytes=self.spec.point_record_bytes,
            )
            self.pdf_cache = PdfCache(self.node.db)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.host = host
        self.port = int(self._listener.getsockname()[1])
        self._running = False
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._open_conns: set[socket.socket] = set()
        self._lock = threading.Lock()
        #: The non-query RPCs, by wire method name.
        self._control: dict[str, Callable[[dict, list[Buffer]], Response]] = {
            "halo": self._serve_halo,
            "digest": self._serve_digest,
            "describe": self._serve_describe,
            "echo": self._serve_echo,
        }

    def connect_peers(
        self, peer_addresses: "Sequence[str | tuple[str, int]]"
    ) -> None:
        """Wire up the peer halo proxies and build the node's executor.

        ``peer_addresses`` lists every node's ``host:port`` in node-id
        order (a single-node cluster passes an empty list).  They become
        the server's :attr:`transport`, routed over this node's own
        placement with no heartbeat: a halo read finds a dead replica by
        calling it.  Must run before the server answers queries; pools
        connect lazily, so peers need not be up yet.
        """
        if self.executor is not None:
            raise ValueError(f"node {self.node_id} already has peers")
        if self.config.nodes > 1 and len(peer_addresses) != self.config.nodes:
            raise ValueError(
                f"{len(peer_addresses)} peer addresses for "
                f"{self.config.nodes} nodes"
            )
        if peer_addresses:
            # This node's own pool is never dialled: a shard it holds is
            # read from local storage, so no route leads back here.
            self.transport = TcpTransport(
                peer_addresses, placement=self.placement
            )
        peers: list[HaloPeer] = []
        for shard in range(self.config.nodes):
            if self.placement.owns(self.node_id, shard):
                # A replicated shard this node ingested is served from
                # local storage — including halo bands "belonging" to a
                # peer's primary shard, which is what lets a query keep
                # its boundary reads when that peer dies.
                peers.append(self.node)
                continue
            peers.append(
                RemoteHaloPeer(
                    _ShardLink(self.transport, shard),
                    self.spec,
                    DEFAULT_RPC_TIMEOUT,
                )
            )
        self.executor = NodeExecutor(self.node, peers, self.partitioner)

    def _require_executor(self) -> NodeExecutor:
        """The executor, or a typed error if peers were never connected."""
        if self.executor is None:
            raise ValueError(
                f"node {self.node_id} has no peers; call connect_peers()"
            )
        return self.executor

    # -- data --------------------------------------------------------------------

    def load(self) -> int:
        """Regenerate the dataset and ingest this node's Morton shards.

        With replication the node ingests the union of every shard the
        placement assigns it (its primary shard plus the replica copies
        it holds for peers); at replication factor 1 that union is
        exactly the seed's single-shard ingest.  Returns the number of
        atoms stored.
        """
        dataset = self.config.build_dataset()
        if dataset.spec.name not in self.node.dataset_names:
            self.node.register_dataset(dataset.spec)
        owned = set(self.placement.shards_of(self.node_id))
        stored = 0
        for field in dataset.spec.fields:
            for timestep in range(dataset.spec.timesteps):
                array = dataset.field_array(field, timestep)
                shard = [
                    (zindex, blob)
                    for zindex, blob in atomize(array)
                    if self.partitioner.node_of_atom(zindex) in owned
                ]
                with self.node.db.transaction() as txn:
                    stored += self.node.store_atoms(
                        txn, dataset.spec.name, field, timestep, shard
                    )
        self.node.db.drop_page_cache()
        return stored

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Serve in a background thread (tests, benchmarks)."""
        self._running = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"node{self.node_id}-accept",
            daemon=True,
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._running = True
        self._accept_loop()

    def shutdown(self) -> None:
        """Stop accepting, close the peer transport and node (idempotent).

        Live connections are shut down at the socket level so their
        threads wake immediately instead of riding out the idle
        timeout; every per-connection thread is then joined and the
        thread list emptied (:meth:`_accept_loop` already reaps
        finished threads as connections come and go).
        """
        self._running = False
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close owes us nothing
            pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        with self._lock:
            conns = list(self._open_conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        with self._lock:
            threads, self._conn_threads = self._conn_threads, []
        for thread in threads:
            thread.join(timeout=5.0)
        if self.transport is not None:
            self.transport.close()
        self.node.close()

    def __enter__(self) -> "NodeServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- the serve loop ----------------------------------------------------------

    def _accept_loop(self) -> None:
        # A short poll keeps shutdown() responsive without a wake pipe.
        self._listener.settimeout(0.2)
        while self._running:
            try:
                conn, _address = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by shutdown()
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"node{self.node_id}-conn",
                daemon=True,
            )
            with self._lock:
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()
                ]
                self._conn_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """One client connection: frames in, frames out, until EOF.

        Every frame is answered on this thread before the next is read:
        a hand-off to another thread would cost a GIL wait (up to the
        5 ms switch interval) per request, more than a halo read or a
        cache hit itself.
        """
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        state = _ConnectionState(conn)
        with self._lock:
            self._open_conns.add(conn)
        try:
            while self._running:
                frame = recv_frame(
                    conn,
                    Deadline.after(IDLE_TIMEOUT),
                    eof_ok=True,
                    codec=state.codec,
                )
                if frame is None:
                    break
                if frame.frame_type == FrameType.HELLO:
                    self._answer_hello(state, frame.request_id, frame.payload)
                elif frame.frame_type == FrameType.PING:
                    state.send(FrameType.PONG, frame.request_id, b"")
                elif frame.frame_type == FrameType.REQUEST:
                    self._answer_request(
                        state, frame.request_id, frame.payload
                    )
                else:
                    raise ProtocolError(
                        f"client may not send {frame.frame_type.name} frames"
                    )
        except (NetError, OSError):
            # The connection is broken or misbehaving; there is no one
            # to answer — drop it and let the client's deadline fire.
            pass
        finally:
            with self._lock:
                self._open_conns.discard(conn)
            state.close()

    def _answer_hello(
        self, state: _ConnectionState, request_id: int, payload: Buffer
    ) -> None:
        header, _ = codec.decode_message(payload)
        if header.get("protocol") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"client speaks protocol {header.get('protocol')}, "
                f"this server speaks {PROTOCOL_VERSION}"
            )
        advertised = [str(name) for name in header.get("codecs", [])]
        chosen = negotiate(self.compression.codecs, advertised)
        body = codec.encode_message(
            {
                "protocol": PROTOCOL_VERSION,
                "node_id": self.node_id,
                "codecs": list(self.compression.codecs),
                "codec": chosen,
            }
        )
        # The ack itself is always raw; the negotiated codec applies
        # from the next frame in both directions.
        state.send(FrameType.HELLO_ACK, request_id, body)
        state.codec = FrameCodec(
            self.compression,
            chosen,
            allowed=shared_codecs(self.compression.codecs, advertised),
        )

    @staticmethod
    def _send_error(
        state: _ConnectionState, request_id: int, error: Exception, code: str = "remote_error"
    ) -> None:
        """Answer a failed request with a typed ERROR frame."""
        state.send(
            FrameType.ERROR,
            request_id,
            codec.encode_message(
                {
                    "error": {
                        "type": type(error).__name__,
                        "code": code,
                        "message": str(error),
                    }
                }
            ),
        )

    def _answer_request(
        self, state: _ConnectionState, request_id: int, payload: Buffer
    ) -> None:
        """Decode one REQUEST, run it and write its one RESPONSE.

        A failure of the request is answered with an ERROR frame, and so
        is an answer too large for one frame (:data:`MAX_PAYLOAD`):
        ``send_frame`` refuses it before writing a byte, and a typed
        error the caller will not fail over on beats a dropped
        connection that every replica would recompute.  A failure to
        write (the client went away mid-answer) propagates and retires
        the connection.
        """
        received = clock.now()
        try:
            header, blobs = codec.decode_message(payload)
            method = str(header.get("method", ""))
        except _REQUEST_ERRORS as error:
            self._send_error(state, request_id, error)
            return
        # A traced request runs under the caller's span context: every
        # span the dispatch opens — executor, cache, storage, halo —
        # parents under the remote caller's span and lands in the
        # capture buffer instead of any local collector.
        context = codec.trace_context_from_wire(header)
        with tracing.remote_request(context) as capture:
            try:
                response_header, response_blobs = self._dispatch(
                    method, header, blobs
                )
            except _REQUEST_ERRORS as error:
                self._send_error(state, request_id, error)
                return
            except OSError:
                raise  # the connection broke: _serve_connection retires it
            except Exception as error:  # turblint: disable=ERR01 - answered, by type
                # A kernel's KeyError is not a bad request: the caller
                # gets its type, this node's stderr where it came from,
                # and this connection serves the next request.
                traceback.print_exc()
                self._send_error(state, request_id, error, "internal_error")
                return
        if capture is not None:
            # Piggyback the captured spans (with this server's own
            # recv/send clock stamps for the caller's skew estimate)
            # on the RESPONSE header — no extra round trip.
            response_header = {
                **response_header,
                codec.TRACE_HEADER_KEY: codec.trace_payload_to_wire(
                    self.node_id, received, clock.now(), capture.to_wire()
                ),
            }
        try:
            state.send(
                FrameType.RESPONSE,
                request_id,
                codec.encode_message_parts(response_header, response_blobs),
                raw=method in RAW_REPLY_METHODS or bool(header.get("render")),
            )
        except FrameError as error:
            self._send_error(state, request_id, error)

    # -- request dispatch --------------------------------------------------------

    def _dispatch(self, method: str, header: dict, blobs: list[Buffer]) -> Response:
        """Run one RPC; returns its ``(header, blobs)``.

        Query methods are the :data:`~repro.net.kinds.KINDS` table's
        names; everything else is a control handler.
        """
        with tracing.span("server.request", method=method, node=self.node_id):
            kind = KINDS.get(method)
            if kind is not None:
                return self._serve_query(kind, header)
            control = self._control.get(method)
            if control is None:
                raise BadRequestError(f"unknown RPC method {method!r}")
            return control(header, blobs)

    def _serve_query(self, kind: QueryKind, header: dict) -> Response:
        """One node part of any query kind: decode, evaluate, encode."""
        request, boxes, options = kind.parse_request(header)
        context = NodeContext(
            self.node,
            self._require_executor(),
            self.cache,
            self.pdf_cache,
            self.registry,
        )
        result = kind.run(context, request, boxes, **options)
        return kind.result_to_wire(result)

    def _serve_halo(self, header: dict, blobs: list[Buffer]) -> Response:
        # ledger=None: the requesting side charges the transfer (see
        # RemoteHaloPeer), mirroring the in-process charging split.
        read = parse(_AtomRead, header)
        atoms = self.node.serve_halo(
            read.dataset, read.field, read.timestep, read.ranges, None
        )
        return codec.halo_atoms_to_wire(atoms)

    def _serve_digest(self, header: dict, blobs: list[Buffer]) -> Response:
        """Per-atom content digests over Morton ranges (anti-entropy).

        A rejoining replica compares this map against its own copy and
        fetches only the divergent atoms via ``halo``; like a halo read,
        the scan charges nothing locally — serving catch-up must not
        perturb this node's buffer pool.
        """
        from repro.ha.anti_entropy import chunk_digests

        read = parse(_AtomRead, header)
        with self.node.db.transaction(None) as txn:
            atoms = self.node.read_atoms(
                txn, read.dataset, read.field, read.timestep, read.ranges,
                charge=False,
            )
        return (
            {
                "digests": {
                    str(zindex): digest
                    for zindex, digest in chunk_digests(atoms).items()
                }
            },
            [],
        )

    def _serve_describe(self, header: dict, blobs: list[Buffer]) -> Response:
        datasets = []
        for name in self.node.dataset_names:
            spec = self.node.dataset(name)
            datasets.append(
                {
                    "name": spec.name,
                    "side": spec.side,
                    "timesteps": spec.timesteps,
                    "fields": sorted(spec.fields),
                }
            )
        return (
            {
                "node_id": self.node_id,
                "nodes": self.config.nodes,
                "datasets": datasets,
            },
            [],
        )

    def _serve_echo(self, header: dict, blobs: list[Buffer]) -> Response:
        """Diagnostic RPC for wire tests: the request blobs, echoed."""
        return {"count": len(blobs)}, list(blobs)
