"""Transport-tier tests: catalogue, metrics, pooling, faults.

The cluster here runs entirely in-thread (NodeServer instances on
loopback), so these tests exercise the full wire path — framing, codec,
pooling, retries, deadlines — without subprocess start-up cost.  The
subprocess path is covered by ``test_net_cluster_multiprocess.py``.
"""

import socket
import threading
import time

import pytest

from repro.cluster.mediator import Mediator
from repro.cluster.partition import MortonPartitioner
from repro.cluster.webservice import WebService
from repro.core import ThresholdQuery
from repro.net import codec
from repro.net.client import RetryPolicy
from repro.net.errors import (
    DeadlineExceededError,
    NodeUnavailableError,
    PartialFailureError,
    UnsupportedRemoteOperationError,
)
from repro.net.frame import (
    Deadline,
    FrameType,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
)
from repro.net.pool import ConnectionPool
from repro.net.server import ClusterConfig, NodeServer
from repro.net.transport import TcpTransport, parse_address
from repro.obs import tracing
from repro.simulation.datasets import mhd_dataset

SIDE = 16
TIMESTEPS = 2
NODES = 2
CONFIG = ClusterConfig(
    dataset="mhd", side=SIDE, timesteps=TIMESTEPS, seed=11, nodes=NODES
)

FAST_RETRY = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.05)


def start_tcp_cluster(config=CONFIG):
    """Spin up in-thread node servers, wired to each other, data loaded."""
    servers = [NodeServer(i, config) for i in range(config.nodes)]
    addresses = [f"127.0.0.1:{s.port}" for s in servers]
    for server in servers:
        server.connect_peers(addresses)
        server.load()
        server.start()
    return servers, addresses


@pytest.fixture(scope="module")
def tcp_cluster():
    servers, addresses = start_tcp_cluster()
    transport = TcpTransport(addresses, timeout=30.0, retry=FAST_RETRY)
    mediator = Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, NODES),
        transport=transport,
        scatter_timeout=60.0,
    )
    yield mediator
    mediator.close()
    for server in servers:
        server.shutdown()


# Parity with the in-process cluster, kind by kind and path by path, is
# tests/test_query_kinds.py.


def test_catalogue_over_tcp(tcp_cluster):
    assert tcp_cluster.dataset_names() == ["mhd"]
    assert tcp_cluster.transport.dataset_side("mhd") == SIDE
    with pytest.raises(KeyError):
        tcp_cluster.transport.dataset_side("nope")


# -- observability ---------------------------------------------------------------


def test_rpc_metrics_and_wire_reconciliation(tcp_cluster):
    query = ThresholdQuery(
        dataset="mhd", field="pressure", timestep=0, threshold=0.5
    )
    result = tcp_cluster.threshold(query)
    # Real wire bytes land in the result ledger, next to the modeled
    # MEDIATOR_DB transfer, so the cost model can be reconciled.
    assert result.ledger.meters().get("wire_bytes", 0) > 0
    snapshot = tcp_cluster.metrics.to_dict()
    requests = snapshot["rpc_requests_total"]["samples"]
    assert any(
        sample["labels"].get("method") == "threshold"
        and sample["labels"].get("status") == "ok"
        for sample in requests
    )
    assert snapshot["rpc_bytes_sent_total"]["samples"][0]["value"] > 0
    assert snapshot["rpc_bytes_received_total"]["samples"][0]["value"] > 0


def test_remote_queries_fail_typed_on_unknown_field(tcp_cluster):
    from repro.fields.derived import UnknownFieldError

    query = ThresholdQuery(
        dataset="mhd", field="no_such_field", timestep=0, threshold=1.0
    )
    with pytest.raises((UnknownFieldError, PartialFailureError)):
        tcp_cluster.threshold(query)


def test_local_only_operations_are_refused(tcp_cluster):
    with pytest.raises(UnsupportedRemoteOperationError):
        tcp_cluster.load_dataset(
            mhd_dataset(side=SIDE, timesteps=1, seed=11)
        )
    from repro.grid import Box

    with pytest.raises(UnsupportedRemoteOperationError):
        tcp_cluster.get_field(
            "mhd", "pressure", 0, Box((0, 0, 0), (7, 7, 7))
        )


def test_webservice_over_tcp_transport(tcp_cluster):
    service = WebService(tcp_cluster)
    response = service.handle(
        {
            "method": "GetThreshold",
            "dataset": "mhd",
            "field": "vorticity",
            "timestep": 0,
            "threshold": 2.0,
        }
    )
    assert response["status"] == "ok"
    assert response["count"] == len(response["points"])
    listing = service.handle({"method": "ListDatasets"})
    assert listing == {"status": "ok", "datasets": ["mhd"]}


# -- pooling and retries ---------------------------------------------------------


def test_pool_reuses_connections(tcp_cluster):
    pools = tcp_cluster.transport.pools
    before = [pool.connections_created for pool in pools]
    query = ThresholdQuery(
        dataset="mhd", field="pressure", timestep=0, threshold=0.1
    )
    for _ in range(3):
        tcp_cluster.threshold(query, use_cache=False)
    after = [pool.connections_created for pool in pools]
    # Repeat queries ride the warm connections, never one-per-call.
    assert all(b - a <= 1 for a, b in zip(before, after))


def test_ping_round_trip(tcp_cluster):
    for node_id in range(NODES):
        assert tcp_cluster.transport.ping(node_id) >= 0.0


def test_dead_port_exhausts_retries_quickly():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()

    retried = []
    pool = ConnectionPool(
        "127.0.0.1",
        dead_port,
        retry=RetryPolicy(attempts=3, base_delay=0.01, max_delay=0.02),
        on_retry=lambda: retried.append(1),
    )
    start = time.monotonic()
    with pytest.raises(NodeUnavailableError) as info:
        pool.call("describe", {}, (), timeout=10.0)
    assert info.value.attempts == 3
    assert len(retried) == 2
    assert time.monotonic() - start < 5.0
    pool.close()


# -- fault injection -------------------------------------------------------------


class _SlowServer:
    """Handshakes correctly, then sits on every request forever."""

    def __init__(self):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self._listener.settimeout(0.2)
        self.port = self._listener.getsockname()[1]
        self._running = True
        self._conns = []
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
            self._conns.append(conn)
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn):
        try:
            frame = recv_frame(conn, Deadline.after(30), eof_ok=True)
            if frame is None:
                return
            send_frame(
                conn,
                FrameType.HELLO_ACK,
                frame.request_id,
                codec.encode_message(
                    {
                        "protocol": PROTOCOL_VERSION,
                        "node_id": 0,
                        "codecs": [],
                        "codec": "none",
                    }
                ),
                Deadline.after(30),
            )
            while self._running:  # swallow requests, answer nothing
                if recv_frame(conn, Deadline.after(30), eof_ok=True) is None:
                    return
        except Exception:
            pass

    def close(self):
        self._running = False
        self._listener.close()
        for conn in self._conns:
            conn.close()
        self._thread.join(timeout=5)


def test_slow_node_hits_the_deadline_as_a_typed_error():
    slow = _SlowServer()
    try:
        transport = TcpTransport(
            [f"127.0.0.1:{slow.port}"], timeout=0.5, retry=FAST_RETRY
        )
        mediator = Mediator(
            nodes=[],
            partitioner=MortonPartitioner(8, 1),
            transport=transport,
            scatter_timeout=30.0,
        )
        query = ThresholdQuery(
            dataset="mhd", field="pressure", timestep=0, threshold=1.0
        )
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            mediator.threshold(query)
        assert time.monotonic() - start < 10.0
        mediator.close()
    finally:
        slow.close()


def test_killed_node_becomes_a_typed_partial_failure():
    servers, addresses = start_tcp_cluster()
    transport = TcpTransport(addresses, timeout=5.0, retry=FAST_RETRY)
    mediator = Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, NODES),
        transport=transport,
        scatter_timeout=30.0,
    )
    try:
        query = ThresholdQuery(
            dataset="mhd", field="pressure", timestep=0, threshold=0.5
        )
        assert len(mediator.threshold(query)) > 0  # cluster healthy

        servers[1].shutdown()  # kill one node out from under the mediator
        start = time.monotonic()
        with pytest.raises(PartialFailureError) as info:
            mediator.threshold(query, use_cache=False)
        assert info.value.node_id == 1
        assert time.monotonic() - start < 20.0

        # The web service maps the same failure to a wire error code.
        response = WebService(mediator).handle(
            {
                "method": "GetThreshold",
                "dataset": "mhd",
                "field": "pressure",
                "timestep": 0,
                "threshold": 0.5,
            }
        )
        assert response["status"] == "error"
        assert response["code"] == "node_unavailable"
    finally:
        mediator.close()
        for server in servers:
            server.shutdown()


def test_parse_address():
    assert parse_address("host:99") == ("host", 99)
    assert parse_address(("h", 7)) == ("h", 7)
    with pytest.raises(ValueError):
        parse_address("no-port")


# -- the scatter loop: every request written, one wait on every socket ------------


PRESSURE = ThresholdQuery(
    dataset="mhd", field="pressure", timestep=0, threshold=0.5
)


def _scatter_threads() -> set[threading.Thread]:
    return {
        thread for thread in threading.enumerate()
        if thread.name.startswith("scatter")
    }


def test_a_tcp_query_scatters_on_the_calling_thread(tcp_cluster):
    # Other tests' in-process clusters may still be winding theirs down.
    before = _scatter_threads()
    assert len(tcp_cluster.threshold(PRESSURE, use_cache=False)) > 0
    assert tcp_cluster._scatter_pool is None
    assert not _scatter_threads() - before


@pytest.mark.parametrize("budget", ["part", "scatter"])
def test_a_stalled_node_ends_the_scatter_in_its_budget(budget):
    """Node 0 answers, node 1 swallows its request; whichever deadline
    runs out first — the part's or the scatter's — ends the query, the
    answered connection goes back idle and the stalled one is closed."""
    slow = _SlowServer()
    server = NodeServer(0, CONFIG)
    addresses = [f"127.0.0.1:{server.port}", f"127.0.0.1:{slow.port}"]
    server.connect_peers(addresses)
    server.load()
    server.start()
    transport = TcpTransport(
        addresses, timeout=0.5 if budget == "part" else 30.0, retry=FAST_RETRY
    )
    mediator = Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, NODES),
        transport=transport,
        scatter_timeout=30.0 if budget == "part" else 0.5,
    )
    try:
        mediator.transport.dataset_side("mhd")  # describe: node 0 only
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            mediator.threshold(PRESSURE, use_cache=False)
        assert time.monotonic() - start < 5.0
        assert transport.pools[0].open_connections == 1
        assert transport.pools[1].open_connections == 0
    finally:
        mediator.close()
        server.shutdown()
        slow.close()


def test_a_retry_backoff_holds_up_no_other_part():
    """Node 0 refuses connections under a backoff of at least 0.3 s; the
    live node's RPC is on the wire before that first backoff ends."""
    servers, addresses = start_tcp_cluster()
    transport = TcpTransport(
        addresses,
        timeout=10.0,
        retry=RetryPolicy(attempts=2, base_delay=0.4, max_delay=0.4),
    )
    mediator = Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, NODES),
        transport=transport,
        scatter_timeout=30.0,
    )
    collector = None
    try:
        assert len(mediator.threshold(PRESSURE)) > 0  # describe, warm
        servers[0].shutdown()
        collector = tracing.install(tracing.TraceCollector())
        with pytest.raises(PartialFailureError) as info:
            mediator.threshold(PRESSURE, use_cache=False)
        assert info.value.node_id == 0
        (trace_id,) = collector.trace_ids()
        rpcs = {
            span.attributes["node"]: span
            for span in collector.trace(trace_id)
            if span.name == "net.rpc"
        }
        assert rpcs[1].start < rpcs[0].start + 0.3
        assert "error" not in rpcs[1].attributes
    finally:
        if collector is not None:
            tracing.uninstall()
        mediator.close()
        for server in servers:
            server.shutdown()
