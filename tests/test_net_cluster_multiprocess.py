"""Multi-process cluster smoke test: real servers, real sockets, real CLI.

Two ``python -m repro.net serve-node`` processes host one shard each; a
TCP-transport mediator in this process and a ``serve-http`` front-door
process query them.  Results must match the in-process cluster
point-for-point, and killing a node must surface as a typed repro.net
error within the deadline budget — not a hang.
"""

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.mediator import Mediator, build_cluster
from repro.cluster.partition import MortonPartitioner
from repro.core import PdfQuery, ThresholdQuery
from repro.net.client import RetryPolicy
from repro.net.errors import NetError, PartialFailureError
from repro.net.pool import ConnectionPool
from repro.net.transport import TcpTransport
from repro.obs import tracing
from repro.simulation.datasets import mhd_dataset

REPO_ROOT = Path(__file__).parent.parent
SIDE = 16
TIMESTEPS = 2
NODES = 2

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_SUBPROCESS") == "1",
    reason="subprocess tests disabled by REPRO_SKIP_SUBPROCESS",
)


def free_port() -> int:
    probe = socket.socket()
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def run_cli(*args: str, timeout: float = 60.0) -> str:
    result = subprocess.run(
        [sys.executable, "-m", "repro.net", *args],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=_env(),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def spawn_cli(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.net", *args],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )


def wait_for_node(port: int, budget: float = 90.0) -> None:
    """Poll a node server with health-check pings until it answers."""
    deadline = time.monotonic() + budget
    last_error = None
    while time.monotonic() < deadline:
        pool = ConnectionPool(
            "127.0.0.1", port, retry=RetryPolicy(attempts=1)
        )
        try:
            pool.ping(timeout=2.0)
            return
        except NetError as error:
            last_error = error
            time.sleep(0.25)
        finally:
            pool.close()
    raise AssertionError(f"node on port {port} never came up: {last_error}")


def _drain(process: subprocess.Popen) -> str:
    try:
        out, _ = process.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        out, _ = process.communicate()
    return out or ""


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    db_dir = tmp_path_factory.mktemp("cluster")
    out = run_cli(
        "init",
        "--db", str(db_dir),
        "--dataset", "mhd",
        "--side", str(SIDE),
        "--timesteps", str(TIMESTEPS),
        "--nodes", str(NODES),
    )
    assert "cluster.json" in out
    ports = [free_port() for _ in range(NODES)]
    peers = ",".join(f"127.0.0.1:{p}" for p in ports)
    processes = [
        spawn_cli(
            "serve-node",
            "--db", str(db_dir),
            "--node-id", str(node_id),
            "--port", str(ports[node_id]),
            "--peers", peers,
        )
        for node_id in range(NODES)
    ]
    try:
        for port in ports:
            wait_for_node(port)
        yield ports, processes
    finally:
        for process in processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in processes:
            _drain(process)


@pytest.fixture(scope="module")
def tcp_mediator(cluster):
    ports, _ = cluster
    transport = TcpTransport(
        [f"127.0.0.1:{p}" for p in ports],
        timeout=60.0,
        retry=RetryPolicy(attempts=2, base_delay=0.05, max_delay=0.5),
    )
    mediator = Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, NODES),
        transport=transport,
        scatter_timeout=120.0,
    )
    yield mediator
    mediator.close()


@pytest.fixture(scope="module")
def reference():
    mediator = build_cluster(
        mhd_dataset(side=SIDE, timesteps=TIMESTEPS, seed=11), nodes=NODES
    )
    yield mediator
    mediator.close()


def test_threshold_across_processes_matches_in_process(
    tcp_mediator, reference
):
    query = ThresholdQuery(
        dataset="mhd", field="vorticity", timestep=0, threshold=1.0
    )
    over_tcp = tcp_mediator.threshold(query)
    in_process = reference.threshold(query)
    assert len(over_tcp) == len(in_process) > 0
    assert np.array_equal(
        np.sort(over_tcp.zindexes), np.sort(in_process.zindexes)
    )
    order_tcp = np.argsort(over_tcp.zindexes)
    order_ref = np.argsort(in_process.zindexes)
    assert np.array_equal(
        over_tcp.values[order_tcp], in_process.values[order_ref]
    )


def test_pdf_across_processes_matches_in_process(tcp_mediator, reference):
    query = PdfQuery(
        dataset="mhd",
        field="pressure",
        timestep=0,
        bin_edges=tuple(float(x) for x in np.linspace(-3, 3, 13)),
    )
    assert list(tcp_mediator.pdf(query).counts) == list(
        reference.pdf(query).counts
    )


@contextlib.contextmanager
def serve_http(ports, *flags: str):
    """A ``serve-http`` process over the cluster.

    Yields ``(base_url, stats_text)`` once ``GET /stats`` answers.
    """
    http_port = free_port()
    frontend = spawn_cli(
        "serve-http",
        "--nodes", ",".join(f"127.0.0.1:{p}" for p in ports),
        "--port", str(http_port),
        *flags,
    )
    base = f"http://127.0.0.1:{http_port}"
    try:
        deadline = time.monotonic() + 90.0
        stats = None
        while time.monotonic() < deadline:
            if frontend.poll() is not None:
                raise AssertionError(
                    f"serve-http exited early:\n{_drain(frontend)}"
                )
            try:
                with urllib.request.urlopen(f"{base}/stats", timeout=5) as r:
                    stats = r.read().decode()
                break
            except (urllib.error.URLError, ConnectionError, OSError):
                time.sleep(0.25)
        assert stats is not None, "HTTP front door never came up"
        yield base, stats
    finally:
        if frontend.poll() is None:
            frontend.send_signal(signal.SIGTERM)
        _drain(frontend)


def post_threshold(base: str) -> bytes:
    body = json.dumps(
        {
            "method": "GetThreshold",
            "dataset": "mhd",
            "field": "pressure",
            "timestep": 0,
            "threshold": 0.5,
        }
    ).encode()
    request = urllib.request.Request(
        f"{base}/", data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as r:
        return r.read()


def test_http_front_door(cluster):
    ports, _ = cluster
    with serve_http(ports) as (base, stats):
        assert "rpc_requests_total" in stats
        assert "aio_connections_open" in stats
        # The mediator owns no node here: series sampled from owned
        # nodes would read 0.0 for a cluster that is busy.
        assert "storage_bufferpool_hits" not in stats

        response = json.loads(post_threshold(base))
        assert response["status"] == "ok"
        assert response["count"] == len(response["points"]) > 0

        # The query's trace is retrievable over HTTP by its id.
        with urllib.request.urlopen(
            f"{base}/trace/{response['query_id']}", timeout=5
        ) as r:
            trace = json.loads(r.read())
        assert trace["status"] == "ok"
        assert any(
            span["name"] == "net.rpc" for span in trace["spans"]
        )


def test_async_flag_is_accepted_and_selects_nothing(cluster):
    """``--async`` predates the single door; both spellings start it."""
    ports, _ = cluster
    assert "--async" not in run_cli("serve-http", "--help")
    answers = []
    for flags in ((), ("--async",)):
        with serve_http(ports, *flags) as (base, stats):
            assert "aio_connections_open" in stats
            post_threshold(base)  # the nodes' caches are warm after this
            answer = json.loads(post_threshold(base))
            assert answer.pop("query_id")
            answers.append(answer)
    assert answers[0] == answers[1]
    assert answers[0]["status"] == "ok" and answers[0]["count"] > 0


def test_distributed_trace_attributes_node_side_work(tcp_mediator):
    """One stitched trace per query, with >= 95% of each node's true
    processing window covered by named remote spans parented under the
    mediator's scatter — no anonymous net.rpc black holes."""
    query = ThresholdQuery(
        dataset="mhd", field="vorticity", timestep=1, threshold=1.0
    )
    tcp_mediator.threshold(query)  # warm the describe cache, untraced
    collector = tracing.install(tracing.TraceCollector())
    try:
        result = tcp_mediator.threshold(query, use_cache=False)
        spans = collector.trace(result.query_id)
    finally:
        tracing.uninstall()

    assert spans, "the query must leave one stitched trace"
    by_id = {span.span_id: span for span in spans}
    root = next(span for span in spans if span.parent_id is None)
    assert root.name == "query.threshold"

    # The scatter structure: node.part under the root, one net.rpc per
    # node under its part.
    parts = [span for span in spans if span.name == "node.part"]
    assert {part.attributes.get("node") for part in parts} == {0, 1}
    assert all(part.parent_id == root.span_id for part in parts)
    rpcs = [span for span in spans if span.name == "net.rpc"]
    assert rpcs
    assert all(by_id[rpc.parent_id].name == "node.part" for rpc in rpcs)

    # Every rpc carries its node's true server-side processing window
    # (the server's own recv->send stamps, skew-independent)...
    windows: dict[int, float] = {}
    for rpc in rpcs:
        assert "remote_seconds" in rpc.attributes, (
            f"rpc to node {rpc.attributes.get('node')} shipped no spans"
        )
        windows[rpc.span_id] = float(rpc.attributes["remote_seconds"])

    # ...and the named remote spans grafted under it account for it.
    remote_requests = [
        span for span in spans
        if span.name == "server.request" and span.parent_id in windows
    ]
    assert len(remote_requests) == len(rpcs)
    assert {
        span.attributes.get("origin") for span in remote_requests
    } == {"node0", "node1"}
    attributed = sum(span.wall_seconds for span in remote_requests)
    window_total = sum(windows.values())
    assert window_total > 0
    assert attributed >= 0.95 * window_total, (
        f"only {attributed / window_total:.1%} of node-side wall time "
        f"is attributed to named remote spans"
    )


def test_killed_node_is_a_typed_error_not_a_hang(cluster, tcp_mediator):
    """Run last: kills node 1 for good."""
    ports, processes = cluster
    query = ThresholdQuery(
        dataset="mhd", field="pressure", timestep=0, threshold=0.5
    )
    assert len(tcp_mediator.threshold(query)) > 0  # healthy first

    processes[1].kill()
    processes[1].wait(timeout=10)
    start = time.monotonic()
    collector = tracing.install(tracing.TraceCollector())
    try:
        with pytest.raises(PartialFailureError) as info:
            tcp_mediator.threshold(query, use_cache=False)
    finally:
        tracing.uninstall()
    assert info.value.node_id == 1
    assert time.monotonic() - start < 60.0

    # The dead node's subtree is an explicitly-marked orphan in the
    # trace, not silent loss.
    spans = [
        span
        for trace_id in collector.trace_ids()
        for span in collector.trace(trace_id)
    ]
    orphans = [span for span in spans if span.attributes.get("orphaned")]
    assert orphans, "the failed part must leave an orphaned span"
    assert any(
        span.attributes.get("node") == 1
        and span.attributes.get("orphan_reason")
        for span in orphans
    )
