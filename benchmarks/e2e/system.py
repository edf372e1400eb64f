"""The two systems under test, started and stopped from outside.

*Shipped path*: two ``python -m repro.net serve-node`` processes behind
one ``serve-http --async`` door, driven over one keep-alive HTTP
connection — what a user of the service gets.  *Library path*:
``build_cluster`` + ``WebService.handle`` in this process — no door, no
sockets.  Both expose the same small surface to the runner: ``request``
(one timed call), CPU seconds and peak memory of every process that
belongs to the system, and ``stop``.
"""

from __future__ import annotations

import atexit
import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

DATASET = "mhd"
#: The dataset never changes with ``--seed``; only the request script does.
DATASET_SEED = 11
NODES = 2
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SHM_DIR = Path("/dev/shm")


class SystemFailure(RuntimeError):
    """The system under test died, shed load, or leaked a resource."""


@dataclass(frozen=True)
class Scale:
    """Problem size; the benchmark's numbers are all at the default."""

    side: int = 64
    timesteps: int = 8

    @property
    def points(self) -> int:
        return self.side**3


def shm_segments() -> set[str]:
    """Names of the shared-memory segments that exist right now."""
    return set(os.listdir(_SHM_DIR)) if _SHM_DIR.is_dir() else set()


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return int(probe.getsockname()[1])


def _proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one live process, all its threads."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name; utime and stime are
    # the 14th and 15th fields of the line.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_peak_rss_mib(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise SystemFailure(f"process {pid} reports no VmHWM")


class ShippedSystem:
    """Door -> mediator -> two node processes, all at shipped defaults."""

    def __init__(self, scale: Scale, out_dir: Path, log_prefix: str = "") -> None:
        self.scale = scale
        self._out = out_dir
        self._log_prefix = log_prefix
        self._tmp: Path | None = None
        self._children: list[tuple[str, subprocess.Popen]] = []
        self._logs: list = []
        self._conn: http.client.HTTPConnection | None = None
        self.node_addresses: list[str] = []
        self.http_port = 0
        self.setup_seconds = 0.0
        self._started = 0.0

    def start(self) -> None:
        """Spawn the children; returns when the door accepts connections."""
        from repro.net.server import ClusterConfig

        atexit.register(self.stop)
        self._started = time.perf_counter()
        self._tmp = Path(tempfile.mkdtemp(prefix="cluster-", dir=self._out))
        ClusterConfig(
            dataset=DATASET,
            side=self.scale.side,
            timesteps=self.scale.timesteps,
            seed=DATASET_SEED,
            nodes=NODES,
        ).save(self._tmp)
        ports = [_free_port() for _ in range(NODES)]
        self.node_addresses = [f"127.0.0.1:{port}" for port in ports]
        peers = ",".join(self.node_addresses)
        for node_id, port in enumerate(ports):
            self._spawn(
                f"node{node_id}",
                "serve-node", "--db", str(self._tmp),
                "--node-id", str(node_id), "--port", str(port),
                "--peers", peers,
            )
        for node_id in range(NODES):
            self._wait_for_log(f"node{node_id}", "serving on")
        self.http_port = _free_port()
        self._spawn(
            "door",
            "serve-http", "--nodes", peers, "--port", str(self.http_port),
            "--async", "--max-inflight", "2", "--tenant-quota", "100000",
        )
        self._wait_for_door()
        self._conn = http.client.HTTPConnection(
            "127.0.0.1", self.http_port, timeout=120.0
        )

    def _log_path(self, name: str) -> Path:
        return self._out / f"{self._log_prefix}{name}.stderr"

    def _spawn(self, name: str, *args: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        # The readiness lines are polled from the log files.
        env["PYTHONUNBUFFERED"] = "1"
        log = open(self._log_path(name), "w")
        self._logs.append(log)
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.net", *args],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            # Own process group: a stuck child is killed with its workers.
            start_new_session=True,
        )
        self._children.append((name, child))

    def _wait_for_log(self, name: str, needle: str, budget: float = 150.0) -> None:
        path = self._log_path(name)
        deadline = time.perf_counter() + budget
        while time.perf_counter() < deadline:
            self.check_alive()
            if needle in path.read_text():
                return
            time.sleep(0.05)
        raise SystemFailure(f"{name} never logged {needle!r}")

    def _wait_for_door(self, budget: float = 60.0) -> None:
        deadline = time.perf_counter() + budget
        while time.perf_counter() < deadline:
            self.check_alive()
            try:
                with socket.create_connection(
                    ("127.0.0.1", self.http_port), timeout=1.0
                ):
                    return
            except OSError:
                time.sleep(0.05)
        raise SystemFailure("the door never opened its port")

    def mark_ready(self) -> None:
        """Called after the first correct answer: set-up ends here."""
        self.setup_seconds = time.perf_counter() - self._started

    # -- the measured entry point --------------------------------------------

    def request(self, payload: dict) -> tuple[float, bytes]:
        """One POST; seconds from request sent to last body byte read."""
        body = json.dumps(payload).encode()
        conn = self._conn
        assert conn is not None
        started = time.perf_counter()
        conn.request(
            "POST", "/", body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        data = response.read()
        # A shed or an error still answers a JSON body; the oracle check
        # counts anything but a correct "ok" as a failed request.
        return time.perf_counter() - started, data

    def get(self, path: str) -> str:
        """``GET path`` on the keep-alive connection (untimed helper)."""
        conn = self._conn
        assert conn is not None
        conn.request("GET", path)
        response = conn.getresponse()
        text = response.read().decode()
        if response.status != 200:
            raise SystemFailure(f"GET {path} answered {response.status}")
        return text

    def spans_of(self, query_id: str) -> list[dict]:
        """The door's stitched trace of one query, as span records."""
        return json.loads(self.get(f"/trace/{query_id}"))["spans"]

    def set_tracing(self, on: bool) -> None:
        """Nothing to switch: ``serve-http`` always installs its collector."""

    def stats(self) -> dict[str, float]:
        """``GET /stats`` parsed into ``{series: value}``."""
        series: dict[str, float] = {}
        for line in self.get("/stats").splitlines():
            if line and not line.startswith("#"):
                # An exemplar may ride after the value as `` # {...}``.
                name, _, value = line.split(" # ", 1)[0].rpartition(" ")
                series[name] = float(value)
        return series

    # -- accounting ------------------------------------------------------------

    def cpu_seconds(self) -> float:
        return sum(_proc_cpu_seconds(child.pid) for _, child in self._children)

    def peak_rss_mib(self) -> float:
        return sum(_proc_peak_rss_mib(child.pid) for _, child in self._children)

    def check_alive(self) -> None:
        for name, child in self._children:
            if child.poll() is not None:
                raise SystemFailure(
                    f"{name} exited with code {child.returncode}; "
                    f"see {self._log_path(name)}"
                )

    def stop(self) -> None:
        """Kill and reap every child, drop the temp dir (idempotent)."""
        atexit.unregister(self.stop)
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        for _, child in self._children:
            if child.poll() is None:
                try:
                    os.killpg(child.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
        for _, child in self._children:
            try:
                child.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        self._children = []
        for log in self._logs:
            log.close()
        self._logs = []
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None


class LibrarySystem:
    """``build_cluster`` + ``WebService.handle`` in this process."""

    def __init__(self, scale: Scale) -> None:
        self.scale = scale
        self.mediator = None
        self._service = None
        self.setup_seconds = 0.0
        self._started = 0.0

    def start(self) -> None:
        from repro import build_cluster, mhd_dataset
        from repro.cluster.webservice import WebService

        self._started = time.perf_counter()
        dataset = mhd_dataset(
            side=self.scale.side, timesteps=self.scale.timesteps,
            seed=DATASET_SEED,
        )
        self.mediator = build_cluster(dataset, nodes=NODES)
        self._service = WebService(self.mediator)

    def mark_ready(self) -> None:
        self.setup_seconds = time.perf_counter() - self._started

    def cap_caches(self, capacity_bytes: int) -> None:
        """Shrink every node's semantic cache to ``capacity_bytes``."""
        for cache in self.mediator.caches:
            cache.capacity_bytes = capacity_bytes

    def request(self, payload: dict) -> tuple[float, bytes]:
        """One ``handle`` call; the JSON body is built outside the timing."""
        started = time.perf_counter()
        response = self._service.handle(payload)
        elapsed = time.perf_counter() - started
        return elapsed, json.dumps(response).encode()

    def set_tracing(self, on: bool) -> None:
        from repro.obs import tracing

        if on:
            tracing.install()
        else:
            tracing.uninstall()

    def spans_of(self, query_id: str) -> list[dict]:
        from repro.obs import tracing

        collector = tracing.collector()
        spans = collector.trace(query_id) if collector is not None else []
        return [span.to_json() for span in spans]

    def cache_evictions(self) -> int:
        return sum(
            cache.stats.snapshot()["evictions"] for cache in self.mediator.caches
        )

    def cpu_seconds(self) -> float:
        times = os.times()
        return times.user + times.system

    def peak_rss_mib(self) -> float:
        return _proc_peak_rss_mib(os.getpid())

    def check_alive(self) -> None:
        pass

    def stop(self) -> None:
        if self.mediator is not None:
            self.mediator.close()
            self.mediator = None
