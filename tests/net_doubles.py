"""Test doubles and probes for the connection pool's tests.

The pool is tested through what it shows the outside — the counters
``open_connections`` / ``connections_created`` / ``retries`` and the
kernel's socket table — so these helpers
put a pool into a state (N calls in flight, N idle connections) by
driving real calls at a real node server rather than by reaching in.
"""

from __future__ import annotations

import threading

from repro.net.pool import ConnectionPool
from repro.net.server import NodeServer

#: ``/proc/net/tcp`` state code of a socket that lingers after a clean
#: close; every other state is a socket some process still holds.
_TIME_WAIT = "06"


class GatedNodeServer(NodeServer):
    """A node server whose requests can wait at a gate, or be dropped.

    A request carrying ``{"hold": true}`` reports itself in ``held`` and
    blocks until ``gate`` is set — how a test keeps N calls, and so N
    pooled connections, in flight at one moment.  A request carrying
    ``{"drop": true}`` kills its connection unanswered: the mid-call
    socket loss, on exactly one connection.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.held = threading.Semaphore(0)

    def _dispatch(self, method, header, blobs):
        if header.get("drop"):
            raise OSError("connection dropped mid-call")
        if header.get("hold"):
            self.held.release()
            if not self.gate.wait(timeout=30.0):
                raise TimeoutError("nobody opened the gate")
        return super()._dispatch(method, header, blobs)


class HeldCalls:
    """``count`` echo calls parked at a :class:`GatedNodeServer`'s gate."""

    def __init__(
        self, pool: ConnectionPool, server: GatedNodeServer, count: int
    ) -> None:
        self._server = server
        self.answers: dict[int, bytes] = {}
        self.errors: list[Exception] = []
        self._threads = [
            threading.Thread(target=self._call, args=(pool, i))
            for i in range(count)
        ]
        for thread in self._threads:
            thread.start()
        for _ in self._threads:
            assert server.held.acquire(timeout=10.0), "a call never arrived"

    def _call(self, pool: ConnectionPool, i: int) -> None:
        try:
            result = pool.call(
                "echo", {"hold": True}, [payload(i)],
                timeout=30.0,
            )
            self.answers[i] = bytes(result.blobs[0])
        except Exception as error:  # re-raised, in effect, by release()
            self.errors.append(error)

    def release(self) -> dict[int, bytes]:
        """Open the gate; every call's echoed blob, by call number."""
        self._server.gate.set()
        for thread in self._threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert not self.errors, self.errors
        return self.answers


def payload(i: int) -> bytes:
    """The distinct blob call number ``i`` sends (and must get back)."""
    return bytes([i]) * (1000 + i)


def fill_pool(pool: ConnectionPool, server: GatedNodeServer, count: int) -> None:
    """Leave ``pool`` holding ``count`` idle connections to ``server``."""
    HeldCalls(pool, server, count).release()
    server.gate.clear()
    assert pool.open_connections == count


def live_sockets_to(port: int) -> int:
    """Sockets on this host, either end, of a connection to ``port``."""
    wanted = f":{port:04X}"
    live = 0
    with open("/proc/net/tcp") as table:
        next(table)
        for row in table:
            _slot, local, remote, state = row.split()[:4]
            if state != _TIME_WAIT and wanted in (local[8:], remote[8:]):
                live += 1
    return live
