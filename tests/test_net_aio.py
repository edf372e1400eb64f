"""Integration tests for the asyncio front door (:mod:`repro.net.aio`).

The contract under test: the door sends ``WebService.handle_json``'s
body, byte-identical to ``json.dumps`` of the in-process
``WebService.handle`` dict; it encodes it on a bridge thread, keeps
connections alive across requests, and under overload every client gets
either a correct answer or a well-formed typed shed — no hangs, no
resets, no partial JSON.
"""

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster import build_cluster, webservice
from repro.cluster.admission import AdmissionController
from repro.cluster.webservice import WebService
from repro.net import aio
from repro.net.aio import MAX_BODY_BYTES, AsyncHttpFrontend

#: Fields that legitimately differ between two executions of the same
#: request (fresh query ids, wall-clock timings, cache warmth).
VOLATILE = {"query_id", "elapsed_seconds", "cache_hits"}

THRESHOLD_QUERY = {
    "method": "GetThreshold",
    "dataset": "mhd",
    "field": "vorticity",
    "timestep": 0,
    "threshold": 15.0,
}

SHED_CODES = {"quota_exceeded", "queue_full", "queue_timeout", "overloaded"}


@pytest.fixture(scope="module")
def service(small_mhd):
    """One WebService over a private 4-node cluster for this module."""
    return WebService(build_cluster(small_mhd, nodes=4))


def open_async_door(service, **admission_kwargs) -> AsyncHttpFrontend:
    admission = (
        AdmissionController(service.metrics, **admission_kwargs)
        if admission_kwargs
        else None
    )
    door = AsyncHttpFrontend(service, admission=admission)
    door.start()
    return door


def post(conn: http.client.HTTPConnection, payload: "dict | str", tenant=None):
    """One ``POST /`` exchange; returns ``(status, body bytes, headers)``.

    A ``str`` payload is sent as it is: JSON text ``json.dumps`` would
    not write.
    """
    headers = {"Content-Type": "application/json"}
    if tenant is not None:
        headers["X-Tenant"] = tenant
    body = payload if isinstance(payload, str) else json.dumps(payload)
    conn.request("POST", "/", body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read(), dict(response.getheaders())


def normalize(body: dict) -> dict:
    return {k: v for k, v in body.items() if k not in VOLATILE}


class TestEquivalence:
    REQUESTS = [
        THRESHOLD_QUERY,
        {"method": "GetPdf", "dataset": "mhd", "field": "vorticity",
         "timestep": 0, "bins": 16},
        {"method": "GetPdf", "dataset": "mhd", "field": "vorticity",
         "timestep": 0, "bin_edges": [0.0, 5.0, 10.0, 20.0]},
        {"method": "GetTopK", "dataset": "mhd", "field": "vorticity",
         "timestep": 0, "k": 5},
        {"method": "GetBatchThreshold", "queries": [
            {"dataset": "mhd", "field": "vorticity", "timestep": 0,
             "threshold": 15.0}]},
        {**THRESHOLD_QUERY, "threshold": float("nan")},
        {"method": "GetStatistics"},
        {"method": "ListFields"},
        {"method": "ListDatasets"},
        {"method": "NoSuchMethod"},
        {"method": "GetThreshold", "dataset": "mhd"},  # missing keys
    ]

    def test_door_and_direct_paths_agree(self, service, monkeypatch):
        from repro.obs import tracing

        # Repeated executions of one request then differ in nothing: the
        # first (direct) one warms the caches, and simulated cost repeats.
        monkeypatch.setattr(tracing, "new_trace_id", lambda: "q777777")
        with open_async_door(service) as door:
            conn = http.client.HTTPConnection(
                "127.0.0.1", door.port, timeout=30
            )
            for request in self.REQUESTS:
                service.handle(dict(request))
                direct = service.handle(dict(request))
                reference = json.dumps(direct).encode("utf-8")
                assert service.handle_json(dict(request))[1] == reference
                status, body, _ = post(conn, request)
                assert status == (200 if direct["status"] == "ok" else 400)
                # What the door sends is handle_json's body, and that is
                # the dumped dict reference, byte for byte.
                assert body == reference, request
            conn.close()

    def test_query_answers_are_encoded_on_a_bridge_thread(
        self, service, monkeypatch
    ):
        # The loop thread multiplexes every connection: it must never be
        # the one serialising an answer (a fat one stalled it for ~67 ms).
        encoders, door_made = [], []
        encode, body_of = webservice._encoded, aio._body

        def watched_encode(response):
            encoders.append(threading.current_thread().name)
            return encode(response)

        def watched_body(payload):
            door_made.append(payload)
            return body_of(payload)

        monkeypatch.setattr(webservice, "_encoded", watched_encode)
        monkeypatch.setattr(aio, "_body", watched_body)
        with open_async_door(service) as door:
            conn = http.client.HTTPConnection(
                "127.0.0.1", door.port, timeout=30
            )
            for request in (THRESHOLD_QUERY, {"method": "NoSuchMethod"}):
                _, body, _ = post(conn, request)
                assert json.loads(body)["status"] in ("ok", "error")
            conn.close()
        assert len(encoders) == 2
        assert all(name.startswith("aio-bridge") for name in encoders)
        assert door_made == []  # the loop's own json.dumps never ran

    def test_get_stats_bypasses_the_queue(self, service):
        with open_async_door(service) as door:
            conn = http.client.HTTPConnection(
                "127.0.0.1", door.port, timeout=30
            )
            conn.request("GET", "/stats")
            response = conn.getresponse()
            text = response.read().decode("utf-8")
            assert response.status == 200
            assert "aio_connections_open" in text
            conn.close()

    def test_method_not_allowed(self, service):
        with open_async_door(service) as door:
            conn = http.client.HTTPConnection(
                "127.0.0.1", door.port, timeout=30
            )
            conn.request("PUT", "/", body="{}")
            response = conn.getresponse()
            assert response.status == 405
            assert json.loads(response.read())["code"] == "bad_request"
            conn.close()


class TestKeepAlive:
    def test_connection_is_reused_across_requests(self, service):
        with open_async_door(service) as door:
            conn = http.client.HTTPConnection(
                "127.0.0.1", door.port, timeout=30
            )
            first_socket = None
            for _ in range(5):
                status, body, headers = post(conn, {"method": "ListFields"})
                assert status == 200
                assert json.loads(body)["status"] == "ok"
                assert headers.get("Connection") == "keep-alive"
                if first_socket is None:
                    first_socket = conn.sock
                assert conn.sock is first_socket
            conn.close()


    def test_shutdown_with_a_client_still_connected_is_clean(self, service):
        # A keep-alive client that never hangs up must not turn the
        # door's shutdown into an unhandled CancelledError in the loop.
        door = open_async_door(service)
        unhandled = []
        door._loop.call_soon_threadsafe(
            door._loop.set_exception_handler,
            lambda loop, context: unhandled.append(context),
        )
        conn = http.client.HTTPConnection("127.0.0.1", door.port, timeout=15)
        try:
            status, _, _ = post(conn, {"method": "ListFields"})
            assert status == 200
            door.shutdown()
            assert conn.sock.recv(1) == b""  # the session was closed
        finally:
            conn.close()
            door.shutdown()
        assert unhandled == []


class TestOverload:
    def test_flood_past_admission_limit(self, service):
        """Every flooded client gets a correct answer or a typed shed."""
        expected = normalize(service.handle(dict(THRESHOLD_QUERY)))
        door = open_async_door(
            service,
            tenant_rate=50.0,
            tenant_burst=8.0,
            max_queue_depth=4,
            max_queue_wait=1.0,
            workers=2,
        )

        def one_client(_: int):
            conn = http.client.HTTPConnection(
                "127.0.0.1", door.port, timeout=30
            )
            try:
                status, body, headers = post(conn, THRESHOLD_QUERY)
            finally:
                conn.close()
            parsed = json.loads(body)  # complete JSON or the test fails
            return status, parsed, headers

        with door:
            with ThreadPoolExecutor(max_workers=40) as pool:
                outcomes = list(pool.map(one_client, range(40)))

        admitted = [o for o in outcomes if o[0] == 200]
        shed = [o for o in outcomes if o[0] in (429, 503)]
        assert len(admitted) + len(shed) == len(outcomes)
        assert admitted, "the first arrivals must be admitted"
        assert shed, "40 clients against burst=8 must shed"
        for _, parsed, _ in admitted:
            assert normalize(parsed) == expected
        for status, parsed, headers in shed:
            assert parsed["status"] == "error"
            assert parsed["code"] in SHED_CODES
            assert parsed["retry_after_s"] > 0.0
            assert "Retry-After" in headers
            if parsed["code"] == "quota_exceeded":
                assert status == 429
            else:
                assert status == 503

    def test_tenant_header_scopes_the_quota(self, service):
        with open_async_door(
            service, tenant_rate=5.0, tenant_burst=1.0
        ) as door:
            conn = http.client.HTTPConnection(
                "127.0.0.1", door.port, timeout=30
            )
            status, _, _ = post(conn, {"method": "ListFields"}, tenant="a")
            assert status == 200
            status, body, _ = post(conn, {"method": "ListFields"}, tenant="a")
            assert status == 429
            assert json.loads(body)["code"] == "quota_exceeded"
            status, _, _ = post(conn, {"method": "ListFields"}, tenant="b")
            assert status == 200
            conn.close()


class TestUnrepresentableNumbers:
    """Numbers JSON can spell but no query can hold are bad requests.

    Each used to raise ``OverflowError`` out of ``handle_json`` and take
    the bridge worker that ran it along: after ``max_inflight`` of them
    the door answered nothing, not even ``ListDatasets``.
    """

    QUERY = '"dataset": "mhd", "field": "vorticity", "timestep": 0'
    HUGE = "1" + "0" * 400
    BODIES = [
        '{"method": "GetThreshold", %s, "threshold": %s}' % (QUERY, HUGE),
        '{"method": "GetThreshold", %s, "threshold": 15.0, "fd_order": 1e400}' % QUERY,
        '{"method": "GetPdf", %s, "bin_edges": [0.0, %s]}' % (QUERY, HUGE),
    ]

    def test_each_is_answered_and_the_door_keeps_serving(self, service):
        max_inflight = 8  # the door's default bridge (and worker) count
        bodies = [self.BODIES[0]] * (2 * max_inflight) + self.BODIES[1:]
        with open_async_door(service) as door:
            conn = http.client.HTTPConnection("127.0.0.1", door.port, timeout=10)
            for body in bodies:
                status, answer, _ = post(conn, body)
                assert status == 400, body[-60:]
                assert json.loads(answer)["code"] == "bad_request"
            status, answer, _ = post(conn, {"method": "ListDatasets"})
            assert status == 200 and json.loads(answer)["datasets"] == ["mhd"]
            conn.close()
        gauges = service.metrics.to_dict()
        for name in ("aio_queue_depth", "webservice_in_flight"):
            assert gauges[name]["samples"][0]["value"] == 0, name
        for body in self.BODIES:
            assert service.handle(json.loads(body))["code"] == "bad_request"


class TestProtocolAbuse:
    def recv_all(self, sock: socket.socket) -> bytes:
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)

    def test_malformed_request_line_gets_400_and_close(self, service):
        with open_async_door(service) as door:
            with socket.create_connection(
                ("127.0.0.1", door.port), timeout=15
            ) as sock:
                sock.sendall(b"NONSENSE\r\n\r\n")
                raw = self.recv_all(sock)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b'"code": "bad_request"' in raw

    def test_oversized_body_gets_400_and_close(self, service):
        with open_async_door(service) as door:
            with socket.create_connection(
                ("127.0.0.1", door.port), timeout=15
            ) as sock:
                sock.sendall(
                    b"POST / HTTP/1.1\r\n"
                    b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
                )
                raw = self.recv_all(sock)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"oversized" in raw

    def test_unparseable_content_length_gets_400_and_close(
        self, service, capfd
    ):
        with open_async_door(service) as door:
            with socket.create_connection(
                ("127.0.0.1", door.port), timeout=15
            ) as sock:
                sock.sendall(
                    b"POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}"
                )
                raw = self.recv_all(sock)  # returns: the door closed
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), raw
        assert b"connection: close" in head.lower()
        assert json.loads(body)["code"] == "bad_request"
        assert "Traceback" not in capfd.readouterr().err

    def test_mid_body_disconnect_is_counted_not_crashed(self, service):
        counter = service.metrics.get("http_client_disconnects")
        before = counter.value
        with open_async_door(service) as door:
            sock = socket.create_connection(
                ("127.0.0.1", door.port), timeout=15
            )
            sock.sendall(
                b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"meth"
            )
            sock.close()
            for _ in range(100):
                if counter.value > before:
                    break
                time.sleep(0.05)
            assert counter.value > before

