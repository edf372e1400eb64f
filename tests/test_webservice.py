"""Tests for the web-service request/response tier."""

import contextlib
import dataclasses
import gc
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.cluster.mediator import Mediator
from repro.cluster.partition import MortonPartitioner
from repro.cluster.webservice import WebService
from repro.core import ThresholdQuery, ThresholdResult, pointset
from repro.core.query import RenderedThresholdResult
from repro.costmodel import CostLedger
from repro.grid import Box
from repro.ha import PlacementMap
from repro.morton import encode_array
from repro.net import frame, kinds
from repro.net.transport import TcpTransport
from repro.obs import tracing
from tests.test_core_threshold import ground_truth_norm
from tests.test_query_kinds import SIDE, FixedRouter, start_servers


@pytest.fixture()
def service(mhd_cluster):
    return WebService(mhd_cluster)


def threshold_request(small_mhd, **overrides):
    norm = ground_truth_norm(small_mhd, "vorticity", 0)
    request = {
        "method": "GetThreshold",
        "dataset": "mhd",
        "field": "vorticity",
        "timestep": 0,
        "threshold": float(np.quantile(norm, 0.999)),
    }
    request.update(overrides)
    return request


class TestGetThreshold:
    def test_ok_response(self, small_mhd, service):
        response = service.handle(threshold_request(small_mhd))
        assert response["status"] == "ok"
        norm = ground_truth_norm(small_mhd, "vorticity", 0)
        threshold = float(np.quantile(norm, 0.999))
        assert response["count"] == (norm >= threshold).sum()
        point = response["points"][0]
        assert norm[point["x"], point["y"], point["z"]] == pytest.approx(
            point["value"], abs=1e-5
        )

    def test_response_is_json_serializable(self, small_mhd, service):
        response = service.handle(threshold_request(small_mhd))
        json.dumps(response)  # must not raise

    def test_box_parameter(self, small_mhd, service):
        response = service.handle(
            threshold_request(small_mhd, box=[0, 0, 0, 16, 16, 16])
        )
        assert response["status"] == "ok"
        for point in response["points"]:
            assert max(point["x"], point["y"], point["z"]) < 16

    def test_threshold_too_low_error(self, small_mhd, mhd_cluster):
        service = WebService(mhd_cluster, max_points=100)
        response = service.handle(threshold_request(small_mhd, threshold=0.0))
        assert response["status"] == "error"
        assert response["code"] == "threshold_too_low"
        assert "PDF" in response["message"]

    def test_unknown_field_error(self, small_mhd, service):
        response = service.handle(
            threshold_request(small_mhd, field="enstrophy")
        )
        assert response == {
            "status": "error",
            "code": "unknown_field",
            "message": response["message"],
        }

    def test_missing_parameter(self, service):
        response = service.handle({"method": "GetThreshold", "dataset": "mhd"})
        assert response["code"] == "bad_request"

    def test_wrong_type(self, small_mhd, service):
        response = service.handle(threshold_request(small_mhd, timestep="zero"))
        assert response["code"] == "bad_request"

    def test_malformed_box(self, small_mhd, service):
        response = service.handle(threshold_request(small_mhd, box=[1, 2, 3]))
        assert response["code"] == "bad_request"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_non_finite_threshold_is_a_bad_request(self, small_mhd, service, bad):
        # json.loads accepts NaN and Infinity, so the door can deliver them.
        single = threshold_request(small_mhd, threshold=bad)
        assert service.handle(single)["code"] == "bad_request"
        del single["method"]
        batch = {"method": "GetBatchThreshold", "queries": [single]}
        assert service.handle(batch)["code"] == "bad_request"

    @pytest.mark.parametrize("bad", [0, -3, 65, 10**9, True, 2.5, "4"])
    @pytest.mark.parametrize("method", ["GetThreshold", "GetBatchThreshold"])
    def test_processes_outside_the_limit_is_a_bad_request(
        self, small_mhd, mhd_cluster, monkeypatch, method, bad
    ):
        # The slab split allocates per process: 10**9 of them used to be
        # an allocation no node survives, True and 2.5 ran as 1 and 2.
        def scattered(*args, **kwargs):
            raise AssertionError("scattered before validating")

        monkeypatch.setattr(mhd_cluster, "_scatter", scattered)
        request = threshold_request(small_mhd)
        if method == "GetBatchThreshold":
            del request["method"]
            request = {"method": method, "queries": [request]}
        response = WebService(mhd_cluster).handle({**request, "processes": bad})
        assert response["code"] == "bad_request"
        assert "processes" in response["message"]

    @pytest.mark.parametrize(
        "method, change",
        [
            ("GetThreshold", {"fd_order": "4"}),
            ("GetThreshold", {"fd_order": 4.9}),
            ("GetThreshold", {"fd_order": True}),
            ("GetThreshold", {"box": [0, 0, 0, 8.7, 8, 8]}),
            ("GetBatchThreshold", {"fd_order": 4.9}),
            ("GetPdf", {"bin_edges": [0.0, "1.5"]}),
            ("GetPdf", {"bin_edges": [0.0, True]}),
            ("GetTopK", {"k": True}),
        ],
    )
    def test_a_value_it_used_to_coerce_is_a_bad_request(
        self, small_mhd, mhd_cluster, monkeypatch, method, change
    ):
        # "4" and 4.9 ran as fd_order 4, 8.7 as a box corner of 8.
        def scattered(*args, **kwargs):
            raise AssertionError("scattered before validating")

        monkeypatch.setattr(mhd_cluster, "_scatter", scattered)
        request = threshold_request(small_mhd)
        del request["method"]
        request = {
            "GetThreshold": {"method": method, **request},
            "GetBatchThreshold": {"method": method, "queries": [{**request, **change}]},
            "GetPdf": {"method": method, **request, "bin_edges": [0.0, 1.0]},
            "GetTopK": {"method": method, **request, "k": 5},
        }[method]
        response = WebService(mhd_cluster).handle({**request, **change})
        assert response["code"] == "bad_request"
        assert next(iter(change)) in response["message"]

    def test_the_largest_processes_is_served(self, small_mhd, service):
        response = service.handle(threshold_request(small_mhd, processes=64))
        assert response["status"] == "ok" and response["count"] > 0

    def test_nan_threshold_does_not_poison_the_cache(self, small_mhd):
        # A NaN query used to scan, store an empty entry, and "dominate"
        # every later query on its region: 8.0 then answered 0 points.
        request = threshold_request(small_mhd, threshold=8.0)
        fresh = WebService(build_cluster(small_mhd, nodes=2)).handle(request)
        service = WebService(build_cluster(small_mhd, nodes=2))
        service.handle(threshold_request(small_mhd, threshold=float("nan")))
        after = service.handle(request)
        assert fresh["count"] > 0 and after["cache_hits"] == 0
        assert after["points"] == fresh["points"]


class TestOtherMethods:
    def test_get_pdf(self, service):
        response = service.handle(
            {
                "method": "GetPdf",
                "dataset": "mhd",
                "field": "vorticity",
                "timestep": 0,
                "bin_edges": [0.0, 2.0, 4.0],
            }
        )
        assert response["status"] == "ok"
        assert sum(response["counts"]) == 32**3

    def test_get_topk(self, small_mhd, service):
        response = service.handle(
            {
                "method": "GetTopK",
                "dataset": "mhd",
                "field": "vorticity",
                "timestep": 0,
                "k": 3,
            }
        )
        assert response["status"] == "ok"
        norm = ground_truth_norm(small_mhd, "vorticity", 0)
        assert response["points"][0]["value"] == pytest.approx(
            norm.max(), abs=1e-5
        )

    def test_list_fields(self, service):
        response = service.handle({"method": "ListFields"})
        assert "vorticity" in response["fields"]

    def test_list_datasets(self, service):
        response = service.handle({"method": "ListDatasets"})
        assert response["datasets"] == ["mhd"]

    def test_get_statistics(self, small_mhd, service):
        before = service.handle({"method": "GetStatistics"})
        assert before["threshold_queries"] == 0
        service.handle(threshold_request(small_mhd))
        service.handle(threshold_request(small_mhd))
        after = service.handle({"method": "GetStatistics"})
        assert after["threshold_queries"] == 2
        assert after["cache_hit_ratio"] == pytest.approx(0.5)
        assert after["points_returned"] > 0


class TestBatchAndRegistration:
    def test_batch_threshold(self, small_mhd, mhd_cluster):
        import numpy as np

        service = WebService(mhd_cluster)
        vort = ground_truth_norm(small_mhd, "vorticity", 0)
        response = service.handle(
            {
                "method": "GetBatchThreshold",
                "queries": [
                    {"dataset": "mhd", "field": "vorticity", "timestep": 0,
                     "threshold": float(np.quantile(vort, 0.999))},
                    {"dataset": "mhd", "field": "q_criterion", "timestep": 0,
                     "threshold": 1e6},
                ],
            }
        )
        assert response["status"] == "ok"
        assert len(response["results"]) == 2
        assert response["results"][0]["count"] > 0

    def test_batch_rejects_mixed_sources(self, service):
        response = service.handle(
            {
                "method": "GetBatchThreshold",
                "queries": [
                    {"dataset": "mhd", "field": "vorticity", "timestep": 0,
                     "threshold": 1.0},
                    {"dataset": "mhd", "field": "magnetic", "timestep": 0,
                     "threshold": 1.0},
                ],
            }
        )
        assert response["code"] == "bad_request"

    def test_batch_honours_each_query_box(self, small_mhd, service):
        vorticity = threshold_request(small_mhd)
        del vorticity["method"]
        region = {"box": [0, 0, 0, 8, 8, 8]}
        batch = service.handle(
            {
                "method": "GetBatchThreshold",
                "queries": [
                    {**vorticity, **region},
                    {**vorticity, **region, "field": "q_criterion"},
                ],
            }
        )
        lone = service.handle(
            {"method": "GetThreshold", **vorticity, **region}
        )
        full = service.handle({"method": "GetThreshold", **vorticity})
        assert batch["status"] == "ok"
        assert batch["results"][0]["count"] == lone["count"] < full["count"]
        mismatched = service.handle(
            {
                "method": "GetBatchThreshold",
                "queries": [{**vorticity, **region}, vorticity],
            }
        )
        assert mismatched["code"] == "bad_request"

    def test_batch_rejects_malformed_box(self, small_mhd, service):
        vorticity = threshold_request(small_mhd, box="garbage")
        response = service.handle(
            {"method": "GetBatchThreshold", "queries": [vorticity]}
        )
        assert response["code"] == "bad_request"

class TestIntrospection:
    @pytest.fixture()
    def traced(self):
        from repro.obs import tracing

        collector = tracing.install()
        yield collector
        tracing.uninstall()

    def test_get_stats_counts_semantic_cache_hits(self, small_mhd, service):
        # Acceptance criterion: a repeated query shows up as a nonzero
        # semantic-cache hit counter in /stats.
        request = threshold_request(small_mhd)
        service.handle(request)
        service.handle(request)
        response = service.handle({"method": "GetStats"})
        assert response["status"] == "ok"
        metrics = response["metrics"]
        hits = metrics["semantic_cache_hits_total"]["samples"][0]["value"]
        assert hits > 0
        assert response["statistics"]["threshold_queries"] == 2

    def test_get_stats_prometheus_format(self, small_mhd, service):
        service.handle(threshold_request(small_mhd))
        response = service.handle(
            {"method": "GetStats", "format": "prometheus"}
        )
        assert response["status"] == "ok"
        assert 'queries_total{kind="threshold"} 1.0' in response["body"]
        assert "webservice_request_seconds_bucket" in response["body"]

    def test_get_stats_bad_format(self, service):
        response = service.handle({"method": "GetStats", "format": "xml"})
        assert response["code"] == "bad_request"

    def test_get_trace_returns_span_tree(self, small_mhd, service, traced):
        ok = service.handle(threshold_request(small_mhd))
        response = service.handle(
            {"method": "GetTrace", "query_id": ok["query_id"]}
        )
        assert response["status"] == "ok"
        names = {span["name"] for span in response["spans"]}
        assert "query.threshold" in names and "node.part" in names
        assert "query.threshold" in response["tree"]
        assert response["category_totals"]

    def test_get_trace_unknown_id(self, service, traced):
        response = service.handle(
            {"method": "GetTrace", "query_id": "q999999"}
        )
        assert response["code"] == "unknown_trace"

    def test_get_trace_without_collector(self, service):
        response = service.handle(
            {"method": "GetTrace", "query_id": "q000001"}
        )
        assert response["code"] == "tracing_disabled"

    def test_http_stats_route(self, small_mhd, service):
        service.handle(threshold_request(small_mhd))
        status, content_type, body = service.handle_http("GET", "/stats")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "queries_total" in body
        # A mediator that owns its nodes samples them at export.
        assert "storage_bufferpool_hits" in body
        assert "semantic_cache_probe_hits" in body
        assert "pdf_cache_hits" in body

    def test_http_trace_route(self, small_mhd, service, traced):
        ok = service.handle(threshold_request(small_mhd))
        status, content_type, body = service.handle_http(
            "GET", f"/trace/{ok['query_id']}"
        )
        assert status == 200
        assert content_type == "application/json"
        assert json.loads(body)["query_id"] == ok["query_id"]

    def test_http_trace_unknown_is_404(self, service, traced):
        status, _, _ = service.handle_http("GET", "/trace/q999999")
        assert status == 404

    def test_http_trace_disabled_is_503(self, service):
        status, _, _ = service.handle_http("GET", "/trace/q000001")
        assert status == 503

    def test_http_unknown_route_and_method(self, service):
        assert service.handle_http("GET", "/nope")[0] == 404
        assert service.handle_http("POST", "/stats")[0] == 405

    def test_request_latency_histogram_by_method(self, service):
        service.handle({"method": "ListFields"})
        service.handle({"method": "DropTables"})
        latency = service._mediator.metrics.get("webservice_request_seconds")
        assert latency.labels(method="ListFields").count == 1
        assert latency.labels(method="<unknown>").count == 1
        in_flight = service._mediator.metrics.get("webservice_in_flight")
        assert in_flight.value == 0.0


class TestDispatch:
    def test_unknown_method(self, service):
        response = service.handle({"method": "DropTables"})
        assert response["code"] == "unknown_method"

    def test_missing_method(self, service):
        response = service.handle({})
        assert response["code"] == "bad_request"

    def test_never_raises(self, service):
        # Garbage of various shapes must come back as error responses.
        for garbage in ({"method": 42}, {"method": "GetPdf"}, {"method": "GetThreshold", "dataset": 1}):
            response = service.handle(garbage)
            assert response["status"] == "error"


def point_dicts(coordinates, values):
    """The point list spelled independently of the writer under test."""
    return [
        {"x": int(x), "y": int(y), "z": int(z), "value": float(v)}
        for (x, y, z), v in zip(coordinates.tolist(), values.tolist())
    ]


#: A threshold answer of 4,066 of the 4,096 points the 16^3 servers hold.
TCP_QUERY = {"method": "GetThreshold", "dataset": "mhd",
             "field": "vorticity", "timestep": 0, "threshold": 0.5}


@contextlib.contextmanager
def serving(replication):
    """A service over two in-thread node servers, at R = 1 or R = 2, that
    routes every shard to its primary (a warm answer then stays warm)."""
    servers, addresses = start_servers(replication_factor=replication)
    placement = PlacementMap(2, 2, replication)
    mediator = Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, 2),
        transport=TcpTransport(
            addresses, placement=placement,
            router=FixedRouter(placement), timeout=60.0,
        ),
    )
    try:
        yield WebService(mediator)
    finally:
        mediator.close()
        for server in servers:
            server.shutdown()


@pytest.fixture(scope="module", params=[1, 2], ids=["R1", "R2"])
def tcp_service(request):
    """:func:`serving`, shared by the module's tests."""
    with serving(request.param) as service:
        yield service


def canned_threshold(monkeypatch, service, values, query_id="q000042"):
    """Make the service's mediator answer every GetThreshold with ``values``
    (rendered when asked, by the renderer the nodes run)."""
    zindexes = np.arange(len(values), dtype=np.uint64)

    def threshold(query, render=False, **options):
        if render:
            return RenderedThresholdResult(
                len(values),
                [pointset.points_json(zindexes, pointset.value_text(values))],
                CostLedger(), cache_hits=0, query_id=query_id,
            )
        return ThresholdResult(zindexes, values, CostLedger(), query_id=query_id)

    monkeypatch.setattr(service._mediator, "threshold", threshold)


class TestHandleJson:
    """``handle_json`` is what the doors send; ``handle`` is its reference."""

    def assert_body_is_the_reference(self, service, request):
        head, body = service.handle_json(dict(request))
        reference = service.handle(dict(request))
        assert body == json.dumps(reference).encode("utf-8"), request
        assert head == {k: v for k, v in reference.items() if k != "points"}
        return reference

    def test_all_ten_methods_and_errors_byte_for_byte(
        self, small_mhd, service, monkeypatch
    ):
        from repro.obs import tracing

        collector = tracing.install()
        try:
            query = threshold_request(small_mhd)
            traced = service.handle(query)["query_id"]  # warms the cache too
            # Two executions of one request differ only in the query id.
            monkeypatch.setattr(tracing, "new_trace_id", lambda: "q424242")
            topk = {"method": "GetTopK", "dataset": "mhd",
                    "field": "vorticity", "timestep": 0, "k": 7}
            spec = {k: v for k, v in query.items() if k != "method"}
            stable = [
                query,
                {**query, "box": [0, 0, 0, 16, 16, 16]},
                {**query, "threshold": 1e9},  # zero points
                topk,
                {"method": "GetPdf", "dataset": "mhd", "field": "vorticity",
                 "timestep": 0, "bin_edges": [0.0, 2.0, 4.0]},
                {"method": "GetBatchThreshold", "queries": [spec]},
                {"method": "ListFields"},
                {"method": "ListDatasets"},
                {"method": "GetStatistics"},
                {"method": "GetTrace", "query_id": traced},
                {"method": "GetTrace", "query_id": "q999999"},
                {"method": "GetStats", "format": "xml"},
                {"method": "NoSuchMethod"},
                {"method": "GetThreshold", "dataset": "mhd"},
                {**query, "threshold": float("nan")},
                {**query, "field": "enstrophy"},
                {},
            ]
            for request in stable:
                service.handle(dict(request))  # cold and warm differ in cost
            for request in stable:
                self.assert_body_is_the_reference(service, request)
            points = self.assert_body_is_the_reference(service, query)["points"]
            assert type(points) is list and type(points[0]) is dict
            # Answers that change the state they report: the body is still
            # exactly the dumped response, which carries no points.
            for request in (
                {"method": "GetStats"},
                {"method": "GetStats", "format": "prometheus"},
            ):
                head, body = service.handle_json(request)
                assert head["status"] == "ok", head
                assert body == json.dumps(head).encode("utf-8")
        finally:
            tracing.uninstall()

    def test_non_finite_values_take_json_dumps_spelling(
        self, small_mhd, service, monkeypatch
    ):
        values = np.array([1.5, np.inf, -np.inf, np.nan, 2.5], dtype=np.float32)
        canned_threshold(monkeypatch, service, values)
        reference = self.assert_body_is_the_reference(
            service, threshold_request(small_mhd)
        )
        _, body = service.handle_json(threshold_request(small_mhd))
        assert b" Infinity" in body and b"-Infinity" in body and b"NaN" in body
        assert [p["value"] for p in reference["points"][:3]] == [
            1.5, float("inf"), float("-inf")
        ]

    def test_fat_answer_allocates_no_per_point_objects(
        self, small_mhd, service, monkeypatch
    ):
        # The guard on the gain, without a stopwatch: 50k point dicts
        # (plus 50k [x, y, z] lists, as the parent built them) force well
        # over 100 generation-0 collections; the column writer forces none.
        rng = np.random.default_rng(5)
        values = (rng.random(50_000) * 20).astype(np.float32)
        canned_threshold(monkeypatch, service, values)
        request = threshold_request(small_mhd)
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        def collections(call) -> int:
            passes.clear()
            gc.callbacks.append(count)
            try:
                call(dict(request))
            finally:
                gc.callbacks.remove(count)
            return len(passes)

        assert collections(service.handle_json) < 10
        assert collections(service.handle) > 50  # the counter does count

    # -- the shipped path: two node servers over loopback, R = 1 and R = 2 --

    def test_every_tcp_body_is_the_reference(self, tcp_service, monkeypatch):
        monkeypatch.setattr(tracing, "new_trace_id", lambda: "q424242")
        mediator = tcp_service._mediator
        on_one_node = {**TCP_QUERY, "box": [0, 0, 0, 8, 8, 8]}
        assert mediator.partitioner.query_boxes(1, Box((0, 0, 0), (8, 8, 8))) == []
        requests = [
            TCP_QUERY,
            on_one_node,
            {**TCP_QUERY, "threshold": 1e9},  # zero points
            {"method": "GetTopK", "dataset": "mhd", "field": "vorticity",
             "timestep": 0, "k": 7},
        ]
        for request in requests:
            tcp_service.handle(dict(request))  # cold and warm differ in cost
        counts = [
            len(self.assert_body_is_the_reference(tcp_service, request)["points"])
            for request in requests
        ]
        assert counts[0] > counts[1] > 0 and counts[2:] == [0, 7]

    def test_non_finite_values_over_tcp(self, tcp_service, monkeypatch):
        real = kinds.get_threshold_on_node

        def poisoned(*args, **kwargs):
            part = real(*args, **kwargs)
            values = np.array(part.values)
            values[:3] = [np.inf, -np.inf, np.nan][: len(values)]
            # A rendering part carries its values' text: poison both.
            text = None if part.text is None else pointset.value_text(values)
            return dataclasses.replace(part, values=values, text=text)

        monkeypatch.setattr(kinds, "get_threshold_on_node", poisoned)
        monkeypatch.setattr(tracing, "new_trace_id", lambda: "q424242")
        tcp_service.handle(dict(TCP_QUERY))
        self.assert_body_is_the_reference(tcp_service, TCP_QUERY)
        _, body = tcp_service.handle_json(dict(TCP_QUERY))
        # Each node's part spells its own non-finite values.
        assert body.count(b"-Infinity") == 2 and body.count(b"NaN") == 2

    def test_rendered_parts_ship_raw_and_column_parts_compress(
        self, tcp_service, monkeypatch
    ):
        flags = []
        send_all = frame._send_all

        def watched(sock, buffers, deadline):
            _, _, frame_type, codec_id, _, _ = frame.HEADER.unpack(buffers[0])
            if frame_type == frame.FrameType.RESPONSE:
                flags.append(codec_id)
            return send_all(sock, buffers, deadline)

        mediator = tcp_service._mediator
        tcp_service.handle(dict(TCP_QUERY))  # warm: no halo reads below
        monkeypatch.setattr(frame, "_send_all", watched)
        head, _ = tcp_service.handle_json(dict(TCP_QUERY))
        assert head["count"] > 256
        assert flags == [0] * mediator.node_count
        flags.clear()
        query = ThresholdQuery("mhd", "vorticity", 0, TCP_QUERY["threshold"])
        boxes = mediator.partitioner.query_boxes(0, Box.cube(SIDE))
        mediator.transport.threshold_part(
            0, query, boxes, use_cache=True, processes=1, io_only=False
        )
        assert len(flags) == 1 and flags[0] != 0

    def test_a_node_part_over_the_limit_is_refused_before_it_renders(
        self, tcp_service, monkeypatch
    ):
        mediator = tcp_service._mediator
        full, _ = tcp_service.handle_json(dict(TCP_QUERY))
        rendered, sizes = [], []
        monkeypatch.setattr(
            kinds, "points_json", lambda *columns: rendered.append(columns)
        )
        send_all = frame._send_all

        def watched(sock, buffers, deadline):
            if frame.HEADER.unpack(buffers[0])[2] == frame.FrameType.RESPONSE:
                sizes.append(sum(len(buffer) for buffer in buffers))
            return send_all(sock, buffers, deadline)

        monkeypatch.setattr(frame, "_send_all", watched)
        # Below what either node holds: each ships its count alone, and
        # both paths refuse the whole answer with the same total.
        limited = WebService(mediator, max_points=full["count"] // 4)
        reference = self.assert_body_is_the_reference(limited, TCP_QUERY)
        assert reference["code"] == "threshold_too_low", reference
        assert f"at least {full['count']} points" in reference["message"]
        assert rendered == []
        assert len(sizes) == 2 * mediator.node_count and max(sizes) < 1024
        collector = tracing.install()
        try:
            limited.handle_json(dict(TCP_QUERY))
            names = {
                span.name
                for trace_id in collector.trace_ids()
                for span in collector.trace(trace_id)
            }
        finally:
            tracing.uninstall()
        assert "server.request" in names and "node.render" not in names
        failovers = mediator.metrics.to_dict()["ha_failovers_total"]
        assert failovers["samples"][0]["value"] == 0

    @pytest.mark.parametrize("replication", [1, 2], ids=["R1", "R2"])
    def test_zoomed_and_dominated_hits_render_from_held_text(
        self, replication, monkeypatch
    ):
        # The nodes keep each chunk's value text once a rendered hit has
        # read it; a later hit on a box inside the entry, or at a higher
        # threshold, masks that text like its points and must still send
        # json.dumps(handle(...)) byte for byte.  Fresh servers: a hit's
        # simulated seconds drift with a node's history (each hit's
        # recency update leaves a dead cacheInfo version behind), and the
        # module's shared servers have a long one.
        monkeypatch.setattr(tracing, "new_trace_id", lambda: "q424242")
        zoomed = {**TCP_QUERY, "box": [1, 2, 3, 13, 11, 9]}
        dominated = {**TCP_QUERY, "threshold": 1.7}
        with serving(replication) as service:
            service.handle(dict(TCP_QUERY))  # every entry stored
            service.handle_json(dict(TCP_QUERY))  # every chunk's text built
            for request in (zoomed, dominated):
                reference = self.assert_body_is_the_reference(service, request)
                assert 0 < len(reference["points"]) < 4066
                collector = tracing.install()
                try:
                    head, _ = service.handle_json(dict(request))
                    spans = collector.trace(head["query_id"])
                finally:
                    tracing.uninstall()
                renders = [span for span in spans if span.name == "node.render"]
                assert head["cache_hits"] == len(renders) > 0
                for span in renders:
                    assert span.attributes["cached_points"] == span.attributes["points"]
                assert sum(span.attributes["points"] for span in renders) == head["count"]

    def test_a_traced_answer_has_one_render_span_per_node(self, tcp_service):
        collector = tracing.install()
        try:
            head, _ = tcp_service.handle_json(dict(TCP_QUERY))
            status, _, body = tcp_service.handle_http(
                "GET", f"/trace/{head['query_id']}"
            )
        finally:
            tracing.uninstall()
        assert collector is not None and status == 200
        spans = json.loads(body)["spans"]
        renders = [span for span in spans if span["name"] == "node.render"]
        assert len(renders) == tcp_service._mediator.node_count
        assert sum(span["attributes"]["points"] for span in renders) == head["count"]
        assert all(span["attributes"]["bytes"] > 0 for span in renders)
        assert all("cached_points" in span["attributes"] for span in renders)
        splice, = [span for span in spans if span["name"] == "webservice.splice"]
        assert splice["attributes"]["fragments"] == len(renders)



SPECIALS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 9.999e-5, 1e-4,
    1e16, 9999999999999998.0, 1.7976931348623157e308, 0.1, 1 / 3,
    float("inf"), float("-inf"), float("nan"),
]


class TestPointWriter:
    """The renderer alone — ``points_json`` of ``value_text`` — against
    ``json.dumps`` of the dict form."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from(
            [0, 1, pointset._BLOCK - 1, pointset._BLOCK, pointset._BLOCK + 1]
        ),
        dtype=st.sampled_from([np.float32, np.float64]),
        palette=st.lists(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
            | st.floats(width=32, allow_subnormal=True)
            | st.sampled_from(SPECIALS),
            min_size=1, max_size=12,
        ),
        finite=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=pointset._BLOCK + 1, dtype=np.float32, palette=SPECIALS,
             finite=True, seed=0)
    @example(n=pointset._BLOCK + 1, dtype=np.float64, palette=SPECIALS,
             finite=False, seed=1)
    def test_writer_equals_json_dumps_and_round_trips(
        self, n, dtype, palette, finite, seed
    ):
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):
            palette = np.array(palette, dtype=np.float64).astype(dtype)
        if finite:  # otherwise (usually) NaN / Infinity / -Infinity too
            palette = np.where(np.isfinite(palette), palette, dtype(1e-7))
        values = rng.choice(palette, size=n)
        coordinates = rng.integers(0, 2**21, size=(n, 3), dtype=np.int64)
        zindexes = encode_array(*coordinates.T)
        reference = point_dicts(coordinates, values)
        value_text = pointset.value_text(values)
        assert value_text.dtype.kind == "S" and len(value_text) == n
        text = b"[" + pointset.points_json(zindexes, value_text) + b"]"
        assert text == json.dumps(reference).encode()
        assert json.dumps(pointset.point_dicts(zindexes, values)).encode() == text
        parsed = json.loads(text)
        assert [[p["x"], p["y"], p["z"]] for p in parsed] == coordinates.tolist()
        assert np.array_equal(
            np.array([p["value"] for p in parsed], dtype=np.float64),
            values.astype(np.float64),
            equal_nan=True,
        )
        assert all(list(point) == ["x", "y", "z", "value"] for point in parsed)

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 3000), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sizes=[pointset._BLOCK + 1, 0, pointset._BLOCK - 1], seed=0)
    def test_interleaved_runs_carry_their_text_through_the_merge(
        self, sizes, seed
    ):
        # Per-box runs of one node interleave on the curve; the text
        # column must follow its points through the merge's argsort.
        rng = np.random.default_rng(seed)
        cells = rng.permutation(2**15)[: sum(sizes)].astype(np.uint64)
        runs, start = [], 0
        for size in sizes:
            zindexes = np.sort(cells[start:start + size])
            start += size
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
            runs.append((zindexes, values, pointset.value_text(values)))
        zindexes, values, text = pointset.merge_sorted_runs(runs)
        assert np.all(zindexes[1:] > zindexes[:-1])
        assert pointset.points_json(zindexes, text) == pointset.points_json(
            zindexes, pointset.value_text(values)
        )
        assert text.tolist() == pointset.value_text(values).tolist()
