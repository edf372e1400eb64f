"""The web-service tier: request parsing, validation and serialization.

"Access to the data is provided by means of Web-services ... executed
through Web-service calls" (paper §2, Fig. 1).  This module is that
front door in testable form: requests arrive as plain dictionaries (the
parsed body of a SOAP/JSON call), are read by the parser a node reads
its records with (:func:`repro.core.query.parse`), dispatched to the
mediator, and answered with serializable dictionaries — including the
error responses the paper specifies, such as notifying users "if their
request has a threshold that is set too low" (§4).  Only ``processes``,
``max_points`` and each method's response envelope are the door's own.
"""

from __future__ import annotations

import functools
import json
from typing import Callable, TypeVar

from repro.cluster.mediator import Mediator
from repro.core import (
    PdfQuery,
    ThresholdQuery,
    ThresholdTooLowError,
    TopKQuery,
)
from repro.core.limits import MAX_PROCESSES
from repro.core.pointset import point_dicts, points_json, value_text
from repro.core.query import (
    BadRequestError,
    RenderedThresholdResult,
    parse,
    read_field,
)
from repro.fields.derived import UnknownFieldError
from repro.net.errors import (
    DeadlineExceededError,
    NetError,
    PartialFailureError,
    RemoteCallError,
)
from repro.obs import clock, tracing
from repro.obs.metrics import MetricsRegistry

_R = TypeVar("_R")

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4"

# A point answer's ``points`` hold its result until one of these two
# writes the response: as dicts (the reference) or as JSON (a door).


def _with_point_dicts(response: dict) -> dict:
    points = response.get("points")
    if points is not None:  # columns: handle() never asks for a render
        response["points"] = point_dicts(points.zindexes, points.values)
    return response


def _encoded(response: dict) -> tuple[dict, bytes]:
    """``(response minus points, json.dumps(response) as bytes)``, the
    points spliced in as the JSON fragments the nodes wrote (or, from
    columns, the one written here)."""
    points = response.get("points")
    if points is None:
        return response, json.dumps(response).encode("utf-8")
    if isinstance(points, RenderedThresholdResult):
        fragments = points.fragments
    else:
        fragments = [points_json(points.zindexes, value_text(points.values))]
    # An empty list holds the key's place; no JSON string value can spell it.
    head, _, tail = json.dumps({**response, "points": []}).partition('"points": []')
    del response["points"]
    with tracing.span(
        "webservice.splice", trace_id=response.get("query_id"),
        fragments=len(fragments),
    ) as span:
        # Separators between the fragments: each is copied once, into the body.
        joined = [b", "] * max(0, 2 * len(fragments) - 1)
        joined[::2] = fragments
        body = b"".join([head.encode(), b'"points": [', *joined, b"]", tail.encode()])
        span.set("bytes", len(body))
    return response, body


class WebServiceError(Exception):
    """A request the service rejects; carries a wire-level error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code

    def to_response(self) -> dict:
        """The wire-level error payload."""
        return {"status": "error", "code": self.code, "message": str(self)}


class WebService:
    """Dispatches request dictionaries to the mediator.

    Every method of the service takes and returns JSON-serializable
    dictionaries, so a transport (HTTP, SOAP, a test) can sit on top
    unchanged.
    """

    def __init__(self, mediator: Mediator, max_points: int | None = None) -> None:
        from repro.core import MAX_RESULT_POINTS

        self._mediator = mediator
        self._max_points = max_points or MAX_RESULT_POINTS
        self._methods: dict[str, Callable[[dict], dict]] = {
            "GetThreshold": self._get_threshold,
            "GetPdf": self._get_pdf,
            "GetTopK": self._get_topk,
            "ListFields": self._list_fields,
            "ListDatasets": self._list_datasets,
            "GetStatistics": self._get_statistics,
            "GetBatchThreshold": self._get_batch_threshold,
            "GetStats": self._get_stats,
            "GetTrace": self._get_trace,
        }
        # What handle_json dispatches: a threshold answer its nodes render.
        self._json_methods = {
            **self._methods,
            "GetThreshold": functools.partial(self._get_threshold, render=True),
        }
        self._latency = mediator.metrics.histogram(
            "webservice_request_seconds",
            "Request handling wall seconds, by method",
            labelnames=["method"],
        )
        self._in_flight = mediator.metrics.gauge(
            "webservice_in_flight", "Requests currently being handled"
        )
        self._client_disconnects = mediator.metrics.counter(
            "http_client_disconnects",
            "Client connections dropped before the reply landed",
        )

    @property
    def metrics(self) -> "MetricsRegistry":
        """The mediator's metrics registry (the door's instrument home)."""
        return self._mediator.metrics

    def note_client_disconnect(self) -> None:
        """Count a client that hung up mid-exchange.

        A public front door sees disconnects constantly; they are
        traffic weather, not errors — counted here so overload
        investigations can correlate them with shed rates, and
        swallowed by the door so a vanished client never poisons the
        event loop.
        """
        self._client_disconnects.inc()

    def handle(self, request: dict) -> dict:
        """Process one request; never raises, always answers.

        A request is ``{"method": name, **params}``; responses are
        ``{"status": "ok", ...}`` or ``{"status": "error", "code",
        "message"}``.
        """
        return self._handle(request, self._methods, _with_point_dicts)

    def handle_json(self, request: dict) -> tuple[dict, bytes]:
        """:meth:`handle` for a door: ``(head, body)``, serialised once.

        ``body`` is ``json.dumps(self.handle(request)).encode("utf-8")`` byte
        for byte, spliced from the JSON each node wrote of its share of a
        threshold answer (other point answers render from their columns
        here); ``head`` lacks ``points``.
        """
        return self._handle(request, self._json_methods, _encoded)

    def _handle(self, request: dict, methods: dict, render: Callable[[dict], _R]) -> _R:
        method_name = request.get("method")
        # Unknown method names share one label value so a client spraying
        # garbage cannot blow the latency family's cardinality cap.
        label = (
            method_name
            if isinstance(method_name, str) and method_name in self._methods
            else "<unknown>"
        )
        self._in_flight.inc()
        started = clock.now()
        response: dict | None = None
        try:
            response = self._dispatch(request, methods)
            return render(response)
        finally:
            # Timed by hand rather than via ``timed``: a successful
            # query response carries its query id, which becomes the
            # observation's exemplar — the p99 latency bucket then
            # points straight at the trace that caused it.
            exemplar = (
                response.get("query_id") if response is not None else None
            )
            self._latency.labels(method=label).observe(
                clock.now() - started,
                exemplar=exemplar if isinstance(exemplar, str) else None,
            )
            self._in_flight.dec()

    def _dispatch(self, request: dict, methods: dict) -> dict:
        try:
            method_name = request.get("method")
            if not isinstance(method_name, str):
                raise BadRequestError("missing method name")
            method = methods.get(method_name)
            if method is None:
                raise WebServiceError(
                    "unknown_method",
                    f"unknown method {method_name!r}; "
                    f"known: {sorted(self._methods)}",
                )
            return method(request)
        except WebServiceError as error:
            return error.to_response()
        except ThresholdTooLowError as error:
            return WebServiceError("threshold_too_low", str(error)).to_response()
        except UnknownFieldError as error:
            return WebServiceError("unknown_field", str(error)).to_response()
        except DeadlineExceededError as error:
            return WebServiceError("deadline_exceeded", str(error)).to_response()
        except BadRequestError as error:
            return WebServiceError("bad_request", str(error)).to_response()
        except NetError as error:
            # A node that answered with its own fault is not unavailable.
            fault = error.__cause__ if isinstance(error, PartialFailureError) else error
            internal = isinstance(fault, RemoteCallError) and fault.code == "internal_error"
            code = "internal_error" if internal else "node_unavailable"
            return WebServiceError(code, str(error)).to_response()
        except Exception as error:  # turblint: disable=ERR01 - answered, by type
            # Anything else a query raises is the engine's fault, not the
            # request's: the same code a node's own fault gets over TCP.
            return WebServiceError(
                "internal_error", f"{type(error).__name__}: {error}"
            ).to_response()

    def handle_http(self, method: str, path: str) -> tuple[int, str, str]:
        """Route an HTTP-style introspection request.

        The dictionary protocol stays the service's front door for
        queries; this thin router exposes the two live-introspection
        endpoints — ``GET /stats`` (Prometheus text) and
        ``GET /trace/<query_id>`` (the trace as JSON) — the way a
        scraper or a browser expects them.

        Returns ``(status_code, content_type, body)``.
        """
        if method.upper() != "GET":
            return 405, "text/plain", "method not allowed\n"
        if path in ("/stats", "/stats/"):
            return (
                200,
                PROMETHEUS_CONTENT_TYPE,
                self._mediator.metrics.render_prometheus(),
            )
        if path.startswith("/trace/"):
            query_id = path[len("/trace/"):]
            response = self.handle({"method": "GetTrace", "query_id": query_id})
            if response["status"] == "ok":
                return 200, "application/json", json.dumps(response)
            status = {
                "unknown_trace": 404,
                "tracing_disabled": 503,
            }.get(response["code"], 400)
            return status, "application/json", json.dumps(response)
        return 404, "text/plain", f"no route for {path!r}\n"

    # -- methods -----------------------------------------------------------------

    def _get_threshold(self, request: dict, render: bool = False) -> dict:
        result = self._mediator.threshold(
            parse(ThresholdQuery, request),
            processes=self._processes(request),
            max_points=self._max_points,
            render=render,
        )
        return {
            "status": "ok",
            "points": result,
            "count": len(result),
            "cache_hits": result.cache_hits,
            "elapsed_seconds": result.ledger.total,
            "query_id": result.query_id,
        }

    def _get_pdf(self, request: dict) -> dict:
        result = self._mediator.pdf(parse(PdfQuery, request))
        return {
            "status": "ok",
            "bin_edges": list(result.bin_edges),
            "counts": [int(c) for c in result.counts],
            "elapsed_seconds": result.ledger.total,
            "query_id": result.query_id,
        }

    def _get_topk(self, request: dict) -> dict:
        result = self._mediator.topk(parse(TopKQuery, request))
        return {
            "status": "ok",
            "points": result,
            "elapsed_seconds": result.ledger.total,
            "query_id": result.query_id,
        }

    def _list_fields(self, request: dict) -> dict:
        return {"status": "ok", "fields": self._mediator.registry.names()}

    def _get_batch_threshold(self, request: dict) -> dict:
        """Several same-source queries over one shared scan."""
        specs = read_field(request, "queries", "list")
        if not all(isinstance(spec, dict) for spec in specs):
            raise BadRequestError("queries must be objects")
        batch = self._mediator.batch_threshold(
            [parse(ThresholdQuery, spec) for spec in specs],
            processes=self._processes(request),
            max_points=self._max_points,
        )
        return {
            "status": "ok",
            "results": [
                {
                    "count": len(result),
                    "cache_hits": result.cache_hits,
                    "values_max": (
                        float(result.values.max()) if len(result) else None
                    ),
                }
                for result in batch.results
            ],
            "elapsed_seconds": batch.ledger.total,
        }

    def _get_statistics(self, request: dict) -> dict:
        stats = self._mediator.statistics
        return {
            "status": "ok",
            "threshold_queries": stats.threshold_queries,
            "node_queries": stats.node_queries,
            "node_cache_hits": stats.node_cache_hits,
            "cache_hit_ratio": stats.cache_hit_ratio,
            "points_returned": stats.points_returned,
            "simulated_seconds": stats.simulated_seconds,
        }

    def _get_stats(self, request: dict) -> dict:
        """The full metrics registry; ``format: "prometheus"`` for text."""
        fmt = request.get("format", "json")
        if fmt == "prometheus":
            return {
                "status": "ok",
                "content_type": PROMETHEUS_CONTENT_TYPE,
                "body": self._mediator.metrics.render_prometheus(),
            }
        if fmt != "json":
            raise BadRequestError("format must be 'json' or 'prometheus'")
        statistics = self._get_statistics(request)
        del statistics["status"]
        return {
            "status": "ok",
            "metrics": self._mediator.metrics.to_dict(),
            "statistics": statistics,
        }

    def _get_trace(self, request: dict) -> dict:
        """One query's recorded span tree, by query id."""
        query_id = read_field(request, "query_id", "str")
        collector = tracing.collector()
        if collector is None:
            raise WebServiceError(
                "tracing_disabled",
                "no trace collector is installed; call repro.obs.install()",
            )
        spans = collector.trace(query_id)
        if not spans:
            raise WebServiceError(
                "unknown_trace",
                f"no trace recorded for query {query_id!r}",
            )
        # Per-node wall seconds of the stitched remote subtrees: each
        # grafted span is tagged origin=nodeN, and the node's own
        # server.request span brackets everything it did for this query.
        attribution: dict[str, float] = {}
        for span in spans:
            origin = span.attributes.get("origin")
            if isinstance(origin, str) and span.name == "server.request":
                attribution[origin] = (
                    attribution.get(origin, 0.0) + span.wall_seconds
                )
        return {
            "status": "ok",
            "query_id": query_id,
            "spans": [span.to_json() for span in spans],
            "category_totals": tracing.category_totals(spans),
            "node_attribution": attribution,
            "tree": tracing.render_tree(spans),
        }

    def _list_datasets(self, request: dict) -> dict:
        return {"status": "ok", "datasets": self._mediator.dataset_names()}

    # -- validation ---------------------------------------------------------------

    @staticmethod
    def _processes(request: dict) -> int:
        value = request.get("processes", 4)
        if type(value) is not int or not 1 <= value <= MAX_PROCESSES:
            raise BadRequestError(f"processes must be an integer in 1..{MAX_PROCESSES}")
        return value
