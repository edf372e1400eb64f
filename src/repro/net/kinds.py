"""The query-kind table: the one place that knows how kinds differ.

The mediator does the same thing for every request — split by spatial
layout, submit each part to the node holding the data, assemble (paper
§2) — and so does every layer under it.  What differs between a
threshold, a batched threshold, a PDF and a top-k query is captured
here once, as a :class:`QueryKind`: the query dataclass whose record
is the request (:func:`repro.core.query.parse` reads it, at the door
and at the node alike), how the per-node result crosses the wire,
which node function evaluates a part, which region the query scatters
over, which ledger a part reports, and how the mediator assembles the
parts into the public result.  The mediator, both transports and the
node server each run one generic path over :data:`KINDS`.

Adding a kind is one entry in that dict (see DESIGN.md, "Adding a
query kind"); no other module of the scatter path names a kind.

This module sits directly above :mod:`repro.core` and
:mod:`repro.net.codec` and imports nothing higher.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.batch import BatchThresholdResult
from repro.core.cache import SemanticCache
from repro.core.executor import NodeExecutor
from repro.core.limits import MAX_RESULT_POINTS, ThresholdTooLowError
from repro.core.pdf import NodePdfResult, get_pdf_on_node
from repro.core.pointset import merge_sorted_runs, points_json
from repro.core.query import (
    PdfQuery,
    PdfResult,
    RenderedThresholdResult,
    ThresholdQuery,
    ThresholdResult,
    TopKQuery,
    TopKResult,
    parse,
    read_field,
    to_record,
)
from repro.core.threshold import (
    NodeThresholdResult,
    RenderedPart,
    get_batch_on_node,
    get_threshold_on_node,
)
from repro.core.topk import NodeTopKResult, get_topk_on_node
from repro.costmodel import Category, ClusterSpec, CostLedger
from repro.costmodel.ledger import METER_RESULT_POINTS
from repro.fields.derived import FieldRegistry
from repro.grid import Box
from repro.net import codec
from repro.net.frame import Buffer
from repro.obs import tracing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import DatabaseNode
    from repro.core.pdfcache import PdfCache

#: The per-part options a request header may carry, with the value a
#: node server assumes when the caller sent none.
OPTION_DEFAULTS: Mapping[str, "bool | int"] = {
    "use_cache": True,
    "processes": 1,
    "io_only": False,
    "render": False,
    "max_points": MAX_RESULT_POINTS,
}

@dataclass(frozen=True)
class NodeContext:
    """One node's evaluation state, as every kind's node function sees it.

    ``cache`` and ``pdf_cache`` are ``None`` on a cluster built without
    caches; a kind's ``run`` additionally ignores them when the caller
    passed ``use_cache=False``.
    """

    node: "DatabaseNode"
    executor: NodeExecutor
    cache: SemanticCache | None
    pdf_cache: "PdfCache | None"
    registry: FieldRegistry


@dataclass(frozen=True)
class Gather:
    """The mediator's side of one query, handed to ``assemble``.

    ``ledger`` is already the parallel roll-up of the part ledgers; the
    assemble step adds the network phases and result meters to it.
    """

    query_id: str
    node_count: int
    spec: ClusterSpec
    ledger: CostLedger
    max_points: int

    def charge_networks(self, result_points: int) -> None:
        """Charge the mediator<->node (LAN) and mediator<->user (WAN,
        XML-inflated) transfers of ``result_points`` result records."""
        result_bytes = result_points * self.spec.point_record_bytes
        self.ledger.charge(
            Category.MEDIATOR_DB,
            self.spec.lan.transfer_time(
                result_bytes, round_trips=self.node_count
            ),
        )
        self.ledger.charge(
            Category.MEDIATOR_USER, self.spec.wan.transfer_time(result_bytes)
        )


@dataclass(frozen=True)
class Assembled:
    """An assembled query: the public result plus what the mediator
    folds into its metrics and :class:`ServiceStatistics`.

    ``served`` holds one ``(participating nodes, node cache hits,
    points)`` row per threshold answer delivered — one for a threshold
    query, one per query of a batch, none for kinds the service
    statistics do not count.
    """

    result: Any
    points: int
    fanout: int
    node_hits: int = 0
    node_misses: int = 0
    served: Sequence[tuple[int, int, int]] = ()


@dataclass(frozen=True)
class QueryKind:
    """Everything that differs between query kinds, and nothing else.

    Attributes:
        name: the wire method name; also the ``queries_total{kind}``
            label and the ``query.<name>`` span suffix.
        request: the query dataclass, the schema of the request's record.
        many: the request is a list of such records, not one.
        request_key: header key the request travels under.
        options: which of :data:`OPTION_DEFAULTS` a part takes, in
            header order.
        run: the node function, normalised to ``run(context, request,
            boxes, **options)`` -> part (``use_cache=False`` hides the
            context's caches from it).
        result_to_wire: part -> the RESPONSE's ``(header, blobs)``.
        result_from_wire: ``(header, blobs)`` -> part.
        region: request -> ``(dataset, box)`` the kind scatters over
            (``None`` = the whole domain).
        part_ledger: part -> the ledger that part reports.
        span_attributes: request -> attributes of the root span.
        assemble: ``(gather, request, parts)`` -> :class:`Assembled`.
    """

    name: str
    request: type
    run: Callable[..., Any]
    result_to_wire: Callable[[Any], tuple[dict, list[bytes]]]
    result_from_wire: Callable[[dict, Sequence[Buffer]], Any]
    region: Callable[[Any], tuple[str, Box | None]]
    span_attributes: Callable[[Any], dict]
    assemble: Callable[[Gather, Any, list], Assembled]
    many: bool = False
    request_key: str = "query"
    options: tuple[str, ...] = ("use_cache", "processes")
    part_ledger: Callable[[Any], CostLedger] = attrgetter("ledger")

    def request_header(
        self, request: Any, boxes: Sequence[Box], options: Mapping[str, Any]
    ) -> dict:
        """The REQUEST header of one node part."""
        return {
            self.request_key: (
                [to_record(q) for q in request] if self.many else to_record(request)
            ),
            "boxes": codec.boxes_to_wire(boxes),
            **{name: options[name] for name in self.options},
        }

    def parse_request(self, header: dict) -> tuple[Any, list[Box], dict]:
        """``(request, boxes, options)`` from a REQUEST header; a
        malformed one is a :class:`~repro.core.query.BadRequestError`."""
        key = self.request_key
        request = (
            [parse(self.request, record) for record in read_field(header, key, "list")]
            if self.many else parse(self.request, header.get(key))
        )
        options = {
            name: read_field(header, name, type(default).__name__, default)
            for name, default in OPTION_DEFAULTS.items() if name in self.options
        }
        return request, read_field(header, "boxes", "list[Box]"), options


# -- mediator-side assembly ---------------------------------------------------


def _participating(parts: Sequence[NodeThresholdResult]) -> int:
    """Node shares that did any work for a threshold answer."""
    return sum(
        1 for part in parts
        if len(part) or part.boxes_evaluated or part.cache_hit
    )


def _merge_threshold(
    gather: Gather, parts: "Sequence[NodeThresholdResult | RenderedPart]"
) -> "ThresholdResult | RenderedThresholdResult":
    """One threshold answer from its per-node shares, limit enforced."""
    total = sum(len(part) for part in parts)
    if total > gather.max_points:
        raise ThresholdTooLowError(total, gather.max_points)
    hits = sum(1 for part in parts if part.cache_hit)
    # Nodes own disjoint curve spans gathered in node order, so this is
    # a plain concatenation on the fast path, of columns or of JSON.
    if isinstance(parts[0], RenderedPart):
        fragments = [part.fragment for part in parts if len(part)]
        return RenderedThresholdResult(
            total, fragments, gather.ledger, hits, gather.query_id
        )
    zindexes, values = merge_sorted_runs(
        [(part.zindexes, part.values) for part in parts]
    )
    return ThresholdResult(
        zindexes, values, gather.ledger, cache_hits=hits,
        nodes=gather.node_count, query_id=gather.query_id,
    )


def _assemble_threshold(
    gather: Gather, query: ThresholdQuery, parts: list[NodeThresholdResult]
) -> Assembled:
    result = _merge_threshold(gather, parts)
    gather.charge_networks(len(result))
    gather.ledger.count(METER_RESULT_POINTS, len(result))
    participating, hits = _participating(parts), result.cache_hits
    return Assembled(
        result, len(result), fanout=participating,
        node_hits=hits, node_misses=participating - hits,
        served=[(participating, hits, len(result))],
    )


def _assemble_batch(
    gather: Gather,
    queries: list[ThresholdQuery],
    parts: list[list[NodeThresholdResult]],
) -> Assembled:
    # Per query, the same merge as a lone threshold query over that
    # query's share of every node's batch part.
    shares = [[per_node[i] for per_node in parts] for i in range(len(queries))]
    results = [_merge_threshold(gather, share) for share in shares]
    total = sum(len(result) for result in results)
    gather.charge_networks(total)
    gather.ledger.count(METER_RESULT_POINTS, total)
    return Assembled(
        BatchThresholdResult(results, gather.ledger), total,
        fanout=len(parts),
        served=[
            (_participating(share), result.cache_hits, len(result))
            for share, result in zip(shares, results)
        ],
    )


def _assemble_pdf(
    gather: Gather, query: PdfQuery, parts: list[NodePdfResult]
) -> Assembled:
    counts = sum(part.counts for part in parts)
    # A PDF response is a handful of numbers; charge latency only.
    gather.charge_networks(0)
    result = PdfResult(
        counts, query.bin_edges, gather.ledger, query_id=gather.query_id
    )
    return Assembled(result, 0, fanout=len(parts))


def _assemble_topk(
    gather: Gather, query: TopKQuery, parts: list[NodeTopKResult]
) -> Assembled:
    zindexes = np.concatenate([part.zindexes for part in parts])
    values = np.concatenate([part.values for part in parts])
    if len(values) > query.k:
        keep = np.argpartition(values, -query.k)[-query.k :]
        zindexes, values = zindexes[keep], values[keep]
    order = np.argsort(values)[::-1]
    gather.charge_networks(len(values))
    result = TopKResult(
        zindexes[order], values[order], gather.ledger,
        query_id=gather.query_id,
    )
    return Assembled(result, len(values), fanout=len(parts))


def _threshold_part(
    ctx: NodeContext, query: ThresholdQuery, boxes: list[Box], *,
    use_cache: bool, render: bool, max_points: int, **options: Any,
) -> "NodeThresholdResult | RenderedPart":
    """Algorithm 1 over the node's boxes; with ``render``, the share's JSON.

    A share over the query's limit ships its count alone, with nothing
    rendered or encoded: the mediator refuses the answer on the counts.
    """
    part = get_threshold_on_node(
        ctx.node, ctx.executor, ctx.cache if use_cache else None,
        ctx.registry, query, boxes, render=render, **options,
    )
    if len(part) > max_points:
        fragment = b""
    elif render:
        with tracing.span(
            "node.render", points=len(part), cached_points=part.held_text
        ) as span:
            fragment = points_json(part.zindexes, part.text)
            span.set("bytes", len(fragment))
    else:
        return part
    return RenderedPart(
        len(part), fragment, part.ledger,
        part.cache_hit, part.boxes_evaluated, part.cache_stored,
    )


# -- the table ----------------------------------------------------------------

KINDS: dict[str, QueryKind] = {
    kind.name: kind
    for kind in (
        QueryKind(
            name="threshold",
            options=(
                "use_cache", "processes", "io_only", "render", "max_points",
            ),
            request=ThresholdQuery,
            run=_threshold_part,
            result_to_wire=codec.threshold_result_to_wire,
            result_from_wire=codec.threshold_result_from_wire,
            region=lambda query: (query.dataset, query.box),
            span_attributes=lambda query: {
                "dataset": query.dataset, "field": query.field,
                "timestep": query.timestep, "threshold": query.threshold,
            },
            assemble=_assemble_threshold,
        ),
        QueryKind(
            name="batch_threshold",
            request=ThresholdQuery,
            many=True,
            request_key="queries",
            run=lambda ctx, queries, boxes, *, use_cache, **options: (
                get_batch_on_node(
                    ctx.node, ctx.executor, ctx.cache if use_cache else None,
                    ctx.registry, queries, boxes, **options,
                )
            ),
            result_to_wire=codec.batch_results_to_wire,
            result_from_wire=codec.batch_results_from_wire,
            region=lambda queries: (queries[0].dataset, queries[0].box),
            # One shared ledger across the batch: the first item's.
            part_ledger=lambda parts: parts[0].ledger,
            span_attributes=lambda queries: {
                "dataset": queries[0].dataset, "queries": len(queries),
            },
            assemble=_assemble_batch,
        ),
        QueryKind(
            name="pdf",
            request=PdfQuery,
            run=lambda ctx, query, boxes, *, use_cache, **options: (
                get_pdf_on_node(
                    ctx.node, ctx.executor, ctx.registry, query, boxes,
                    pdf_cache=ctx.pdf_cache if use_cache else None, **options,
                )
            ),
            result_to_wire=codec.pdf_result_to_wire,
            result_from_wire=codec.pdf_result_from_wire,
            region=lambda query: (query.dataset, None),
            span_attributes=lambda query: {
                "dataset": query.dataset, "field": query.field,
                "timestep": query.timestep,
            },
            assemble=_assemble_pdf,
        ),
        QueryKind(
            name="topk",
            request=TopKQuery,
            run=lambda ctx, query, boxes, *, use_cache, **options: (
                get_topk_on_node(
                    ctx.node, ctx.executor, ctx.registry, query, boxes,
                    cache=ctx.cache if use_cache else None, **options,
                )
            ),
            result_to_wire=codec.topk_result_to_wire,
            result_from_wire=codec.topk_result_from_wire,
            region=lambda query: (query.dataset, None),
            span_attributes=lambda query: {
                "dataset": query.dataset, "field": query.field,
                "timestep": query.timestep, "k": query.k,
            },
            assemble=_assemble_topk,
        ),
    )
}
