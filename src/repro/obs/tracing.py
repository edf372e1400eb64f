"""Hierarchical query tracing: spans, context propagation, collection.

A :class:`Span` covers one phase of a query (the whole query, one node
part, a cache probe, a slab's raw I/O...).  Spans carry *two* clocks:

* wall time (start/end via :mod:`repro.obs.clock`) — what the process
  actually did;
* an attached :class:`~repro.costmodel.ledger.CostLedger` snapshot —
  the *simulated* seconds the paper's evaluation reasons about, broken
  down into the Figure-9 categories (cache-lookup / I/O / compute /
  mediator-db / mediator-user).

Spans nest through a :mod:`contextvars` variable, so concurrently
executing queries (and the mediator's node parts, each run under a
copied context) build separate trees.  With no
collector installed the module-level :data:`TRACER` hands out a shared
no-op span: instrumentation costs one attribute check per call site.

Finished spans go to a :class:`TraceCollector`, which keeps a bounded
ring of recent traces keyed by trace id (the mediator's query id) and
exports them as JSON lines — the format ``python -m repro.obs`` renders
back into a tree.

Traces also cross process boundaries.  A :class:`SpanContext` is the
wire-portable identity of an open span (trace id, span id, sampling
flag): the RPC client injects it into the request header, the node
server installs it with :func:`remote_request` so every server-side
span parents under the originating mediator span, and the finished
spans ship back piggybacked on the response, where
:func:`absorb_remote` grafts them into the local trace — remapping
span ids (every process numbers its own), re-anchoring orphans, and
aligning the remote clock with a midpoint skew offset
(:func:`clock_skew_offset`), since ``clock.now()`` has an arbitrary
per-process basis.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, Iterator
from contextlib import contextmanager

from repro.obs import clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.costmodel import CostLedger

#: The innermost open span of the current execution context.
_CURRENT_SPAN: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_span", default=None
)

#: Per-request buffer for spans finished while serving a *remote* trace
#: context (node-server processes run no collector; see remote_request).
_SPAN_SINK: contextvars.ContextVar["SpanBuffer | None"] = contextvars.ContextVar(
    "repro_obs_span_sink", default=None
)


class Span:
    """One timed phase of a query, linked into a trace tree.

    Use as a context manager (turblint OBS01 enforces this — it is what
    guarantees every span closes on every path)::

        with tracer.span("cache.lookup", category="cache_lookup") as span:
            ...
            span.attach_ledger(ledger)
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "category",
        "start", "end", "attributes", "breakdown", "meters", "thread",
        "_tracer", "_token",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: int,
        parent_id: int | None,
        name: str,
        category: str | None,
        attributes: dict[str, object],
        tracer: "Tracer | None" = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = 0.0
        self.end: float | None = None
        self.attributes = attributes
        self.breakdown: dict[str, float] | None = None
        self.meters: dict[str, float] | None = None
        self.thread = ""
        self._tracer = tracer
        self._token: contextvars.Token | None = None

    @property
    def wall_seconds(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, key: str, value: object) -> None:
        """Attach one attribute to the span."""
        self.attributes[key] = value

    def attach_ledger(self, ledger: "CostLedger") -> None:
        """Snapshot a ledger's per-category seconds and meters onto the span.

        The snapshot copies, so later charges to the ledger do not
        retroactively alter the recorded span.
        """
        self.breakdown = ledger.breakdown()
        self.meters = {
            name: ledger.meter(name)
            for name in ("io_bytes", "io_seeks", "cache_bytes",
                         "compute_units", "result_points",
                         "halo_seconds", "halo_bytes")
            if ledger.meter(name)
        }

    def __enter__(self) -> "Span":
        self.start = clock.now()
        self.thread = threading.current_thread().name
        self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, *exc: object) -> None:
        self.end = clock.now()
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        sink = _SPAN_SINK.get()
        if sink is not None:
            sink.record(self)
        elif self._tracer is not None and self._tracer._collector is not None:
            self._tracer._collector.record(self)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict[str, object]:
        """A JSON-able record of the finished span."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "thread": self.thread,
            "attributes": self.attributes,
            "breakdown": self.breakdown,
            "meters": self.meters,
        }

    @classmethod
    def from_json(cls, record: dict[str, object]) -> "Span":
        """Rebuild a span from :meth:`to_json` output."""
        span = cls(
            trace_id=str(record["trace_id"]),
            span_id=int(record["span_id"]),  # type: ignore[arg-type]
            parent_id=(
                None if record.get("parent_id") is None
                else int(record["parent_id"])  # type: ignore[arg-type]
            ),
            name=str(record["name"]),
            category=(
                None if record.get("category") is None
                else str(record["category"])
            ),
            attributes=dict(record.get("attributes") or {}),  # type: ignore[arg-type]
        )
        span.start = float(record.get("start") or 0.0)  # type: ignore[arg-type]
        span.end = (
            None if record.get("end") is None
            else float(record["end"])  # type: ignore[arg-type]
        )
        span.thread = str(record.get("thread") or "")
        breakdown = record.get("breakdown")
        span.breakdown = None if breakdown is None else dict(breakdown)  # type: ignore[arg-type]
        meters = record.get("meters")
        span.meters = None if meters is None else dict(meters)  # type: ignore[arg-type]
        return span


class _NoopSpan:
    """The shared do-nothing span handed out when no collector is installed."""

    __slots__ = ()

    #: Identity fields, so instrumentation reading ``span.trace_id``
    #: (e.g. for metric exemplars) works against the no-op span too.
    trace_id = ""
    span_id = 0
    parent_id = None
    name = ""

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, key: str, value: object) -> None:
        """No-op."""

    def attach_ledger(self, ledger: "CostLedger") -> None:
        """No-op."""


_NOOP_SPAN = _NoopSpan()


class SpanContext:
    """The wire-portable identity of an open span.

    What crosses a process boundary: enough for the far side to parent
    its spans under ours (``trace_id`` + ``span_id``) plus the sampling
    flag that tells it whether to bother capturing at all.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: int, sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    def to_wire(self) -> dict[str, object]:
        """The JSON-header encoding carried by protocol-v2 messages."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_wire(cls, record: object) -> "SpanContext | None":
        """Parse a wire encoding; ``None`` for absent/malformed records."""
        if not isinstance(record, dict):
            return None
        trace_id = record.get("trace_id")
        span_id = record.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, int):
            return None
        return cls(trace_id, span_id, bool(record.get("sampled", True)))


class SpanBuffer:
    """Collects the spans finished while serving one remote request.

    Node-server processes run no :class:`TraceCollector`; spans opened
    under an installed remote context land here instead (thread-safe —
    a request may finish spans on several threads) and ship back to the
    caller piggybacked on the response.
    """

    __slots__ = ("_lock", "_spans")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    def record(self, span: "Span") -> None:
        """Store one finished span (the sink analogue of a collector)."""
        with self._lock:
            self._spans.append(span)

    def spans(self) -> "list[Span]":
        """Snapshot of the buffered spans."""
        with self._lock:
            return list(self._spans)

    def to_wire(self) -> list[dict[str, object]]:
        """The buffered spans as JSON records, ready to piggyback."""
        return [span.to_json() for span in self.spans()]


@contextmanager
def remote_request(
    context: "SpanContext | None",
) -> "Iterator[SpanBuffer | None]":
    """Serve one request under a remote caller's trace context.

    Installs a synthetic parent carrying the remote ``trace_id``/
    ``span_id`` and a :class:`SpanBuffer` sink, so every span the
    request opens (executor, cache, storage, halo) is captured *without
    a collector* and parents under the originating span.  Yields the
    buffer — or ``None`` (and changes nothing) when the caller sent no
    context or flagged the request unsampled, which keeps the untraced
    hot path free of contextvar churn.
    """
    if context is None or not context.sampled:
        yield None
        return
    parent = Span(
        trace_id=context.trace_id,
        span_id=context.span_id,
        parent_id=None,
        name="<remote-parent>",
        category=None,
        attributes={},
    )
    buffer = SpanBuffer()
    span_token = _CURRENT_SPAN.set(parent)
    sink_token = _SPAN_SINK.set(buffer)
    try:
        yield buffer
    finally:
        _SPAN_SINK.reset(sink_token)
        _CURRENT_SPAN.reset(span_token)


class TraceCollector:
    """A bounded ring of finished spans grouped by trace id.

    Args:
        max_traces: oldest traces are evicted past this count.
    """

    def __init__(self, max_traces: int = 256) -> None:
        if max_traces < 1:
            raise ValueError("max_traces must be >= 1")
        self._max_traces = max_traces
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, list[Span]] = OrderedDict()

    def record(self, span: Span) -> None:
        """Store one finished span (called by the span's ``__exit__``)."""
        with self._lock:
            spans = self._traces.get(span.trace_id)
            if spans is None:
                spans = self._traces[span.trace_id] = []
                while len(self._traces) > self._max_traces:
                    self._traces.popitem(last=False)
            spans.append(span)

    def trace(self, trace_id: str) -> list[Span]:
        """All spans of one trace, ordered by start time (root first)."""
        with self._lock:
            spans = list(self._traces.get(trace_id, ()))
        return sorted(spans, key=lambda s: (s.start, s.span_id))

    def trace_ids(self) -> list[str]:
        """Known trace ids, oldest first."""
        with self._lock:
            return list(self._traces)

    def clear(self) -> None:
        """Drop every stored trace."""
        with self._lock:
            self._traces.clear()

    # -- serialization -------------------------------------------------------

    def to_jsonl(self, trace_id: str | None = None) -> str:
        """The stored spans as JSON lines (one span per line).

        Args:
            trace_id: restrict to one trace; default exports everything.
        """
        if trace_id is not None:
            spans = self.trace(trace_id)
        else:
            spans = [
                span for tid in self.trace_ids() for span in self.trace(tid)
            ]
        return "".join(json.dumps(span.to_json()) + "\n" for span in spans)

    @staticmethod
    def from_jsonl(text: str | Iterable[str]) -> list[Span]:
        """Parse JSON lines back into spans (inverse of :meth:`to_jsonl`)."""
        lines = text.splitlines() if isinstance(text, str) else text
        return [
            Span.from_json(json.loads(line))
            for line in lines
            if line.strip()
        ]


class Tracer:
    """Hands out spans; a no-op until a collector is installed."""

    def __init__(self) -> None:
        self._collector: TraceCollector | None = None
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        #: Whether outgoing RPCs ask the far side to capture spans.
        self.remote_sampling = True

    @property
    def enabled(self) -> bool:
        """Whether a collector is installed (spans are being recorded)."""
        return self._collector is not None

    def install(self, collector: TraceCollector) -> TraceCollector:
        """Start recording spans into ``collector``; returns it."""
        self._collector = collector
        return collector

    def uninstall(self) -> None:
        """Stop recording; subsequent spans are no-ops again."""
        self._collector = None

    @property
    def collector(self) -> TraceCollector | None:
        """The installed collector, if any."""
        return self._collector

    def new_trace_id(self) -> str:
        """A fresh query/trace id (issued even while tracing is off, so
        query ids stay stable whether or not a collector is watching)."""
        return f"q{next(self._trace_ids):06d}"

    def next_span_id(self) -> int:
        """A fresh span id — used when grafting remote spans, whose own
        ids come from another process's counter and may collide."""
        return next(self._span_ids)

    def span(
        self,
        name: str,
        category: str | None = None,
        trace_id: str | None = None,
        **attributes: object,
    ) -> Span | _NoopSpan:
        """Open a span nested under the context's current span.

        Args:
            name: phase name (``"query.threshold"``, ``"node.io"``...).
            category: the Figure-9 cost category this phase's wall time
                belongs to, when it maps to exactly one.
            trace_id: root spans of a query pass the query id; child
                spans inherit the parent's trace.
            **attributes: initial span attributes.

        Returns a shared no-op span when no collector is installed and
        no remote request is being served (see :func:`remote_request`).
        """
        if self._collector is None and _SPAN_SINK.get() is None:
            return _NOOP_SPAN
        parent = _CURRENT_SPAN.get()
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else self.new_trace_id()
        return Span(
            trace_id=trace_id,
            span_id=next(self._span_ids),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            attributes=dict(attributes),
            tracer=self,
        )


#: The process-wide tracer every engine tier reports through.
TRACER = Tracer()


def span(
    name: str,
    category: str | None = None,
    trace_id: str | None = None,
    **attributes: object,
) -> Span | _NoopSpan:
    """Open a span on the default tracer (see :meth:`Tracer.span`)."""
    return TRACER.span(name, category=category, trace_id=trace_id, **attributes)


def install(collector: TraceCollector | None = None) -> TraceCollector:
    """Install (and return) a collector on the default tracer."""
    return TRACER.install(collector or TraceCollector())


def uninstall() -> None:
    """Stop recording on the default tracer."""
    TRACER.uninstall()


def collector() -> TraceCollector | None:
    """The default tracer's installed collector, if any."""
    return TRACER.collector


def new_trace_id() -> str:
    """A fresh trace id from the default tracer."""
    return TRACER.new_trace_id()


def current_span() -> Span | None:
    """The innermost open span of this execution context, if any."""
    return _CURRENT_SPAN.get()


def current_context() -> SpanContext | None:
    """The open span's wire-portable context, for RPC header injection.

    ``None`` when no real span is open — untraced processes inject
    nothing, so the far side captures nothing.
    """
    span_ = _CURRENT_SPAN.get()
    if span_ is None:
        return None
    return SpanContext(span_.trace_id, span_.span_id, TRACER.remote_sampling)


def set_remote_sampling(enabled: bool) -> None:
    """Toggle whether outgoing RPCs request span capture on the far side.

    With sampling off, trace context still propagates (ids stay
    correlated) but node servers skip capture and ship nothing back —
    the knob load generators use to price the tracing overhead.
    """
    TRACER.remote_sampling = bool(enabled)


# -- cross-process stitching --------------------------------------------------


def clock_skew_offset(
    client_send: float,
    client_recv: float,
    server_recv: float,
    server_send: float,
) -> float:
    """Seconds to add to server clock readings to align with ours.

    ``clock.now()`` is ``perf_counter`` with an arbitrary per-process
    basis, so remote span times are meaningless locally until shifted.
    The classic NTP midpoint estimate: assume the request and response
    halves of the RPC took equally long, so the midpoint of the
    server's busy window maps onto the midpoint of the client's wait.
    The residual error is bounded by the one-way network asymmetry —
    microseconds on a LAN, far below span durations.
    """
    return ((client_send + client_recv) - (server_recv + server_send)) / 2.0


def graft_spans(
    records: Iterable[dict],
    *,
    parent: Span,
    clock_offset: float = 0.0,
    origin: str | None = None,
) -> list[Span]:
    """Stitch serialized remote spans into the local trace under ``parent``.

    Three fixups make the remote subtree a first-class citizen here:

    * **id remapping** — every process numbers spans from its own
      counter, so each grafted span gets a fresh local id (parent
      pointers inside the shipped set are rewritten consistently);
    * **re-anchoring** — a span whose parent is not in the shipped set
      (the far side's synthetic remote parent, or a span lost to a
      crash) attaches to ``parent`` instead of dangling;
    * **clock alignment** — start/end shift by ``clock_offset`` (see
      :func:`clock_skew_offset`).

    Each span is tagged ``origin=<origin>`` for per-node attribution
    and recorded into the active sink (when grafting inside another
    remote request, e.g. a transitive halo RPC) or the installed
    collector.  Returns the grafted spans.
    """
    spans = [Span.from_json(record) for record in records]
    mapping = {span_.span_id: TRACER.next_span_id() for span_ in spans}
    sink = _SPAN_SINK.get()
    collector_ = TRACER._collector
    for span_ in spans:
        span_.parent_id = mapping.get(span_.parent_id, parent.span_id)
        span_.span_id = mapping[span_.span_id]
        span_.trace_id = parent.trace_id
        span_.start += clock_offset
        if span_.end is not None:
            span_.end += clock_offset
        if origin is not None:
            span_.attributes.setdefault("origin", origin)
        if sink is not None:
            sink.record(span_)
        elif collector_ is not None:
            collector_.record(span_)
    return spans


def absorb_remote(
    payload: object, *, client_send: float, client_recv: float
) -> list[Span]:
    """Graft a response's piggybacked span payload into the local trace.

    ``payload`` is the ``"trace"`` record a node server attaches to its
    response header: ``{"node", "recv", "send", "spans"}``.  The server
    clock stamps plus the caller's send/receive stamps feed the skew
    model; the window the server reported is recorded on the enclosing
    span (``remote_node``/``remote_seconds``) so attribution checks can
    compare named remote work against true node-side wall time.
    """
    parent = _CURRENT_SPAN.get()
    if parent is None or not isinstance(payload, dict):
        return []
    records = payload.get("spans")
    if not isinstance(records, list):
        return []
    server_recv = float(payload.get("recv", client_send))
    server_send = float(payload.get("send", client_recv))
    offset = clock_skew_offset(
        client_send, client_recv, server_recv, server_send
    )
    node = payload.get("node")
    origin = None if node is None else f"node{node}"
    grafted = graft_spans(
        records, parent=parent, clock_offset=offset, origin=origin
    )
    if node is not None:
        parent.set("remote_node", node)
    parent.set("remote_seconds", max(0.0, server_send - server_recv))
    return grafted


def mark_orphaned(span_: "Span | _NoopSpan", reason: str) -> None:
    """Flag a span whose remote subtree was lost (killed node, timeout).

    The stitched tree then shows an explicitly-marked orphan instead of
    silently missing work — ``GET /trace/<id>`` consumers can tell "the
    node did nothing" from "the node died mid-flight".
    """
    span_.set("orphaned", True)
    span_.set("orphan_reason", reason)


# -- trace analysis -----------------------------------------------------------


def category_totals(spans: Iterable[Span]) -> dict[str, float]:
    """Per-category simulated seconds of a trace.

    The root span of a mediator query carries the query's final
    :class:`~repro.costmodel.ledger.CostLedger` (parallel-composed
    across nodes, plus the network phases), so its breakdown *is* the
    trace's total.  Without a ledger-bearing root the totals fall back
    to the maximum per category over ledger-bearing spans — the parallel
    composition rule of the cost model.
    """
    spans = list(spans)
    for span_ in spans:
        if span_.parent_id is None and span_.breakdown is not None:
            return dict(span_.breakdown)
    totals: dict[str, float] = {}
    for span_ in spans:
        if span_.breakdown is None:
            continue
        for category, seconds in span_.breakdown.items():
            totals[category] = max(totals.get(category, 0.0), seconds)
    return totals


def render_tree(spans: Iterable[Span]) -> str:
    """Render a trace's spans as an indented tree with both clocks.

    Each line shows the span name, key attributes, wall milliseconds and
    — when a ledger is attached — the simulated seconds per Figure-9
    category.
    """
    spans = sorted(spans, key=lambda s: (s.start, s.span_id))
    if not spans:
        return "(empty trace)"
    children: dict[int | None, list[Span]] = {}
    ids = {span_.span_id for span_ in spans}
    for span_ in spans:
        parent = span_.parent_id if span_.parent_id in ids else None
        children.setdefault(parent, []).append(span_)

    lines: list[str] = []

    def _draw(span_: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        lines.append(prefix + connector + _describe(span_))
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
        kids = children.get(span_.span_id, [])
        for i, kid in enumerate(kids):
            _draw(kid, child_prefix, i == len(kids) - 1, False)

    roots = children.get(None, [])
    for i, root in enumerate(roots):
        _draw(root, "", i == len(roots) - 1, True)
    return "\n".join(lines)


def _describe(span_: Span) -> str:
    parts = [span_.name]
    attrs = " ".join(
        f"{key}={value}" for key, value in sorted(span_.attributes.items())
    )
    if attrs:
        parts.append(attrs)
    parts.append(f"wall={span_.wall_seconds * 1e3:.2f}ms")
    if span_.category:
        parts.append(f"category={span_.category}")
    if span_.breakdown is not None:
        sim = " ".join(
            f"{category}={seconds:.4g}"
            for category, seconds in span_.breakdown.items()
            if seconds
        )
        total = sum(span_.breakdown.values())
        parts.append(f"sim={total:.4g}s [{sim}]")
    return "  ".join(parts)
