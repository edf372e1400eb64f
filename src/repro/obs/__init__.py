"""turbtrace: the engine's observability layer.

Three pillars, one package:

* :mod:`repro.obs.tracing` — hierarchical spans with context-local
  propagation, carrying both wall-clock and simulated
  (:class:`~repro.costmodel.ledger.CostLedger`) time;
* :mod:`repro.obs.metrics` — a typed counter/gauge/histogram registry
  with labels, a cardinality cap, and Prometheus-text + JSON export;
* :mod:`repro.obs.report` — the console sink every human-facing line
  goes through.

This package is also the engine's *sanctioned wall-clock boundary*:
turblint's OBS01 checker bans ``time.*`` and ``print``
everywhere else under ``repro.``, so every real-clock read and every
console write is auditable here (:mod:`repro.obs.clock`).

Instrumentation is near-zero-cost by default: the module-level
:data:`~repro.obs.tracing.TRACER` hands out a shared no-op span until
:func:`install` plugs in a :class:`TraceCollector`::

    from repro import obs

    trace = obs.install()               # start recording
    result = mediator.threshold(...)    # spans now collected
    obs.report(obs.render_tree(trace.trace(result.query_id)))
    obs.uninstall()
"""

from __future__ import annotations

from repro.obs.clock import Stopwatch
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    timed,
)
from repro.obs.report import ConsoleSink, get_stream, report, set_stream
from repro.obs.tracing import (
    TRACER,
    Span,
    SpanBuffer,
    SpanContext,
    TraceCollector,
    Tracer,
    absorb_remote,
    category_totals,
    clock_skew_offset,
    collector,
    current_context,
    current_span,
    graft_spans,
    install,
    mark_orphaned,
    new_trace_id,
    remote_request,
    render_tree,
    set_remote_sampling,
    span,
    uninstall,
)

__all__ = [
    "Stopwatch",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "timed",
    "ConsoleSink",
    "get_stream",
    "report",
    "set_stream",
    "TRACER",
    "Span",
    "SpanBuffer",
    "SpanContext",
    "TraceCollector",
    "Tracer",
    "absorb_remote",
    "category_totals",
    "clock_skew_offset",
    "collector",
    "current_context",
    "current_span",
    "graft_spans",
    "install",
    "mark_orphaned",
    "new_trace_id",
    "remote_request",
    "render_tree",
    "set_remote_sampling",
    "span",
    "uninstall",
]
