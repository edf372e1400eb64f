"""Typed metrics: counters, gauges, histograms, with labels and exporters.

A :class:`MetricsRegistry` names a family of instruments.  Instruments
are cheap, thread-safe and label-aware: ``registry.counter(...)`` returns
the family, ``family.labels(kind="threshold")`` a concrete series.  For
hot-path statistics the engine already tracks as plain integers (buffer-
pool hits, B+-tree splits...), :meth:`MetricsRegistry.gauge_callback`
registers a sampling function evaluated only at export time, so the hot
path pays nothing.

Exports come in two shapes: :meth:`MetricsRegistry.render_prometheus`
(the text exposition format scraped by ``GET /stats``) and
:meth:`MetricsRegistry.to_dict` (JSON-able, used by the dictionary web
service and the BENCH history files).

Label cardinality is bounded per family (``max_series``); exceeding it
raises instead of silently growing without limit — instrument call sites
must map unbounded inputs (user strings, paths) to a closed label set.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Callable, Iterator, Mapping, Sequence

from repro.obs import clock

#: Default ceiling on distinct label-value combinations per family.
DEFAULT_MAX_SERIES = 256

#: Default histogram buckets (upper bounds, seconds-flavoured).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(text: str) -> str:
    """Escape HELP text per the exposition format (backslash, newline).

    A raw newline in help text would otherwise split the comment line
    and corrupt everything after it for scrapers.
    """
    return text.replace("\\", r"\\").replace("\n", r"\n")


class Counter:
    """A monotonically-increasing series."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The counter's current total."""
        with self._lock:
            return self._value


class Gauge:
    """A series that can go up and down."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to an absolute value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """The gauge's current value."""
        with self._lock:
            return self._value


class Histogram:
    """A distribution summarised by fixed buckets plus sum and count.

    Buckets are upper bounds; observations above the last bound land in
    the implicit ``+Inf`` bucket.  Export renders cumulative counts in
    the Prometheus style.

    An observation may carry an **exemplar** — a trace id sampled into
    the bucket it landed in (last write wins per bucket).  Exemplars
    are the join key from latency percentiles back to distributed
    traces: the p99 bucket of ``rpc_latency_seconds`` names a concrete
    trace whose stitched tree explains the tail.
    """

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._exemplars: list[tuple[str, float, float] | None] = [None] * (
            len(bounds) + 1
        )

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record one observation, optionally tagged with a trace id."""
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            if exemplar is not None:
                self._exemplars[idx] = (exemplar, value, clock.unix_now())

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        """Number of observations."""
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        """Mean observation, or ``0.0`` before the first one.

        Handy for ratio-style histograms (``net_compression_ratio``)
        where the average is the headline number.
        """
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> dict[str, int]:
        """Cumulative count per upper bound (Prometheus ``le`` semantics)."""
        with self._lock:
            counts = list(self._counts)
        out: dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out[repr(bound)] = running
        out["+Inf"] = running + counts[-1]
        return out

    def exemplars(self) -> dict[str, tuple[str, float, float]]:
        """Per-bucket exemplars: ``le`` bound → (trace id, value, unix ts)."""
        with self._lock:
            records = list(self._exemplars)
        out: dict[str, tuple[str, float, float]] = {}
        for bound, record in zip(self.buckets, records):
            if record is not None:
                out[repr(bound)] = record
        if records[-1] is not None:
            out["+Inf"] = records[-1]
        return out


class MetricFamily:
    """A named instrument family: one series per label-value combination.

    Obtained from the registry's :meth:`~MetricsRegistry.counter`,
    :meth:`~MetricsRegistry.gauge` or :meth:`~MetricsRegistry.histogram`.
    Families without labels delegate the series API (``inc``/``set``/
    ``observe``...) directly, so ``registry.counter("x").inc()`` works.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        factory: Callable[[], Counter | Gauge | Histogram],
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = tuple(labelnames)
        self._factory = factory
        self._max_series = max_series
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        if not self.labelnames:
            self._series[()] = factory()

    def labels(self, **labels: object):
        """The series for one label-value combination (created on demand).

        Raises:
            ValueError: on wrong label names, or when creating the series
                would exceed the family's ``max_series`` cardinality cap.
        """
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if len(self._series) >= self._max_series:
                    raise ValueError(
                        f"metric {self.name!r} exceeds its cardinality cap "
                        f"of {self._max_series} series"
                    )
                series = self._factory()
                self._series[key] = series
            return series

    def _unlabelled(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} has labels {self.labelnames}; "
                "select a series with .labels(...)"
            )
        return self._series[()]

    def inc(self, amount: float = 1.0) -> None:
        """``inc`` on the single series of a label-less family."""
        self._unlabelled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """``dec`` on the single series of a label-less gauge family."""
        self._unlabelled().dec(amount)

    def set(self, value: float) -> None:
        """``set`` on the single series of a label-less gauge family."""
        self._unlabelled().set(value)

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """``observe`` on the single series of a label-less histogram."""
        self._unlabelled().observe(value, exemplar)

    def exemplars(self) -> dict[str, tuple[str, float, float]]:
        """``exemplars`` of the single series of a label-less histogram."""
        return self._unlabelled().exemplars()  # type: ignore[union-attr]

    @property
    def value(self) -> float:
        """Value of the single series of a label-less counter/gauge."""
        return self._unlabelled().value

    @property
    def sum(self) -> float:
        """``sum`` of the single series of a label-less histogram."""
        return self._unlabelled().sum

    @property
    def count(self) -> int:
        """``count`` of the single series of a label-less histogram."""
        return self._unlabelled().count

    def series(self) -> Iterator[tuple[tuple[str, ...], Counter | Gauge | Histogram]]:
        """Snapshot of ``(label_values, series)`` pairs."""
        with self._lock:
            return iter(list(self._series.items()))


class MetricsRegistry:
    """A namespace of instrument families plus sampling callbacks.

    One registry per observed system (each :class:`~repro.cluster.mediator.
    Mediator` owns its own), so concurrent clusters in one process never
    collide on metric names.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        self._callbacks: dict[str, tuple[Callable[[], float], str]] = {}

    # -- instrument creation ------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        factory: Callable[[], Counter | Gauge | Histogram],
        max_series: int,
    ) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            if name in self._callbacks:
                raise ValueError(f"metric {name!r} already registered as callback")
            family = MetricFamily(name, kind, help, labelnames, factory, max_series)
            self._families[name] = family
            return family

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> MetricFamily:
        """Create (or fetch, idempotently) a counter family."""
        return self._family(name, "counter", help, labelnames, Counter, max_series)

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> MetricFamily:
        """Create (or fetch, idempotently) a gauge family."""
        return self._family(name, "gauge", help, labelnames, Gauge, max_series)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> MetricFamily:
        """Create (or fetch, idempotently) a histogram family."""
        bounds = tuple(buckets)
        return self._family(
            name, "histogram", help, labelnames,
            lambda: Histogram(bounds), max_series,
        )

    def gauge_callback(
        self, name: str, fn: Callable[[], float], help: str = ""
    ) -> None:
        """Register a gauge sampled by calling ``fn`` at export time.

        This is the zero-overhead path for statistics the engine already
        keeps as plain attributes (buffer-pool hit counts, MVCC
        counters): nothing happens until someone scrapes.
        """
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            if name in self._families or name in self._callbacks:
                raise ValueError(f"metric {name!r} already registered")
            self._callbacks[name] = (fn, help)

    # -- introspection -------------------------------------------------------

    def get(self, name: str) -> MetricFamily:
        """Look up a family by name.  Raises :class:`KeyError` if absent."""
        with self._lock:
            return self._families[name]

    def names(self) -> list[str]:
        """All registered metric names (families and callbacks), sorted."""
        with self._lock:
            return sorted([*self._families, *self._callbacks])

    # -- export --------------------------------------------------------------

    def _snapshot(self) -> tuple[list[MetricFamily], dict[str, tuple[Callable[[], float], str]]]:
        with self._lock:
            return list(self._families.values()), dict(self._callbacks)

    def to_dict(self) -> dict[str, dict]:
        """A JSON-able snapshot of every metric."""
        families, callbacks = self._snapshot()
        out: dict[str, dict] = {}
        for family in sorted(families, key=lambda f: f.name):
            samples = []
            for label_values, series in family.series():
                labels = dict(zip(family.labelnames, label_values))
                if isinstance(series, Histogram):
                    sample: dict = {
                        "labels": labels,
                        "buckets": series.bucket_counts(),
                        "sum": series.sum,
                        "count": series.count,
                    }
                    exemplars = series.exemplars()
                    if exemplars:
                        sample["exemplars"] = {
                            bound: {
                                "trace_id": trace_id,
                                "value": value,
                                "timestamp": stamp,
                            }
                            for bound, (trace_id, value, stamp)
                            in exemplars.items()
                        }
                    samples.append(sample)
                else:
                    samples.append({"labels": labels, "value": series.value})
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "samples": samples,
            }
        for name in sorted(callbacks):
            fn, help = callbacks[name]
            out[name] = {
                "kind": "gauge",
                "help": help,
                "samples": [{"labels": {}, "value": float(fn())}],
            }
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format for every metric.

        ``# HELP``/``# TYPE`` comment lines are emitted exactly once per
        family (however many labelled series it holds), help text and
        label values are escaped per the exposition format, and bucket
        lines carry OpenMetrics-style exemplars when the histogram
        recorded any.
        """
        families, callbacks = self._snapshot()
        lines: list[str] = []
        for family in sorted(families, key=lambda f: f.name):
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for label_values, series in family.series():
                labels = dict(zip(family.labelnames, label_values))
                if isinstance(series, Histogram):
                    exemplars = series.exemplars()
                    for bound, count in series.bucket_counts().items():
                        bucket_labels = {**labels, "le": bound}
                        line = (
                            f"{family.name}_bucket"
                            f"{_render_labels(bucket_labels)} {count}"
                        )
                        exemplar = exemplars.get(bound)
                        if exemplar is not None:
                            trace_id, value, stamp = exemplar
                            line += (
                                f" # {{trace_id=\""
                                f"{_escape_label_value(trace_id)}\"}} "
                                f"{value} {stamp}"
                            )
                        lines.append(line)
                    lines.append(
                        f"{family.name}_sum{_render_labels(labels)} {series.sum}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(labels)} {series.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(labels)} {series.value}"
                    )
        for name in sorted(callbacks):
            fn, help = callbacks[name]
            lines.append(f"# HELP {name} {_escape_help(help)}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {float(fn())}")
        return "\n".join(lines) + "\n"


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + body + "}"


class timed:
    """Context manager observing its body's wall time into a histogram.

    The wall-clock read happens here, inside ``repro.obs`` — call sites
    elsewhere in the engine stay clean under OBS01::

        with timed(latency.labels(method="GetThreshold")):
            handle(request)
    """

    __slots__ = ("_instrument", "_start")

    def __init__(self, instrument: Histogram | MetricFamily) -> None:
        self._instrument = instrument
        self._start = 0.0

    def __enter__(self) -> "timed":
        self._start = clock.now()
        return self

    def __exit__(self, *exc: object) -> None:
        self._instrument.observe(clock.now() - self._start)
