"""Admission control for the service front door.

The paper's database answers the open public; the ROADMAP's north star
is "heavy traffic from millions of users".  A public front door
survives that load only when overload has *defined* behaviour: every
request is either admitted — and then finishes with a correct answer —
or shed *early* with a typed, well-formed response telling the client
when to retry.  This module is that decision layer, kept free of any
transport so it can be unit-tested exhaustively:

* :class:`TokenBucket` — per-tenant request quotas (rate + burst);
* :class:`AdmissionController` — the queue-accounting state machine:
  quota check, bounded queue depth, *projected-wait* backpressure (an
  EWMA of recent service times turns queue depth into an expected wait,
  so the door sheds before the queue is hopeless, not after), and a
  hard wait budget applied when a request is finally dequeued;
* the :class:`ShedError` hierarchy — one typed error per shedding
  reason, each knowing its HTTP status (``429`` for quota, ``503`` for
  load) and carrying a ``retry_after_s`` hint.

Admission decisions are O(1) under one lock; the controller never
blocks, sleeps or touches a socket — queues and waiting live in the
transport (:mod:`repro.net.aio`), which consults this class at the
three points of a request's life: :meth:`~AdmissionController.admit`
on arrival, :meth:`~AdmissionController.start` when capacity frees up,
and :meth:`~AdmissionController.finish` when the answer is ready.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs import clock
from repro.obs.metrics import MetricsRegistry

#: Service methods answered from memory (no node fan-out); they ride a
#: higher queue priority so health checks and dashboards stay live
#: while heavy query traffic saturates the bridge.
LIGHT_METHODS = frozenset(
    {"ListFields", "ListDatasets", "GetStatistics", "GetStats", "GetTrace"}
)

#: Queue priorities, lower served first.
PRIORITY_LIGHT = 0
PRIORITY_QUERY = 1

#: Smallest retry hint ever issued; clients with sub-50ms retries would
#: hammer the door harder than the traffic being shed.
MIN_RETRY_AFTER_S = 0.05

#: EWMA smoothing for the per-request service-time estimate.
_SERVICE_EWMA_ALPHA = 0.2


def classify(method: str) -> tuple[str, int]:
    """``(class name, queue priority)`` for a service method name."""
    if method in LIGHT_METHODS:
        return "light", PRIORITY_LIGHT
    return "query", PRIORITY_QUERY


class ShedError(Exception):
    """A request refused (or abandoned) by admission control.

    Every shed is well-formed: the response dictionary always carries
    ``status``/``code``/``message``/``retry_after_s``, and the HTTP
    door maps :attr:`http_status` plus a ``Retry-After`` header onto
    it, so a client under overload never sees a hang, a reset or a
    truncated body — only a typed refusal it can back off from.
    """

    #: Wire-level error code; subclasses override.
    code = "overloaded"
    #: HTTP status the front door answers with.
    http_status = 503

    def __init__(self, message: str, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = max(MIN_RETRY_AFTER_S, retry_after_s)

    def to_response(self) -> dict:
        """The JSON-serializable shed response body."""
        return {
            "status": "error",
            "code": self.code,
            "message": str(self),
            "retry_after_s": round(self.retry_after_s, 3),
        }


class QuotaExceededError(ShedError):
    """The tenant's token bucket is empty — slow down (HTTP 429)."""

    code = "quota_exceeded"
    http_status = 429


class QueueFullError(ShedError):
    """Queue depth or projected wait over budget — shed at arrival."""

    code = "queue_full"
    http_status = 503


class QueueWaitExceededError(ShedError):
    """The request aged out while queued — shed at dequeue."""

    code = "queue_timeout"
    http_status = 503


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/s up to ``burst``.

    Not thread-safe on its own; the owning controller serializes calls.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float, now: float = 0.0) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("token bucket needs positive rate and burst")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = now

    def take(self, now: float, amount: float = 1.0) -> float:
        """Try to take ``amount`` tokens at time ``now``.

        Returns ``0.0`` when the take succeeded, else the seconds until
        enough tokens will have accrued (the retry-after hint) — and in
        that case takes nothing.
        """
        elapsed = max(0.0, now - self._stamp)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now
        if self._tokens >= amount:
            self._tokens -= amount
            return 0.0
        return (amount - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """Tokens available as of the last :meth:`take` call."""
        return self._tokens


@dataclass(frozen=True)
class Ticket:
    """One admitted request's identity inside the controller.

    ``(priority, seq)`` is the queue sort key: light traffic first,
    FIFO within a class.
    """

    tenant: str
    method: str
    klass: str
    priority: int
    seq: int
    admitted_at: float


class AdmissionController:
    """Quota + queue accounting for one front door.

    Args:
        metrics: registry for the door's instruments (the mediator's).
        tenant_rate: default per-tenant sustained requests/second.
        tenant_burst: default per-tenant burst allowance.
        max_queue_depth: hard cap on queued (admitted, unstarted)
            requests.
        max_queue_wait: seconds a request may spend queued; enforced
            both as projected-wait backpressure at admission and as a
            hard age-out at dequeue.
        workers: dispatch concurrency of the owning door, used to
            convert queue depth into projected wait.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        *,
        tenant_rate: float = 100.0,
        tenant_burst: float = 200.0,
        max_queue_depth: int = 512,
        max_queue_wait: float = 2.0,
        workers: int = 8,
    ) -> None:
        self._lock = threading.Lock()
        self._tenant_rate = float(tenant_rate)
        self._tenant_burst = float(tenant_burst)
        self._max_queue_depth = int(max_queue_depth)
        self._max_queue_wait = float(max_queue_wait)
        self._workers = max(1, int(workers))
        self._buckets: dict[str, TokenBucket] = {}
        self._depth = 0
        self._seq = 0
        #: EWMA of bridge service time, seeded at zero so a cold door
        #: never sheds its first burst on a guess.
        self._service_ewma = 0.0
        registry = metrics if metrics is not None else MetricsRegistry()
        self._admissions = registry.counter(
            "aio_admissions_total",
            "Requests admitted past quota and queue checks, by class",
            labelnames=["klass"],
        )
        self._sheds = registry.counter(
            "aio_sheds_total",
            "Requests shed by admission control, by reason",
            labelnames=["reason"],
        )
        self._queue_depth = registry.gauge(
            "aio_queue_depth", "Admitted requests waiting for a bridge slot"
        )
        self._queue_wait = registry.histogram(
            "aio_queue_wait_seconds",
            "Seconds between admission and dispatch, by class",
            labelnames=["klass"],
        )

    # -- request lifecycle -------------------------------------------------

    def admit(
        self, tenant: str, method: str, now: float | None = None
    ) -> Ticket:
        """Admit one request or raise a :class:`ShedError` subtype.

        Checks, in order: the tenant's token bucket (429 on empty), the
        hard queue-depth cap, and the projected queue wait
        ``depth / workers * ewma_service_time`` (both 503).  On success
        the queued depth is charged immediately; callers must hand the
        ticket back through :meth:`start` or :meth:`abandon`.
        """
        stamp = clock.now() if now is None else now
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(
                    self._tenant_rate, self._tenant_burst, now=stamp
                )
                self._buckets[tenant] = bucket
            wait = bucket.take(stamp)
            if wait > 0.0:
                self._sheds.labels(reason="quota").inc()
                raise QuotaExceededError(
                    f"tenant {tenant!r} is over its {bucket.rate:g} "
                    "request/s quota",
                    retry_after_s=wait,
                )
            if self._depth >= self._max_queue_depth:
                self._sheds.labels(reason="queue_full").inc()
                raise QueueFullError(
                    f"request queue is full ({self._depth} waiting)",
                    retry_after_s=self._projected_wait_locked(),
                )
            projected = self._projected_wait_locked()
            if projected > self._max_queue_wait:
                self._sheds.labels(reason="projected_wait").inc()
                raise QueueFullError(
                    f"projected queue wait {projected:.2f}s exceeds the "
                    f"{self._max_queue_wait:g}s budget",
                    retry_after_s=projected - self._max_queue_wait,
                )
            self._depth += 1
            self._seq += 1
            seq = self._seq
            self._queue_depth.set(float(self._depth))
        klass, priority = classify(method)
        self._admissions.labels(klass=klass).inc()
        return Ticket(
            tenant=tenant,
            method=method,
            klass=klass,
            priority=priority,
            seq=seq,
            admitted_at=stamp,
        )

    def start(self, ticket: Ticket, now: float | None = None) -> float:
        """Mark ``ticket`` dequeued; returns its queue wait in seconds.

        Raises :class:`QueueWaitExceededError` when the request aged
        past the wait budget while queued — the dispatch slot is better
        spent on a request whose client is still listening.  Either
        way, the queued depth is released.
        """
        stamp = clock.now() if now is None else now
        waited = max(0.0, stamp - ticket.admitted_at)
        with self._lock:
            self._depth = max(0, self._depth - 1)
            self._queue_depth.set(float(self._depth))
        if waited > self._max_queue_wait:
            self._sheds.labels(reason="queue_timeout").inc()
            raise QueueWaitExceededError(
                f"request queued {waited:.2f}s, over the "
                f"{self._max_queue_wait:g}s budget",
                retry_after_s=waited - self._max_queue_wait,
            )
        return waited

    def abandon(self, ticket: Ticket) -> None:
        """Release a queued ticket that will never start (client gone)."""
        with self._lock:
            self._depth = max(0, self._depth - 1)
            self._queue_depth.set(float(self._depth))

    def finish(
        self,
        ticket: Ticket,
        queue_wait: float,
        service_seconds: float,
        exemplar: str | None = None,
    ) -> None:
        """Record a completed dispatch.

        Feeds the service-time EWMA behind projected-wait backpressure
        and observes the queue-wait histogram; ``exemplar`` (the
        response's query id) lets the p99 bucket point at its trace.
        """
        with self._lock:
            if self._service_ewma == 0.0:
                self._service_ewma = service_seconds
            else:
                self._service_ewma += _SERVICE_EWMA_ALPHA * (
                    service_seconds - self._service_ewma
                )
        self._queue_wait.labels(klass=ticket.klass).observe(
            queue_wait, exemplar=exemplar
        )

    # -- introspection -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Admitted requests currently waiting for a bridge slot."""
        with self._lock:
            return self._depth

    @property
    def service_ewma(self) -> float:
        """The smoothed per-request service-time estimate (seconds)."""
        with self._lock:
            return self._service_ewma

    @property
    def max_queue_wait(self) -> float:
        """The queue-wait budget (seconds)."""
        return self._max_queue_wait

    def _projected_wait_locked(self) -> float:
        """Expected wait of a request admitted now (lock held)."""
        return self._depth / self._workers * self._service_ewma
