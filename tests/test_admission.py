"""Unit tests for the front door's admission-control state machine."""

import pytest

from repro.cluster.admission import (
    AdmissionController,
    QueueFullError,
    QueueWaitExceededError,
    QuotaExceededError,
    ShedError,
    TokenBucket,
    classify,
)
from repro.obs.metrics import MetricsRegistry


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        assert bucket.take(0.0) == 0.0
        assert bucket.take(0.0) == 0.0
        # Empty: the third take reports the time until one token accrues.
        assert bucket.take(0.0) == pytest.approx(0.5)
        # Tokens accrue at `rate`; after 0.5s one is back.
        assert bucket.take(0.5) == 0.0
        assert bucket.take(0.5) == pytest.approx(0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0, now=0.0)
        assert bucket.take(1000.0) == 0.0  # a long sleep buys only `burst`
        assert bucket.take(1000.0) == 0.0
        assert bucket.take(1000.0) == 0.0
        assert bucket.take(1000.0) > 0.0

    def test_failed_take_consumes_nothing(self):
        bucket = TokenBucket(rate=1.0, burst=1.0, now=0.0)
        assert bucket.take(0.0) == 0.0
        before = bucket.tokens
        assert bucket.take(0.0) > 0.0
        assert bucket.tokens == before

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)


class TestClassify:
    def test_light_methods_outrank_queries(self):
        light_class, light_priority = classify("GetStats")
        query_class, query_priority = classify("GetThreshold")
        assert light_class == "light" and query_class == "query"
        assert light_priority < query_priority

    def test_unknown_methods_ride_the_query_class(self):
        assert classify("NoSuchMethod") == classify("GetThreshold")


def controller(**overrides) -> AdmissionController:
    defaults = dict(
        tenant_rate=1000.0,
        tenant_burst=1000.0,
        max_queue_depth=4,
        max_queue_wait=2.0,
        workers=1,
    )
    defaults.update(overrides)
    return AdmissionController(MetricsRegistry(), **defaults)


class TestQuota:
    def test_tenant_bucket_exhaustion_is_429(self):
        ctl = controller(tenant_rate=5.0, tenant_burst=2.0)
        ctl.admit("alice", "GetThreshold", now=0.0)
        ctl.admit("alice", "GetThreshold", now=0.0)
        with pytest.raises(QuotaExceededError) as info:
            ctl.admit("alice", "GetThreshold", now=0.0)
        assert info.value.http_status == 429
        assert info.value.retry_after_s >= 0.05
        response = info.value.to_response()
        assert response["status"] == "error"
        assert response["code"] == "quota_exceeded"
        assert response["retry_after_s"] > 0.0

    def test_tenants_are_isolated(self):
        ctl = controller(tenant_rate=5.0, tenant_burst=1.0)
        ctl.admit("alice", "GetThreshold", now=0.0)
        with pytest.raises(QuotaExceededError):
            ctl.admit("alice", "GetThreshold", now=0.0)
        ctl.admit("bob", "GetThreshold", now=0.0)  # bob's bucket is full


class TestBackpressure:
    def test_depth_cap_sheds_with_503(self):
        ctl = controller(max_queue_depth=2)
        ctl.admit("t", "GetThreshold", now=0.0)
        ctl.admit("t", "GetThreshold", now=0.0)
        with pytest.raises(QueueFullError) as info:
            ctl.admit("t", "GetThreshold", now=0.0)
        assert info.value.http_status == 503
        assert "full" in str(info.value)

    def test_start_frees_a_depth_slot(self):
        ctl = controller(max_queue_depth=2)
        first = ctl.admit("t", "GetThreshold", now=0.0)
        ctl.admit("t", "GetThreshold", now=0.0)
        assert ctl.queue_depth == 2
        ctl.start(first, now=0.1)
        assert ctl.queue_depth == 1
        ctl.admit("t", "GetThreshold", now=0.2)  # slot is usable again

    def test_abandon_frees_a_depth_slot(self):
        ctl = controller(max_queue_depth=1)
        ticket = ctl.admit("t", "GetThreshold", now=0.0)
        ctl.abandon(ticket)
        assert ctl.queue_depth == 0
        ctl.admit("t", "GetThreshold", now=0.0)

    def test_projected_wait_sheds_before_the_queue_is_hopeless(self):
        ctl = controller(max_queue_depth=100, max_queue_wait=0.5, workers=1)
        ticket = ctl.admit("t", "GetThreshold", now=0.0)
        ctl.start(ticket, now=0.0)
        # One completed request taking 1s seeds the EWMA: with one
        # queued request ahead and one worker, projected wait is ~1s,
        # over the 0.5s budget.
        ctl.finish(ticket, queue_wait=0.0, service_seconds=1.0)
        ctl.admit("t", "GetThreshold", now=0.0)
        with pytest.raises(QueueFullError) as info:
            ctl.admit("t", "GetThreshold", now=0.0)
        assert "projected" in str(info.value)

    def test_queue_age_out_at_dequeue(self):
        ctl = controller(max_queue_wait=1.0)
        ticket = ctl.admit("t", "GetThreshold", now=0.0)
        with pytest.raises(QueueWaitExceededError) as info:
            ctl.start(ticket, now=5.0)
        assert info.value.http_status == 503
        assert ctl.queue_depth == 0  # the slot is released either way

    def test_fresh_request_reports_its_wait(self):
        ctl = controller(max_queue_wait=1.0)
        ticket = ctl.admit("t", "GetThreshold", now=0.0)
        assert ctl.start(ticket, now=0.25) == pytest.approx(0.25)


class TestInstrumentation:
    def test_shed_reasons_are_counted(self):
        registry = MetricsRegistry()
        ctl = AdmissionController(
            registry,
            tenant_rate=5.0,
            tenant_burst=1.0,
            max_queue_depth=1,
            max_queue_wait=1.0,
            workers=1,
        )
        ctl.admit("t", "GetThreshold", now=0.0)
        with pytest.raises(QuotaExceededError):
            ctl.admit("t", "GetThreshold", now=0.0)
        with pytest.raises(QueueFullError):
            ctl.admit("u", "GetThreshold", now=0.0)
        sheds = registry.get("aio_sheds_total")
        assert sheds.labels(reason="quota").value == 1.0
        assert sheds.labels(reason="queue_full").value == 1.0
        assert registry.get("aio_queue_depth").value == 1.0

    def test_queue_wait_histogram_carries_exemplars(self):
        registry = MetricsRegistry()
        ctl = AdmissionController(registry, workers=1)
        ticket = ctl.admit("t", "GetThreshold", now=0.0)
        waited = ctl.start(ticket, now=0.1)
        ctl.finish(ticket, waited, 0.05, exemplar="q-42")
        family = registry.get("aio_queue_wait_seconds")
        exemplars = family.labels(klass="query").exemplars()
        assert any(trace == "q-42" for trace, _, _ in exemplars.values())

    def test_ewma_converges_toward_recent_service_times(self):
        ctl = controller()
        ticket = ctl.admit("t", "GetThreshold", now=0.0)
        ctl.start(ticket, now=0.0)
        ctl.finish(ticket, 0.0, 1.0)
        for _ in range(50):
            ctl.finish(ticket, 0.0, 0.1)
        assert ctl.service_ewma == pytest.approx(0.1, rel=0.1)


def test_shed_error_retry_floor():
    shed = ShedError("too hot", retry_after_s=0.0001)
    assert shed.retry_after_s == pytest.approx(0.05)
    assert shed.to_response()["code"] == "overloaded"
