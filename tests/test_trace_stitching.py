"""Cross-process trace stitching: contexts, grafting, skew, orphans.

Most of these tests exercise the wire-level trace plumbing without
sockets: a "remote" process is simulated by
:func:`tracing.remote_request` (which is exactly what the node server
installs per request), its captured spans travel as the same JSON
records the response header carries, and the "mediator" side grafts
them back with :func:`tracing.absorb_remote`.  The last one runs the
whole path over TCP and counts what arrived.
"""

import contextvars

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.mediator import Mediator
from repro.cluster.partition import MortonPartitioner
from repro.core import ThresholdQuery
from repro.costmodel import Category, CostLedger
from repro.net.transport import TcpTransport
from repro.obs import tracing
from repro.obs.tracing import Span, SpanContext, TraceCollector

from tests.test_query_kinds import NODES, SIDE, start_servers


@pytest.fixture()
def collector():
    installed = tracing.install(TraceCollector())
    yield installed
    tracing.uninstall()


class TestSpanContext:
    def test_wire_round_trip(self):
        context = SpanContext("q000007", 42, True)
        wired = context.to_wire()
        back = SpanContext.from_wire(wired)
        assert back is not None
        assert (back.trace_id, back.span_id, back.sampled) == (
            "q000007", 42, True,
        )

    @pytest.mark.parametrize(
        "record",
        [None, 7, "q1", [], {}, {"trace_id": "q1"}, {"span_id": 3}],
    )
    def test_malformed_records_yield_none(self, record):
        assert SpanContext.from_wire(record) is None

    def test_current_context_follows_the_open_span(self, collector):
        assert tracing.current_context() is None
        with tracing.span("root", trace_id="q_ctx") as root:
            context = tracing.current_context()
            assert context is not None
            assert context.trace_id == "q_ctx"
            assert context.span_id == root.span_id
            assert context.sampled
        assert tracing.current_context() is None

    def test_sampling_kill_switch(self, collector):
        tracing.set_remote_sampling(False)
        try:
            with tracing.span("root", trace_id="q_off"):
                context = tracing.current_context()
                assert context is not None and not context.sampled
                with tracing.remote_request(context) as capture:
                    assert capture is None
        finally:
            tracing.set_remote_sampling(True)


class TestRemoteRequest:
    def test_captures_spans_without_a_collector(self):
        assert tracing.collector() is None
        context = SpanContext("q_far", 3, True)
        with tracing.remote_request(context) as capture:
            assert capture is not None
            with tracing.span("server.request") as outer:
                assert outer.trace_id == "q_far"
                with tracing.span("executor.scan"):
                    pass
        records = capture.to_wire()
        assert [r["name"] for r in records] == [
            "executor.scan", "server.request",
        ]
        # The captured root parents under the caller's span id.
        by_name = {r["name"]: r for r in records}
        assert by_name["server.request"]["parent_id"] == 3
        assert by_name["executor.scan"]["parent_id"] == (
            by_name["server.request"]["span_id"]
        )

    def test_none_context_is_a_noop(self, collector):
        with tracing.remote_request(None) as capture:
            assert capture is None
            with tracing.span("server.request", trace_id="q_local"):
                pass
        # Without a remote context, spans go to the local collector.
        assert collector.trace("q_local")


def simulate_remote_part(
    context: SpanContext, ledger: CostLedger
) -> list[dict]:
    """One node's request handling, in an isolated contextvars copy."""

    def handle() -> list[dict]:
        with tracing.remote_request(context) as capture:
            with tracing.span(
                "server.request", method="threshold"
            ) as request_span:
                with tracing.span("executor.scan", category="io"):
                    pass
                request_span.attach_ledger(ledger)
        assert capture is not None
        return capture.to_wire()

    return contextvars.copy_context().run(handle)


seconds = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)
ledgers = st.fixed_dictionaries(
    {category: seconds for category in Category}
).map(CostLedger)


class TestStitchingFidelity:
    @settings(max_examples=25, deadline=None)
    @given(parts=st.lists(ledgers, min_size=1, max_size=4))
    def test_category_totals_reconcile_with_merged_ledger(self, parts):
        """A stitched multi-process trace reports exactly the merged
        CostLedger: per-node ledgers compose in parallel onto the root,
        and grafting remote spans never perturbs the totals."""
        collector = tracing.install(TraceCollector())
        try:
            merged = CostLedger.parallel(parts)
            with tracing.span(
                "query.threshold", trace_id=tracing.new_trace_id()
            ) as root:
                for node_id, ledger in enumerate(parts):
                    context = tracing.current_context()
                    assert context is not None
                    records = simulate_remote_part(context, ledger)
                    with tracing.span("net.rpc", node=node_id):
                        tracing.absorb_remote(
                            {"node": node_id, "recv": 1.0, "send": 2.0,
                             "spans": records},
                            client_send=0.5,
                            client_recv=2.5,
                        )
                root.attach_ledger(merged)
            spans = collector.trace(root.trace_id)
            assert tracing.category_totals(spans) == merged.breakdown()
        finally:
            tracing.uninstall()

    @settings(max_examples=25, deadline=None)
    @given(ledger=ledgers, offset=st.floats(
        min_value=-1e3, max_value=1e3, allow_nan=False
    ))
    def test_grafted_ledgers_survive_clock_shifts(self, ledger, offset):
        """Shifting remote timestamps by any skew moves wall clocks but
        never the simulated-time breakdown on the grafted spans."""
        collector = tracing.install(TraceCollector())
        try:
            with tracing.span("root", trace_id="q_skew") as root:
                context = tracing.current_context()
                assert context is not None
                records = simulate_remote_part(context, ledger)
                grafted = tracing.graft_spans(
                    records, parent=root, clock_offset=offset,
                    origin="node0",
                )
            request = next(
                s for s in grafted if s.name == "server.request"
            )
            assert request.breakdown == ledger.breakdown()
            original = next(
                r for r in records if r["name"] == "server.request"
            )
            assert request.start == pytest.approx(
                original["start"] + offset
            )
        finally:
            tracing.uninstall()

    def test_grafted_ids_are_remapped_and_reanchored(self, collector):
        context = SpanContext("q_ids", 9, True)
        records = simulate_remote_part(context, CostLedger())
        with tracing.span("net.rpc", trace_id="q_local") as rpc:
            grafted = tracing.graft_spans(records, parent=rpc)
        local_ids = {span.span_id for span in grafted}
        assert rpc.span_id not in local_ids
        assert len(local_ids) == len(grafted)
        by_name = {span.name: span for span in grafted}
        # The remote root re-anchors under the local rpc span; the
        # child's parent pointer is remapped consistently.
        assert by_name["server.request"].parent_id == rpc.span_id
        assert by_name["executor.scan"].parent_id == (
            by_name["server.request"].span_id
        )
        assert all(span.trace_id == "q_local" for span in grafted)
        stitched = collector.trace("q_local")
        assert len(stitched) == 1 + len(grafted)
        assert "(empty trace)" not in tracing.render_tree(stitched)

    def test_absorb_records_node_attribution(self, collector):
        context_records: list[dict] = []
        with tracing.span("root", trace_id="q_attr") as root:
            context = tracing.current_context()
            assert context is not None
            context_records = simulate_remote_part(context, CostLedger())
            with tracing.span("net.rpc", node=1) as rpc:
                tracing.absorb_remote(
                    {"node": 1, "recv": 10.0, "send": 10.25,
                     "spans": context_records},
                    client_send=0.0,
                    client_recv=0.5,
                )
            assert rpc.attributes["remote_node"] == 1
            assert rpc.attributes["remote_seconds"] == pytest.approx(0.25)
        spans = collector.trace("q_attr")
        origins = {
            s.attributes.get("origin")
            for s in spans
            if s.attributes.get("origin")
        }
        assert origins == {"node1"}
        assert root.trace_id == "q_attr"


class TestClockSkew:
    @settings(max_examples=50, deadline=None)
    @given(
        rtt=st.floats(min_value=1e-4, max_value=10.0, allow_nan=False),
        processing=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        skew=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_midpoint_offset_recovers_symmetric_skew(
        self, rtt, processing, skew
    ):
        """With symmetric network legs the midpoint estimate recovers
        the true clock offset exactly, whatever the skew magnitude."""
        client_send = 100.0
        leg = rtt / 2.0
        server_recv = client_send + leg + skew
        server_send = server_recv + processing
        client_recv = client_send + rtt + processing
        offset = tracing.clock_skew_offset(
            client_send, client_recv, server_recv, server_send
        )
        # Remote stamps shifted by -offset land on the client timeline.
        assert server_recv + offset == pytest.approx(
            client_send + leg, rel=1e-9, abs=1e-6
        )

    def test_zero_skew_zero_offset(self):
        assert tracing.clock_skew_offset(0.0, 1.0, 0.5, 0.5) == 0.0


class TestOrphanedSubtrees:
    def test_failed_rpc_is_marked_orphaned_not_silent(self, collector):
        """A killed node's part yields an explicitly-marked orphan span
        rather than silently missing work."""
        with pytest.raises(RuntimeError):
            with tracing.span("root", trace_id="q_dead"):
                with tracing.span("net.rpc", node=1) as rpc:
                    try:
                        raise RuntimeError("connection lost")
                    except RuntimeError as error:
                        tracing.mark_orphaned(rpc, type(error).__name__)
                        raise
        spans = collector.trace("q_dead")
        orphans = [s for s in spans if s.attributes.get("orphaned")]
        assert len(orphans) == 1
        assert orphans[0].name == "net.rpc"
        assert orphans[0].attributes["orphan_reason"] == "RuntimeError"
        assert all(s.end is not None for s in spans)

    def test_orphan_marking_accepts_the_noop_span(self):
        assert tracing.collector() is None
        with tracing.span("net.rpc") as span:
            tracing.mark_orphaned(span, "NodeUnavailableError")
        # The shared no-op span must swallow the attrs without state.
        assert tracing.current_span() is None

    def test_span_json_round_trip_keeps_orphan_flag(self):
        span = Span(
            trace_id="q1", span_id=1, parent_id=None, name="net.rpc",
            category=None, attributes={},
        )
        tracing.mark_orphaned(span, "DeadlineExceededError")
        span.start = 1.0
        span.end = 2.0
        back = Span.from_json(span.to_json())
        assert back.attributes["orphaned"] is True
        assert back.attributes["orphan_reason"] == "DeadlineExceededError"


class TestStitchingOverTcp:
    def test_every_rpc_of_100_cold_queries_carries_its_remote_child(
        self, collector
    ):
        """ROADMAP item 4(a): a trace is whole.  Each query below misses
        the cache (thresholds descend, so no stored answer contains the
        next), scatters one ``net.rpc`` per node from the mediator's
        pool threads, and every one of those spans must come back with
        the ``server.request`` subtree its node captured."""
        servers, addresses = start_servers()
        mediator = Mediator(
            nodes=[],
            partitioner=MortonPartitioner(SIDE, NODES),
            transport=TcpTransport(addresses, timeout=60.0),
        )
        rpcs = childless = 0
        try:
            for i in range(100):
                result = mediator.threshold(
                    ThresholdQuery("mhd", "vorticity", 0, 4.0 - 0.03 * i)
                )
                assert result.cache_hits == 0
                spans = collector.trace(result.query_id)
                answered = {
                    s.parent_id for s in spans if s.name == "server.request"
                }
                for span in spans:
                    if span.name == "net.rpc":
                        rpcs += 1
                        childless += span.span_id not in answered
        finally:
            mediator.close()
            for server in servers:
                server.shutdown()
        assert rpcs >= 100 * NODES
        assert childless == 0, (
            f"{childless} of {rpcs} net.rpc spans lack a server.request child"
        )
