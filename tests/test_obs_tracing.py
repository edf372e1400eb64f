"""Tests for repro.obs tracing: spans, context propagation, exports."""

import numpy as np
import pytest

from repro.core import PdfQuery, ThresholdQuery, TopKQuery
from repro.net.kinds import KINDS
from repro.obs import tracing
from repro.obs.tracing import Span, TraceCollector, Tracer

from tests.test_core_threshold import ground_truth_norm
from tests.test_query_kinds import (
    VORTICITY,
    in_process_mediator,
    start_servers,
    tcp_mediator,
)


@pytest.fixture()
def collector():
    """Install a fresh collector on the global tracer for one test."""
    installed = tracing.install(TraceCollector())
    yield installed
    tracing.uninstall()


def run_threshold(mhd_cluster, small_mhd, quantile=0.999):
    norm = ground_truth_norm(small_mhd, "vorticity", 0)
    query = ThresholdQuery(
        dataset="mhd",
        field="vorticity",
        timestep=0,
        threshold=float(np.quantile(norm, quantile)),
    )
    return mhd_cluster.threshold(query)


class TestNoopPath:
    def test_disabled_tracer_hands_out_shared_noop_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner is outer  # one shared no-op object
        outer.set("key", "value")  # all no-ops, must not raise

    def test_query_ids_issued_even_while_disabled(self, mhd_cluster, small_mhd):
        assert tracing.collector() is None
        result = run_threshold(mhd_cluster, small_mhd)
        assert result.query_id is not None
        second = run_threshold(mhd_cluster, small_mhd)
        assert second.query_id != result.query_id


class TestSpanNesting:
    def test_parenting_within_one_context(self, collector):
        with tracing.span("root", trace_id="t1") as root:
            assert tracing.current_span() is root
            with tracing.span("child") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == "t1"
        assert tracing.current_span() is None
        spans = collector.trace("t1")
        assert [s.name for s in spans] == ["root", "child"]
        assert all(s.end is not None for s in spans)

    def test_span_closes_on_exceptions(self, collector):
        with pytest.raises(RuntimeError):
            with tracing.span("boom", trace_id="t2"):
                raise RuntimeError("kaboom")
        assert tracing.current_span() is None
        (span,) = collector.trace("t2")
        assert span.end is not None


class TestTracedQuery:
    def test_scatter_parts_nest_under_root_across_threads(
        self, collector, mhd_cluster, small_mhd
    ):
        result = run_threshold(mhd_cluster, small_mhd)
        spans = collector.trace(result.query_id)
        root = spans[0]
        assert root.name == "query.threshold"
        assert root.parent_id is None
        parts = [s for s in spans if s.name == "node.part"]
        assert len(parts) == len(mhd_cluster.nodes)
        assert all(p.parent_id == root.span_id for p in parts)
        # The scatter pool really ran parts on worker threads, and the
        # contextvars copy carried the root span across to them.
        assert len({s.thread for s in spans}) > 1

    def test_every_part_of_every_kind_carries_its_ledger(
        self, collector, mhd_cluster
    ):
        # render_tree shows simulated seconds per node only where the
        # node.part span has a breakdown — including batch parts, whose
        # result is a list sharing one ledger.
        vorticity = ThresholdQuery("mhd", "vorticity", 0, 10.0)
        q_criterion = ThresholdQuery("mhd", "q_criterion", 0, 50.0)
        query_ids = {
            "threshold": mhd_cluster.threshold(vorticity).query_id,
            "batch_threshold": mhd_cluster.batch_threshold(
                [vorticity, q_criterion]
            ).results[0].query_id,
            "pdf": mhd_cluster.pdf(
                PdfQuery("mhd", "vorticity", 0, (0.0, 5.0, 10.0))
            ).query_id,
            "topk": mhd_cluster.topk(
                TopKQuery("mhd", "vorticity", 0, 5)
            ).query_id,
        }
        assert set(query_ids) == set(KINDS)
        for kind, query_id in query_ids.items():
            spans = collector.trace(query_id)
            assert spans[0].name == f"query.{kind}"
            parts = [s for s in spans if s.name == "node.part"]
            assert len(parts) == len(mhd_cluster.nodes), kind
            assert all(p.breakdown is not None for p in parts), kind

    def test_trace_totals_equal_the_query_ledger(
        self, collector, mhd_cluster, small_mhd
    ):
        # Acceptance criterion: per-category simulated seconds summed
        # from the span tree exactly equal the returned CostLedger.
        result = run_threshold(mhd_cluster, small_mhd)
        spans = collector.trace(result.query_id)
        assert tracing.category_totals(spans) == result.ledger.breakdown()

    def test_phase_spans_cover_every_tier(self, collector, mhd_cluster):
        # One cold query per kind, each on a field no earlier one has
        # cached: every node's part must show its read and kernel
        # phases, and the two threshold kinds their cache probe and
        # store as well.
        query_ids = {
            "threshold": mhd_cluster.threshold(
                ThresholdQuery("mhd", "vorticity", 0, 10.0)
            ).query_id,
            "batch_threshold": mhd_cluster.batch_threshold(
                [
                    ThresholdQuery("mhd", "q_criterion", 0, 50.0),
                    ThresholdQuery("mhd", "velocity", 0, 1.0),
                ]
            ).results[0].query_id,
            "pdf": mhd_cluster.pdf(
                PdfQuery("mhd", "magnetic", 0, (0.0, 0.5, 1.0))
            ).query_id,
            "topk": mhd_cluster.topk(
                TopKQuery("mhd", "pressure", 0, 5)
            ).query_id,
        }
        assert set(query_ids) == set(KINDS)
        for kind, query_id in query_ids.items():
            spans = collector.trace(query_id)
            assert spans[0].name == f"query.{kind}"
            by_id = {s.span_id: s for s in spans}
            parts = [s for s in spans if s.name == "node.part"]
            assert len(parts) == len(mhd_cluster.nodes), kind
            for part in parts:
                under = set()
                for span in spans:
                    ancestor = by_id.get(span.parent_id)
                    while ancestor is not None and ancestor is not part:
                        ancestor = by_id.get(ancestor.parent_id)
                    if ancestor is part:
                        under.add(span.name)
                expected = {"node.io", "node.kernel"}
                if kind in ("threshold", "batch_threshold"):
                    expected |= {"cache.lookup", "node.evaluate", "cache.store"}
                assert expected <= under, (kind, expected - under)
        # Vorticity has a halo: each node's wait for its peers' boundary
        # atoms is a span of its own, sized by what came back.
        fetches = [
            s for s in collector.trace(query_ids["threshold"])
            if s.name == "node.halo_fetch"
        ]
        assert len(fetches) >= len(mhd_cluster.nodes)
        assert all(
            s.attributes["peers"] >= 1 and s.attributes["bytes"] > 0
            for s in fetches
        )


    @pytest.mark.parametrize("transport", ["in_process", "tcp"])
    def test_a_multi_peer_halo_fetch_keeps_its_reads_in_the_trace(
        self, collector, transport
    ):
        # Four nodes: every node's boundary has three peers, whose
        # reads run on pool threads.  Without the caller's context
        # there they had no current span — in-process the node.halo
        # spans vanished, over TCP the RPC had no trace to carry and
        # the peer's server.request subtree was lost.
        nodes, servers = 4, []
        if transport == "tcp":
            servers, addresses = start_servers(nodes=nodes)
        try:
            with (
                tcp_mediator(addresses) if servers else in_process_mediator(nodes)
            ) as mediator:
                result = mediator.threshold(VORTICITY, processes=4)
                spans = collector.trace(result.query_id)
        finally:
            for server in servers:
                server.shutdown()
        by_id = {s.span_id: s for s in spans}
        reads = [s for s in spans if s.name == "node.halo"]
        assert len(reads) == nodes * (nodes - 1)
        for read in reads:
            lineage = []
            ancestor = by_id.get(read.parent_id)
            while ancestor is not None:
                lineage.append(ancestor.name)
                ancestor = by_id.get(ancestor.parent_id)
            assert "node.halo_fetch" in lineage
            if servers:
                # The peer's subtree hangs under the node's own halo RPC.
                assert lineage[:3] == [
                    "server.request", "net.rpc", "node.halo_fetch",
                ]
        assert tracing.category_totals(spans) == result.ledger.breakdown()


class TestExports:
    def test_jsonl_round_trip(self, collector, mhd_cluster, small_mhd):
        result = run_threshold(mhd_cluster, small_mhd)
        text = collector.to_jsonl(result.query_id)
        restored = TraceCollector.from_jsonl(text)
        original = collector.trace(result.query_id)
        assert len(restored) == len(original)
        for a, b in zip(original, restored):
            assert a.to_json() == b.to_json()

    def test_render_tree_shows_both_clocks(
        self, collector, mhd_cluster, small_mhd
    ):
        result = run_threshold(mhd_cluster, small_mhd)
        tree = tracing.render_tree(collector.trace(result.query_id))
        assert "query.threshold" in tree
        assert "wall=" in tree
        assert "sim=" in tree
        assert "└─" in tree

    def test_render_tree_empty(self):
        assert tracing.render_tree([]) == "(empty trace)"

    def test_cli_renders_an_export(
        self, collector, mhd_cluster, small_mhd, tmp_path, capsys
    ):
        from repro.obs.__main__ import main

        result = run_threshold(mhd_cluster, small_mhd)
        export = tmp_path / "trace.jsonl"
        export.write_text(collector.to_jsonl(result.query_id))
        assert main([str(export)]) == 0
        rendered = capsys.readouterr().out
        assert f"trace {result.query_id}" in rendered
        assert "query.threshold" in rendered
        assert "simulated seconds by category" in rendered
        assert main([str(export), "--trace-id", "q_absent"]) == 1
        assert main([str(tmp_path / "missing.jsonl")]) == 2


class TestTraceCollector:
    def _span(self, trace_id, span_id):
        span = Span(trace_id, span_id, None, "s", None, {})
        span.end = span.start
        return span

    def test_ring_evicts_oldest_trace(self):
        ring = TraceCollector(max_traces=2)
        for i in range(3):
            ring.record(self._span(f"t{i}", i))
        assert ring.trace_ids() == ["t1", "t2"]
        assert ring.trace("t0") == []

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceCollector(max_traces=0)
