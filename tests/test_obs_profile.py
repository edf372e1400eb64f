"""Tests for the sampling profiler and its span keying."""

import threading

from repro.obs import clock, tracing
from repro.obs.profile import SamplingProfiler


def spin(seconds: float) -> None:
    deadline = clock.now() + seconds
    while clock.now() < deadline:
        pass


def burn(profiler: SamplingProfiler) -> None:
    """Spin until ``profiler`` has taken three more samples.

    A fixed 50 ms spin is no promise of one: on a loaded two-core box the
    1 ms sampler thread can fail to win the GIL inside it.  The deadline
    only bounds a profiler that never samples at all.
    """
    target = profiler.samples + 3
    deadline = clock.now() + 10.0
    while profiler.samples < target and clock.now() < deadline:
        pass


class TestSampling:
    def test_collects_samples_while_running(self):
        with SamplingProfiler(interval=0.001, track_spans=False) as profiler:
            burn(profiler)
        assert profiler.samples > 0
        collapsed = profiler.collapsed()
        assert collapsed
        # Every key is a root-first semicolon-joined stack.
        assert all(";" in stack or ":" in stack for stack in collapsed)

    def test_burn_frame_appears_in_stacks(self):
        with SamplingProfiler(interval=0.001, track_spans=False) as profiler:
            burn(profiler)
        assert any(
            "test_obs_profile:burn" in stack
            for stack in profiler.collapsed()
        )

    def test_stop_is_idempotent_and_restartable(self):
        profiler = SamplingProfiler(interval=0.001, track_spans=False)
        profiler.start().start()
        spin(0.02)
        profiler.stop()
        profiler.stop()
        assert not profiler.running
        count = profiler.samples
        profiler.start()
        spin(0.02)
        profiler.stop()
        assert profiler.samples >= count

    def test_clear_drops_samples_but_keeps_running(self):
        profiler = SamplingProfiler(interval=0.001, track_spans=False).start()
        try:
            spin(0.02)
            profiler.clear()
            assert profiler.samples == 0
        finally:
            profiler.stop()

    def test_rejects_non_positive_interval(self):
        try:
            SamplingProfiler(interval=0.0)
        except ValueError:
            pass
        else:  # pragma: no cover - the guard must fire
            raise AssertionError("interval=0 must be rejected")

    def test_own_sampler_thread_is_never_sampled(self):
        with SamplingProfiler(interval=0.001, track_spans=False) as profiler:
            burn(profiler)
        assert not any(
            "obs-profiler" in stack or "_sample_loop" in stack
            for stack in profiler.collapsed()
        )


class TestSpanKeying:
    def test_samples_key_to_the_open_span(self):
        collector = tracing.install(tracing.TraceCollector())
        try:
            with SamplingProfiler(interval=0.001) as profiler:
                with tracing.span("work.burn", trace_id="q_prof") as span:
                    burn(profiler)
            by_span = profiler.collapsed_by_span()
            key = f"q_prof/{span.span_id}:work.burn"
            assert key in by_span
            assert profiler.for_trace("q_prof")
            assert profiler.for_trace("q_other") == {}
        finally:
            tracing.uninstall()
        assert collector.trace("q_prof")

    def test_samples_outside_spans_are_unattributed(self):
        with SamplingProfiler(interval=0.001) as profiler:
            burn(profiler)
        by_span = profiler.collapsed_by_span()
        assert set(by_span) == {""}

    def test_render_by_span_prefixes_every_line(self):
        tracing.install(tracing.TraceCollector())
        try:
            with SamplingProfiler(interval=0.001) as profiler:
                with tracing.span("work.burn", trace_id="q_prof"):
                    burn(profiler)
            text = profiler.render_collapsed(by_span=True)
        finally:
            tracing.uninstall()
        lines = [line for line in text.splitlines() if line]
        assert lines
        for line in lines:
            label, _, rest = line.partition(";")
            assert label == "<unattributed>" or label.startswith("q_prof/")
            assert rest.rsplit(" ", 1)[-1].isdigit()

    def test_write_produces_flamegraph_input(self, tmp_path):
        with SamplingProfiler(interval=0.001, track_spans=False) as profiler:
            burn(profiler)
        target = profiler.write(tmp_path / "profile.txt")
        content = target.read_text()
        assert content
        for line in content.splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_thread_span_table_tracks_worker_threads(self):
        tracing.install(tracing.TraceCollector())
        seen: dict[str, str | None] = {}
        try:
            tracing.enable_thread_spans()

            def work() -> None:
                with tracing.span("worker.task", trace_id="q_thread"):
                    found = tracing.span_for_thread(threading.get_ident())
                    seen["name"] = None if found is None else found.name
                    spin(0.01)

            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
            assert seen["name"] == "worker.task"
            assert (
                tracing.span_for_thread(thread.ident or -1) is None
            ), "closed spans must leave the table"
        finally:
            tracing.disable_thread_spans()
            tracing.uninstall()


class TestOverhead:
    def test_sampling_overhead_is_bounded(self):
        """The profiler must not slow hot loops measurably; gate at a
        generous 25% here (CI noise), the SLO benchmark gates <5% on
        the real workload."""

        def workload() -> float:
            started = clock.now()
            total = 0
            for i in range(400_000):
                total += i * i
            assert total > 0
            return clock.now() - started

        workload()  # warm-up
        bare = min(workload() for _ in range(3))
        with SamplingProfiler(interval=0.005, track_spans=False):
            profiled = min(workload() for _ in range(3))
        assert profiled <= bare * 1.25 + 0.01
