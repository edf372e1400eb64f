"""Continuous profiling: a low-overhead thread-sampling profiler.

:class:`SamplingProfiler` periodically snapshots every thread's Python
stack via ``sys._current_frames()`` from a dedicated daemon thread — no
``sys.setprofile``/``sys.settrace`` hooks, so the profiled code runs at
full speed between samples and the steady-state overhead is the cost of
one stack walk per thread every ``interval`` seconds (well under 5 % at
the default 5 ms period; ``benchmarks/bench_slo.py`` measures it and
``benchmarks/targets.json`` bounds it, ``profiler_overhead_ratio``).

Output is the collapsed-stack format flamegraph tooling eats
(``frame;frame;frame count`` per line).  When span tracking is on, each
sample is additionally keyed to the innermost open tracing span of the
sampled thread (:func:`repro.obs.tracing.span_for_thread`), so profiles
join against distributed traces: given a p99 exemplar's trace id, the
profile shows where that query's wall time went.

Attach per process (``serve-node --profile out.txt``) or per query::

    with SamplingProfiler(interval=0.005) as profiler:
        mediator.threshold(query)
    report(profiler.render_collapsed())
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path
from types import FrameType

from repro.obs import tracing

#: Default seconds between stack samples (200 Hz).
DEFAULT_INTERVAL = 0.005

#: Frames deeper than this are truncated (guards pathological recursion).
MAX_STACK_DEPTH = 64

#: Collapsed-stack strings memoised per distinct frame chain; cleared
#: wholesale past this size so a pathological workload can't grow it
#: without bound.
STACK_CACHE_LIMIT = 8192


def _frame_label(frame: FrameType) -> str:
    """One collapsed-stack element: ``module:function``."""
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{frame.f_code.co_name}"


def _collapse(frame: FrameType | None) -> str:
    """A frame chain as a root-first semicolon-joined stack string."""
    labels: list[str] = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
        depth += 1
    labels.reverse()
    return ";".join(labels)


def _span_key(span: "tracing.Span | None") -> str:
    """A stable label tying samples to one span of one trace."""
    if span is None:
        return ""
    return f"{span.trace_id}/{span.span_id}:{span.name}"


class SamplingProfiler:
    """Samples every thread's stack from a background daemon thread.

    Args:
        interval: seconds between samples.
        track_spans: also key samples to the sampled thread's open
            tracing span (enables the thread→span table, one dict write
            per span enter/exit while any tracking profiler runs).
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        track_spans: bool = True,
    ) -> None:
        if interval <= 0:
            raise ValueError("the sampling interval must be positive")
        self.interval = interval
        self.track_spans = track_spans
        self._lock = threading.Lock()
        self._counts: Counter[tuple[str, str]] = Counter()
        self._samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # Sampler-thread-only caches (never locked).  Every sample holds
        # the GIL while it walks frames, so per-sample work is stolen
        # directly from the profiled code; memoising labels per code
        # object and collapsed strings per frame chain turns the common
        # case — dozens of blocked threads parked on the same stack —
        # into one dict hit per thread.  The label cache pins its code
        # objects, which is what makes id()-keyed chains safe.
        self._labels: dict[int, tuple[object, str]] = {}
        self._stacks: dict[tuple[int, ...], str] = {}
        # Per-thread memo: ident -> (top frame id, f_lasti, stack).  A
        # thread parked in a C call (lock wait, socket recv) keeps the
        # same live top frame at the same instruction, so its whole
        # chain is unchanged and the walk can be skipped entirely.
        self._last: dict[int, tuple[int, int, str]] = {}

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampling thread is live."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start sampling; idempotent while already running."""
        if self.running:
            return self
        if self.track_spans:
            tracing.enable_thread_spans()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the sampler thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        if self.track_spans:
            tracing.disable_thread_spans()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- sampling ------------------------------------------------------------

    def _collapse_cached(self, frame: FrameType | None) -> str:
        """Like :func:`_collapse`, memoised by the chain of code objects.

        Labels depend only on the code object (module:function, no line
        numbers), so the collapsed string is a pure function of the
        frame chain's code identities.
        """
        chain: list[FrameType] = []
        key: list[int] = []
        depth = 0
        while frame is not None and depth < MAX_STACK_DEPTH:
            chain.append(frame)
            key.append(id(frame.f_code))
            frame = frame.f_back
            depth += 1
        chain_key = tuple(key)
        stack = self._stacks.get(chain_key)
        if stack is None:
            labels = []
            for hot in chain:
                code = hot.f_code
                entry = self._labels.get(id(code))
                if entry is None or entry[0] is not code:
                    entry = (code, _frame_label(hot))
                    self._labels[id(code)] = entry
                labels.append(entry[1])
            labels.reverse()
            stack = ";".join(labels)
            if len(self._stacks) >= STACK_CACHE_LIMIT:
                self._stacks.clear()
            self._stacks[chain_key] = stack
        return stack

    def _sample_loop(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            # _current_frames is a point-in-time snapshot taken under
            # the GIL; frames may advance while we walk them, which at
            # worst misattributes one sample by one line.
            frames = sys._current_frames()
            batch: list[tuple[str, str]] = []
            memo = self._last
            for ident, frame in frames.items():
                if ident == own:
                    continue
                lasti = frame.f_lasti
                entry = memo.get(ident)
                if (
                    entry is not None
                    and entry[0] == id(frame)
                    and entry[1] == lasti
                ):
                    stack = entry[2]
                else:
                    stack = self._collapse_cached(frame)
                    memo[ident] = (id(frame), lasti, stack)
                if not stack:
                    continue
                span = (
                    tracing.span_for_thread(ident)
                    if self.track_spans
                    else None
                )
                batch.append((_span_key(span), stack))
            if batch:
                with self._lock:
                    self._counts.update(batch)
                    self._samples += len(batch)
            if len(memo) > 2 * len(frames):  # drop exited threads
                self._last = {
                    ident: entry
                    for ident, entry in memo.items()
                    if ident in frames
                }

    # -- results -------------------------------------------------------------

    @property
    def samples(self) -> int:
        """Total stack samples recorded so far."""
        with self._lock:
            return self._samples

    def collapsed(self) -> dict[str, int]:
        """Collapsed stacks summed over all spans: ``{stack: count}``."""
        with self._lock:
            out: dict[str, int] = {}
            for (_, stack), count in self._counts.items():
                out[stack] = out.get(stack, 0) + count
            return out

    def collapsed_by_span(self) -> dict[str, dict[str, int]]:
        """Collapsed stacks keyed by span: ``{span_key: {stack: count}}``.

        The span key is ``trace_id/span_id:name`` (empty string for
        samples taken outside any tracked span).
        """
        with self._lock:
            out: dict[str, dict[str, int]] = {}
            for (span_key, stack), count in self._counts.items():
                per_span = out.setdefault(span_key, {})
                per_span[stack] = per_span.get(stack, 0) + count
            return out

    def for_trace(self, trace_id: str) -> dict[str, int]:
        """Collapsed stacks for one trace's spans only."""
        prefix = f"{trace_id}/"
        with self._lock:
            out: dict[str, int] = {}
            for (span_key, stack), count in self._counts.items():
                if span_key.startswith(prefix):
                    out[stack] = out.get(stack, 0) + count
            return out

    def render_collapsed(self, by_span: bool = False) -> str:
        """The flamegraph-compatible text output, one stack per line.

        With ``by_span`` each stack is prefixed by its span key, so one
        file holds every query's profile side by side.
        """
        lines: list[str] = []
        if by_span:
            for span_key, stacks in sorted(self.collapsed_by_span().items()):
                label = span_key or "<unattributed>"
                for stack, count in sorted(stacks.items()):
                    lines.append(f"{label};{stack} {count}")
        else:
            for stack, count in sorted(self.collapsed().items()):
                lines.append(f"{stack} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: "Path | str", by_span: bool = False) -> Path:
        """Write the collapsed-stack output to ``path``; returns it."""
        target = Path(path)
        target.write_text(self.render_collapsed(by_span=by_span))
        return target

    def clear(self) -> None:
        """Drop every recorded sample (the profiler keeps running)."""
        with self._lock:
            self._counts.clear()
            self._samples = 0
