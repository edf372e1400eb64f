"""The engine's only sanctioned wall-clock boundary.

Engine invariant OBS01: simulated timings come from the cost
model, and *wall-clock* reads — needed by the observability layer for
span durations and latency histograms — live only inside ``repro.obs``.
Everything else in the engine measures wall time through the helpers
here, so a single grep (or turblint run) audits every clock access.
"""

from __future__ import annotations

import time


def now() -> float:
    """Monotonic wall-clock seconds (basis is arbitrary; use differences)."""
    return time.perf_counter()


def unix_now() -> float:
    """Seconds since the Unix epoch, for timestamping exported artifacts."""
    return time.time()


def sleep(seconds: float) -> None:
    """Block the calling thread for ``seconds`` of wall time.

    Real waits (retry backoff, poll intervals) are host interactions
    just like clock reads, so they live behind the same boundary; the
    simulated-time model never sleeps.
    """
    time.sleep(seconds)


class Stopwatch:
    """A context manager measuring the wall time of its body.

    Usage::

        with Stopwatch() as watch:
            do_work()
        report(f"took {watch.elapsed:.3f}s")

    ``elapsed`` is set on exit; :meth:`split` reads the running time of a
    still-open stopwatch.
    """

    __slots__ = ("start", "elapsed")

    def __init__(self) -> None:
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self.start = now()
        return self

    def __exit__(self, *exc: object) -> None:
        self.elapsed = self.split()

    def split(self) -> float:
        """Wall seconds since the stopwatch was entered."""
        return now() - self.start
