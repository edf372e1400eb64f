"""Streamed partial results: chunked point columns over PARTIAL frames.

Large point-set responses do not ship as one monolithic frame.
The node server slices its Morton-sorted result columns into bounded
chunks (:func:`iter_point_chunks`) and emits one ``PARTIAL`` frame per
chunk, terminated by a final ``RESPONSE`` frame that carries the ledger
and flags but no blobs (marked ``"streamed": true``).  The client feeds
each chunk into a *sink* as it arrives, so node compute, wire transfer
and mediator merging overlap, and peak mediator buffering is bounded by
the merged prefix plus one in-flight chunk instead of the whole
response.

Because every node emits chunks in Morton order, the accumulator's
incremental :func:`~repro.core.pointset.merge_sorted_runs` always hits
the concatenation fast path — merging as frames arrive costs the same
as one big concatenation, just spread over the transfer.
"""

from __future__ import annotations

from typing import Iterator, Protocol, Sequence

import numpy as np

from repro.core.pointset import merge_sorted_runs
from repro.net.codec import _point_columns
from repro.net.frame import Buffer

#: Points per PARTIAL frame: 256Ki points = 4 MiB of packed columns,
#: big enough to amortise framing, small enough to bound buffering.
STREAM_CHUNK_POINTS = 256 * 1024


def iter_point_chunks(
    zindexes: np.ndarray, values: np.ndarray, chunk_points: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Slice a column pair into ``(seq, zindexes, values)`` chunks."""
    if chunk_points <= 0:
        raise ValueError(f"chunk_points must be positive, got {chunk_points}")
    for seq, start in enumerate(range(0, len(zindexes), chunk_points)):
        stop = start + chunk_points
        yield seq, zindexes[start:stop], values[start:stop]


class PartialSink(Protocol):
    """Receiver for a call's PARTIAL frames.

    ``reset`` is invoked by the pool at the start of every attempt so a
    retried call never double-counts chunks delivered before the
    connection died; ``feed`` gets each decoded partial message in
    arrival order, before the final response returns to the caller.
    """

    def reset(self) -> None:
        """Drop everything accumulated so far (fresh retry attempt)."""
        ...

    def feed(self, header: dict, blobs: Sequence[Buffer]) -> None:
        """Accept one decoded PARTIAL message in arrival order.

        ``blobs`` may be zero-copy views of a transport buffer — on a
        shared-memory connection, of a ring slot that is handed back to
        the server the moment ``feed`` returns.  Implementations must
        copy whatever they keep and retain no view past the call.
        """
        ...


class PointRunAccumulator:
    """Incrementally merges Morton-sorted column chunks.

    Nodes emit chunks in Morton order, so each ``extend`` takes
    :func:`merge_sorted_runs`'s concatenation fast path; the stable
    argsort fallback still guarantees correctness if a peer ever
    interleaves runs.
    """

    def __init__(self) -> None:
        self._zindexes = np.empty(0, dtype=np.uint64)
        self._values = np.empty(0, dtype=np.float64)

    def reset(self) -> None:
        """Drop the merged prefix and start over."""
        self._zindexes = np.empty(0, dtype=np.uint64)
        self._values = np.empty(0, dtype=np.float64)

    def extend(self, zindexes: np.ndarray, values: np.ndarray) -> None:
        """Merge one more sorted chunk into the accumulated columns."""
        if not len(zindexes):
            return
        if not len(self._zindexes):
            # Copy on adoption: the chunk's columns are zero-copy views
            # of a transport buffer (possibly a shared-memory ring slot
            # the server rewrites right after this call returns), and
            # the accumulator's prefix outlives that buffer.
            self._zindexes = zindexes.copy()
            self._values = values.copy()
            return
        self._zindexes, self._values = merge_sorted_runs(
            [(self._zindexes, self._values), (zindexes, values)]
        )

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The merged ``(zindexes, values)`` columns so far."""
        return self._zindexes, self._values


class PointStreamSink:
    """:class:`PartialSink` for a streamed point-set response.

    Chunks carry their run's ``"query"`` index in the PARTIAL header
    (absent = run 0, the single run of a threshold response; a batch
    streams one run per query); each run gets its own accumulator so
    its points keep their Morton order.
    """

    def __init__(self) -> None:
        self._runs: dict[int, PointRunAccumulator] = {}
        self.partial_frames = 0

    def reset(self) -> None:
        """Drop every run's accumulated chunks (the pool retries the
        whole call)."""
        self._runs.clear()
        self.partial_frames = 0

    def feed(self, header: dict, blobs: Sequence[Buffer]) -> None:
        """Merge one chunk's packed point columns into its run."""
        zindexes, values = _point_columns(blobs, 0)
        self._runs.setdefault(
            int(header.get("query", 0)), PointRunAccumulator()
        ).extend(zindexes, values)
        self.partial_frames += 1

    def runs(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """The fully merged ``(zindexes, values)`` columns per run."""
        return {index: run.columns() for index, run in self._runs.items()}


class ByteStreamSink:
    """:class:`PartialSink` that just counts streamed payload bytes.

    Used by the echo/transfer diagnostics and benchmarks, where only
    the raw byte volume matters.
    """

    def __init__(self) -> None:
        self.raw_bytes = 0
        self.partial_frames = 0

    def reset(self) -> None:
        """Zero the byte and frame counters."""
        self.raw_bytes = 0
        self.partial_frames = 0

    def feed(self, header: dict, blobs: Sequence[Buffer]) -> None:
        """Tally one chunk's blob bytes."""
        for blob in blobs:
            self.raw_bytes += len(blob)
        self.partial_frames += 1
