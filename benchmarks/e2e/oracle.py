"""The reference every answer is checked against, point for point.

A single-node, cache-disabled, in-process cluster evaluates each
distinct (field, timestep) once into a dense norm array; thresholds,
top-k and PDF answers are then plain ``numpy`` on that array.  The
distributed, cached, networked answer must equal it exactly: same
points, same Morton order, same float values, same counts.
"""

from __future__ import annotations

import time
from operator import itemgetter

import numpy as np

from system import DATASET, DATASET_SEED, Scale


_POINT = itemgetter("x", "y", "z", "value")


class Oracle:
    def __init__(self, scale: Scale) -> None:
        from repro import build_cluster, mhd_dataset
        from repro.grid import Box

        started = time.perf_counter()
        self.scale = scale
        self._domain = Box.cube(scale.side)
        dataset = mhd_dataset(
            side=scale.side, timesteps=scale.timesteps, seed=DATASET_SEED
        )
        self._mediator = build_cluster(
            dataset, nodes=1, cache_capacity_bytes=None, load=False
        )
        # Every derived field the workloads query is a velocity kernel.
        self._mediator.load_dataset(dataset, fields=["velocity"])
        self._dense: dict[tuple[str, int], np.ndarray] = {}
        self._curve: dict[tuple[str, int], np.ndarray] = {}
        self._coords: "np.ndarray | None" = None
        #: Seconds spent building the reference, reported as bench.oracle_s.
        self.seconds = time.perf_counter() - started

    def close(self) -> None:
        self._mediator.close()

    def dense(self, field: str, timestep: int) -> np.ndarray:
        """The field's norm at every grid point, ``(side, side, side)``."""
        key = (field, timestep)
        if key not in self._dense:
            started = time.perf_counter()
            self._dense[key], _ = self._mediator.get_field(
                DATASET, field, timestep, self._domain
            )
            self.seconds += time.perf_counter() - started
        return self._dense[key]

    def _in_morton_order(self, field: str, timestep: int) -> np.ndarray:
        """The dense norms as one vector along the Morton curve."""
        from repro.morton import encode_array

        if self._coords is None:
            axis = np.arange(self.scale.side)
            grid = np.stack(
                np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1
            ).reshape(-1, 3)
            order = np.argsort(
                encode_array(grid[:, 0], grid[:, 1], grid[:, 2]), kind="stable"
            )
            self._coords = grid[order]
        key = (field, timestep)
        if key not in self._curve:
            c = self._coords
            self._curve[key] = self.dense(field, timestep)[c[:, 0], c[:, 1], c[:, 2]]
        return self._curve[key]

    def threshold(
        self, field: str, timestep: int, threshold: float,
        box: "tuple[int, ...] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(coordinates (n, 3), values (n,))`` in Morton order."""
        values = self._in_morton_order(field, timestep)
        keep = values >= threshold
        if box is not None:
            for axis in range(3):
                along = self._coords[:, axis]
                keep &= (along >= box[axis]) & (along < box[axis + 3])
        return self._coords[keep], values[keep]

    def count_at(
        self, field: str, timestep: int, threshold: float,
        box: "tuple[int, ...] | None" = None,
    ) -> int:
        norm = self.dense(field, timestep)
        if box is not None:
            norm = norm[box[0]:box[3], box[1]:box[4], box[2]:box[5]]
        return int(np.count_nonzero(norm >= threshold))

    def topk_values(self, field: str, timestep: int, k: int) -> np.ndarray:
        """The k largest norms, descending."""
        flat = self.dense(field, timestep).ravel()
        return np.sort(np.partition(flat, -k)[-k:])[::-1]

    def pdf(
        self, field: str, timestep: int, bin_edges: "list[float]"
    ) -> list[int]:
        """Counts per bin; the last bin is open-ended."""
        counts, _ = np.histogram(
            self.dense(field, timestep),
            bins=np.append(np.asarray(bin_edges, dtype=np.float64), np.inf),
        )
        return [int(c) for c in counts]

    # -- checking one response ---------------------------------------------------

    def check(self, request: dict, response: dict, expect_hits) -> str | None:
        """``None`` when ``response`` is exactly right, else what is wrong."""
        if response.get("status") != "ok":
            return f"status {response.get('status')}: {response.get('code')}"
        method = request["method"]
        if method == "GetThreshold":
            return self._check_threshold(request, response, expect_hits)
        if method == "GetTopK":
            return self._check_topk(request, response)
        if method == "GetPdf":
            expected = self.pdf(
                request["field"], request["timestep"], request["bin_edges"]
            )
            return None if response["counts"] == expected else "pdf counts differ"
        if method == "GetBatchThreshold":
            return self._check_batch(request, response)
        return f"no oracle for {method}"

    def _check_threshold(self, request, response, expect_hits) -> str | None:
        coords, values = self.threshold(
            request["field"], request["timestep"], request["threshold"],
            request.get("box"),
        )
        points = response["points"]
        if response["count"] != len(points) or len(points) != len(values):
            return (
                f"count {response['count']} / {len(points)} points, "
                f"oracle has {len(values)}"
            )
        if points:
            # Coordinates are small integers, exact in float64: one array.
            got = np.array(
                list(map(_POINT, points)), dtype=np.float64
            ).reshape(-1, 4)
            # Equality with the Morton-sorted reference checks the order too.
            if not np.array_equal(got[:, :3], coords):
                return "coordinates (or their Morton order) differ"
            if not np.array_equal(got[:, 3], values.astype(np.float64)):
                return "values differ"
        if expect_hits is not None and response["cache_hits"] != expect_hits:
            return f"cache_hits {response['cache_hits']}, expected {expect_hits}"
        return None

    def _check_topk(self, request, response) -> str | None:
        norm = self.dense(request["field"], request["timestep"])
        expected = self.topk_values(
            request["field"], request["timestep"], request["k"]
        )
        points = response["points"]
        got = np.array([p["value"] for p in points], dtype=np.float64)
        if not np.array_equal(got, expected.astype(np.float64)):
            return "top-k values differ"
        for p in points:
            if float(norm[p["x"], p["y"], p["z"]]) != p["value"]:
                return "a top-k point does not carry its own norm"
        if len({(p["x"], p["y"], p["z"]) for p in points}) != len(points):
            return "top-k repeats a point"
        return None

    def _check_batch(self, request, response) -> str | None:
        results = response["results"]
        if len(results) != len(request["queries"]):
            return "batch answered a different number of queries"
        for query, result in zip(request["queries"], results):
            _, values = self.threshold(
                query["field"], query["timestep"], query["threshold"]
            )
            if result["count"] != len(values):
                return f"batch count for {query['field']} differs"
            peak = float(values.max()) if len(values) else None
            if result["values_max"] != peak:
                return f"batch values_max for {query['field']} differs"
        return None
