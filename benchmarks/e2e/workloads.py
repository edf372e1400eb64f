"""The four request scripts, each an endless seeded generator.

A script depends on the workload name, the problem size, the thresholds
calibrated at set-up and ``--seed`` — nothing else — so the same seed
replays byte for byte.  Every request carries what its answer must say
about the semantic cache, which the oracle checks with the points.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterator

from system import DATASET, NODES, Scale

#: Derived fields the workloads query; all are kernels over ``velocity``.
FIELDS = ("vorticity", "q_criterion", "r_invariant")
#: Target selectivities: the paper's sparse "intense events" result and
#: a bulk one that stresses codecs, merge and JSON.
SPARSE = 0.001
FAT = 0.2

@dataclass(frozen=True)
class Request:
    payload: dict
    #: ``cache_hits`` the answer must report, or ``None`` when the value
    #: depends on what ran before (``explore_mix``).
    expect_hits: "int | None" = None
    #: Node parts this request asks that the semantic cache could serve.
    parts: int = 0


@dataclass
class Workload:
    name: str
    #: Untimed requests that put the caches into the workload's state.
    preload: list[Request]
    #: Untimed requests taken from the head of ``script``.
    warmup: int
    script: Iterator[Request]


#: name -> (path, client threads, fields whose thresholds are calibrated);
#: why each workload exists is recorded in BENCHMARK.json and the README.
SPECS = {
    "cold_scan": ("shipped", 1, ("vorticity",)),
    "warm_hit": ("shipped", 1, ("vorticity",)),
    "fat_result": ("shipped", 1, ("vorticity",)),
    "explore_mix": ("library", 2, FIELDS),
}


def _threshold(field: str, timestep: int, threshold: float, box=None) -> dict:
    payload = {
        "method": "GetThreshold", "dataset": DATASET, "field": field,
        "timestep": timestep, "threshold": threshold,
    }
    if box is not None:
        payload["box"] = list(box)
    return payload


def _zoom_boxes(scale: Scale) -> list[tuple[tuple, int]]:
    """Atom-aligned half-side boxes, each with the number of nodes that
    hold a piece of it — the ``cache_hits`` of a fully cached answer."""
    from repro.cluster.partition import MortonPartitioner
    from repro.grid import Box

    partitioner = MortonPartitioner(scale.side, NODES)
    half = scale.side // 2
    boxes = []
    for lo in itertools.product(range(0, half + 1, 8), repeat=3):
        corners = (*lo, *(c + half for c in lo))
        box = Box.from_corners(corners)
        parts = sum(
            1 for node in range(NODES) if partitioner.query_boxes(node, box)
        )
        boxes.append((corners, parts))
    return boxes


def _cold_scan(scale: Scale, rng: random.Random, theta: float):
    """Full-domain scans, timesteps cycled, threshold a hair lower each
    cycle: every lookup finds a stale entry, none can answer."""
    start = rng.randrange(scale.timesteps)
    threshold = theta
    while True:
        for step in range(scale.timesteps):
            timestep = (start + step) % scale.timesteps
            yield Request(_threshold("vorticity", timestep, threshold), 0, NODES)
        threshold *= 1.0 - 1e-4 * (1.0 + rng.random())


def _warm_hit(scale: Scale, rng: random.Random, theta: float):
    """Equal thirds: identical repeats, dominance repeats, contained boxes."""
    boxes = _zoom_boxes(scale)
    while True:
        kinds = ["same", "higher", "zoom"]
        rng.shuffle(kinds)
        for kind in kinds:
            timestep = rng.randrange(scale.timesteps)
            corners, parts = None, NODES
            threshold = theta
            if kind == "higher":
                threshold = theta * (1.0 + 0.25 * rng.random())
            elif kind == "zoom":
                corners, parts = boxes[rng.randrange(len(boxes))]
            yield Request(
                _threshold("vorticity", timestep, threshold, corners),
                parts, parts,
            )


def _fat_result(scale: Scale, rng: random.Random, theta: float):
    """Bulk answers served by dominance from one fat entry per timestep."""
    while True:
        timestep = rng.randrange(scale.timesteps)
        threshold = theta * (1.0 + 0.01 * rng.random())
        yield Request(_threshold("vorticity", timestep, threshold), NODES, NODES)


#: ``explore_mix`` request kinds per cycle of 48 requests, on the hot
#: keys (the six most popular) and on the cold tail.
_MIX_HOT = {"full": 12, "zoom": 8, "batch": 2}
_MIX_COLD = {"zoom": 22, "pdf": 2, "topk": 2}
_HOT_KEYS = 6


def _apportion(weights: list[float], slots: int) -> list[int]:
    """Split ``slots`` in proportion to ``weights`` (largest remainder)."""
    total = sum(weights)
    exact = [slots * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (counts[i] - exact[i], i)
    )
    for i in by_remainder[: slots - sum(counts)]:
        counts[i] += 1
    return counts


def _deck(rng: random.Random, cards: list):
    """Deal ``cards`` in seeded order, reshuffling when they run out."""
    while True:
        hand = list(cards)
        rng.shuffle(hand)
        yield from hand


def mix_keys(scale: Scale) -> tuple[list, list]:
    """``explore_mix``'s (field, timestep) keys by falling popularity,
    fields alternating down the ranks: the hot set and the cold tail."""
    keys = [(f, t) for t in range(scale.timesteps) for f in FIELDS]
    return keys[:_HOT_KEYS], keys[_HOT_KEYS:]


def _explore_mix(scale: Scale, rng: random.Random, thetas: dict[str, float]):
    """A resident hot set under a stream of cold scans, all four kinds.

    Popularity is Zipf(1.1) over 3 fields x the timesteps.  Stratified:
    every cycle of 48 requests holds exactly the same kinds on exactly
    the same keys (each kind's slots split over its keys by Zipf
    weight), and zoom boxes and threshold factors are dealt from
    decks; the seed decides the order of all of it, not how much of
    each there is.

    What the cache does is as predictable as a cache under eviction
    gets, so that the latency percentiles sit inside one mode each
    instead of on a boundary between two, where a few requests more or
    less move them tenfold:

    * a full-domain threshold on a hot key is a hair lower than the
      last one on that key — a miss that replaces the key's stale
      entry, like ``cold_scan`` (25 %, the slow mode, the 90th
      percentile);
    * zooms and batches on hot keys ask at up to 15 % above the sparse
      threshold — dominance hits as long as the key's entries are
      resident, and LRU keeps them so (21 %; with cached PDFs the fast
      mode, the 10th percentile);
    * zooms on cold keys go ever lower too — always misses, each
      storing a small entry nobody asks for again, the stream that
      evictions drain (46 %; with top-k scans the middle mode, the
      median).
    """
    hot, cold = mix_keys(scale)
    cycle = []
    for keys, kinds in ((hot, _MIX_HOT), (cold or hot, _MIX_COLD)):
        weights = [1.0 / rank**1.1 for rank in range(1, len(keys) + 1)]
        for kind, slots in kinds.items():
            resident = keys is hot
            for key, count in zip(keys, _apportion(weights, slots)):
                cycle += [(kind, resident, key)] * count
    requests = _deck(rng, cycle)
    boxes = _deck(rng, _zoom_boxes(scale))
    above = _deck(rng, [1.0 + 0.15 * i / 23.0 for i in range(24)])
    lowered: dict[tuple, int] = {}
    top_k = min(50, scale.points // 8)

    def ever_lower(field: str, timestep: int) -> float:
        lowered[field, timestep] = lowered.get((field, timestep), 0) + 1
        return thetas[field] * (1.0 - 1e-3 * lowered[field, timestep])

    for kind, resident, (field, timestep) in requests:
        if kind == "pdf":
            edges = [thetas[field] * i / 8.0 for i in range(17)]
            yield Request({
                "method": "GetPdf", "dataset": DATASET, "field": field,
                "timestep": timestep, "bin_edges": edges,
            })
        elif kind == "topk":
            yield Request({
                "method": "GetTopK", "dataset": DATASET, "field": field,
                "timestep": timestep, "k": top_k,
            })
        elif kind == "batch":
            yield Request({
                "method": "GetBatchThreshold",
                "queries": [
                    {"dataset": DATASET, "field": f, "timestep": timestep,
                     "threshold": thetas[f] * next(above)}
                    for f in FIELDS
                ],
            }, None, NODES * len(FIELDS))
        elif kind == "full":
            yield Request(
                _threshold(field, timestep, ever_lower(field, timestep)),
                None, NODES,
            )
        else:
            corners, parts = next(boxes)
            threshold = (
                thetas[field] * next(above) if resident
                else ever_lower(field, timestep)
            )
            yield Request(
                _threshold(field, timestep, threshold, corners), None, parts
            )


def build(
    name: str, scale: Scale, seed: int, thresholds: dict[str, dict[float, float]]
) -> Workload:
    """The workload ``name`` for ``seed``; ``thresholds[field][selectivity]``."""
    rng = random.Random(f"{name}:{seed}")

    def one_per_timestep(theta: float) -> list[Request]:
        return [
            Request(_threshold("vorticity", t, theta), 0, NODES)
            for t in range(scale.timesteps)
        ]

    if name == "cold_scan":
        theta = thresholds["vorticity"][SPARSE]
        # One whole cycle of warm-up, so every timed lookup finds (and
        # replaces) a stale entry: the steady state of a miss.
        return Workload(
            name, [], scale.timesteps, _cold_scan(scale, rng, theta)
        )
    if name == "warm_hit":
        theta = thresholds["vorticity"][SPARSE]
        return Workload(
            name, one_per_timestep(theta), 12, _warm_hit(scale, rng, theta)
        )
    if name == "fat_result":
        theta = thresholds["vorticity"][FAT]
        return Workload(
            name, one_per_timestep(theta), 4, _fat_result(scale, rng, theta)
        )
    if name == "explore_mix":
        thetas = {field: thresholds[field][SPARSE] for field in FIELDS}
        # The hot set is computed once before the clock starts.
        preload = [
            Request(_threshold(f, t, thetas[f]), None, NODES)
            for f, t in mix_keys(scale)[0]
        ]
        return Workload(name, preload, 16, _explore_mix(scale, rng, thetas))
    raise ValueError(f"unknown workload {name!r}; known: {sorted(SPECS)}")


def script_bytes(workload: Workload, count: int) -> bytes:
    """The first ``count`` requests of a fresh workload, serialised."""
    return json.dumps(
        [r.payload for r in itertools.islice(workload.script, count)],
        sort_keys=True,
    ).encode()


def calibration_edges() -> list[float]:
    """Bin edges of the calibration PDF: fine geometric steps (2.9 %
    each) over every norm magnitude the three fields reach."""
    ratio = 10.0 ** (6.0 / 480.0)
    return [1e-2 * ratio**i for i in range(481)]


def thresholds_from_pdf(
    edges: list[float], counts: list[int], points: int
) -> dict[float, float]:
    """The lowest bin edge whose tail holds at most each target share."""
    found: dict[float, float] = {}
    for target in (SPARSE, FAT):
        tail = 0
        chosen = edges[-1]
        for edge, count in zip(reversed(edges), reversed(counts)):
            if tail + count > target * points:
                break
            tail += count
            chosen = edge
        found[target] = chosen
    return found
