"""Per-layer probes: each layer timed from outside, on its public calls.

A traced run ends here.  The probes own a fresh shipped cluster (so
their numbers do not depend on which workload ran before) and an
in-process two-node *mirror* of the same shards.  ``.cold``, ``.hit``
and ``.fat`` name the probe queries: the queries of ``cold_scan``,
``warm_hit`` and ``fat_result``.

Cache state the probes rely on, on the shipped nodes and the mirror
alike: the last timestep holds one fat (20 %) entry; every other
timestep is first hit by cold probes at ever lower thresholds just
under the sparse one, which leaves a sparse entry that the hit probes,
run afterwards at the sparse threshold itself, are served from.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from measure import machine_calibration, speed_factor, union_length
from system import DATASET, DATASET_SEED, NODES, Scale, ShippedSystem
from workloads import FAT, SPARSE

FD_ORDER = 4
PROCESSES = 4  # the web service's default ``processes`` per request


def _median_ms(calls: int, fn) -> float:
    """Median milliseconds of ``fn(i)`` over ``calls`` calls, at the
    reference machine speed (calibrated before and after, as a pass of
    the replay is)."""
    before = machine_calibration()
    times = []
    for i in range(calls):
        started = time.perf_counter()
        fn(i)
        times.append(time.perf_counter() - started)
    factor = speed_factor(before, machine_calibration())
    return statistics.median(times) * 1e3 * factor


class _Timed:
    """Delegating proxy that records ``(key, start, end)`` of one method.

    Passed where the program expects a ``Transport`` or a ``Mediator``;
    everything but the watched method falls through untouched.
    """

    def __init__(self, inner, method: str) -> None:
        self._inner = inner
        self._method = method
        self.spans: list[tuple[object, float, float]] = []

    def __getattr__(self, name: str):
        attribute = getattr(self._inner, name)
        if name != self._method:
            return attribute

        def watched(*args, **kwargs):
            started = time.perf_counter()
            try:
                return attribute(*args, **kwargs)
            finally:
                self.spans.append((args[0], started, time.perf_counter()))

        return watched


class _Queries:
    """The probe queries and where in the cache each one lands.

    ``sparse_timesteps`` caps how many timesteps the cold and hit
    probes cycle through (the mirror ingests only that many).
    """

    def __init__(
        self, scale: Scale, thresholds: dict[float, float],
        sparse_timesteps: "int | None" = None,
    ) -> None:
        self.fat_timestep = scale.timesteps - 1
        self.sparse_timesteps = list(range(scale.timesteps - 1))[:sparse_timesteps]
        self.sparse = thresholds[SPARSE]
        self.fat = thresholds[FAT]
        self._cold_calls = 0
        self._hit_calls = 0

    def _payload(self, timestep: int, threshold: float) -> dict:
        return {
            "method": "GetThreshold", "dataset": DATASET, "field": "vorticity",
            "timestep": timestep, "threshold": threshold,
        }

    def cold(self) -> dict:
        """Never asked before, and below everything stored: a miss."""
        self._cold_calls += 1
        timesteps = self.sparse_timesteps
        return self._payload(
            timesteps[self._cold_calls % len(timesteps)],
            self.sparse * (1.0 - 1e-4 * self._cold_calls),
        )

    def hit(self) -> dict:
        self._hit_calls += 1
        timesteps = self.sparse_timesteps
        return self._payload(
            timesteps[self._hit_calls % len(timesteps)], self.sparse
        )

    def fat_preload(self) -> dict:
        return self._payload(self.fat_timestep, self.fat)

    def fat_hit(self) -> dict:
        return self._payload(self.fat_timestep, self.fat * 1.005)


def _query(payload: dict):
    from repro.core import ThresholdQuery

    return ThresholdQuery(
        DATASET, payload["field"], payload["timestep"], payload["threshold"]
    )


def run(scale: Scale, out_dir: Path, thresholds: dict[float, float]) -> dict:
    """Every probe metric of the table in the README, by name."""
    queries = _Queries(scale, thresholds)
    metrics: dict[str, float] = {}
    rig = ShippedSystem(scale, out_dir, log_prefix="probe-")
    rig.start()
    try:
        _wire_probes(rig, scale, queries, metrics)
        rig.check_alive()
    finally:
        rig.stop()
    _mirror_probes(scale, _Queries(scale, thresholds, 2), metrics)
    return metrics


# -- the shipped cluster: door, mediator, transport, wire ---------------------


def _wire_probes(rig: ShippedSystem, scale, queries: _Queries, m: dict) -> None:
    from repro.cluster.mediator import Mediator
    from repro.cluster.partition import MortonPartitioner
    from repro.cluster.webservice import WebService
    from repro.costmodel.ledger import METER_WIRE_BYTES
    from repro.grid import Box
    from repro.ha import HaTcpTransport, PlacementMap
    from repro.net.compress import NO_COMPRESSION
    from repro.net.transport import TcpTransport
    from repro.obs import tracing

    partitioner = MortonPartitioner(scale.side, NODES)
    boxes0 = partitioner.query_boxes(0, Box.cube(scale.side))
    part_args = dict(use_cache=True, processes=PROCESSES, io_only=False)

    rig.request(queries.fat_preload())
    m["net.aio.light_rtt_ms"] = _median_ms(
        30, lambda i: rig.request({"method": "ListFields"})
    )

    # One generator-side stack over its own TCP transport to the same
    # nodes: web service -> mediator -> transport, each call watched.
    transport = _Timed(TcpTransport(rig.node_addresses), "threshold_part")
    mediator = _Timed(
        Mediator(nodes=[], partitioner=partitioner, transport=transport),
        "threshold",
    )
    service = WebService(mediator)

    def stack(payload: dict) -> dict[str, float]:
        """One ``handle`` call split into its three layers' self times."""
        transport.spans.clear()
        mediator.spans.clear()
        started = time.perf_counter()
        response = service.handle(payload)
        handled = time.perf_counter() - started
        if response["status"] != "ok":
            raise RuntimeError(f"probe query failed: {response}")
        (_, m_start, m_end), = mediator.spans
        covered = union_length([(s, e) for _, s, e in transport.spans])
        node0 = next((e - s) for n, s, e in transport.spans if n == 0)
        return {
            "handle": handled * 1e3,
            "webservice": (handled - (m_end - m_start)) * 1e3,
            "mediator": (m_end - m_start - covered) * 1e3,
            "part": node0 * 1e3,
        }

    def stack_medians(calls: int, make_payload) -> dict[str, float]:
        before = machine_calibration()
        rows = [stack(make_payload()) for _ in range(calls)]
        factor = speed_factor(before, machine_calibration())
        return {
            key: statistics.median(row[key] for row in rows) * factor
            for key in rows[0]
        }

    try:
        cold = stack_medians(9, queries.cold)
        m["cluster.mediator.self_ms.cold"] = cold["mediator"]
        m["net.transport.part_ms.cold"] = cold["part"]

        raw = TcpTransport(rig.node_addresses, compression=NO_COMPRESSION)
        ha = HaTcpTransport(
            rig.node_addresses, placement=PlacementMap(NODES, NODES, 1)
        )
        try:
            def part(target, payload):
                return target.threshold_part(
                    0, _query(payload), boxes0, **part_args
                )

            m["net.transport.wire_bytes.cold"] = part(
                transport, queries.cold()
            ).ledger.meter(METER_WIRE_BYTES)
            m["ha.part_ms.cold"] = _median_ms(
                7, lambda i: part(ha, queries.cold())
            )

            # Tracing on/off on the generator-side stack, interleaved so
            # machine drift cancels.  With a collector installed the
            # trace context rides every RPC and node spans ship back.
            def overhead(calls: int, make_payload) -> float:
                on, off = [], []
                for i in range(2 * calls):
                    if i % 2 == 0:
                        tracing.install()
                    try:
                        (on if i % 2 == 0 else off).append(
                            stack(make_payload())["handle"]
                        )
                    finally:
                        tracing.uninstall()
                return statistics.median(on) / statistics.median(off)

            m["obs.tracing.overhead_ratio.cold"] = overhead(6, queries.cold)

            # From here on every sparse timestep holds a sparse entry.
            door_hit = _median_ms(30, lambda i: rig.request(queries.hit()))
            hit = stack_medians(30, queries.hit)
            m["net.aio.self_ms.hit"] = door_hit - hit["handle"]
            m["cluster.webservice.self_ms.hit"] = hit["webservice"]
            m["cluster.mediator.self_ms.hit"] = hit["mediator"]
            m["net.transport.part_ms.hit"] = hit["part"]
            m["ha.part_ms.hit"] = _median_ms(
                30, lambda i: part(ha, queries.hit())
            )
            m["obs.tracing.overhead_ratio.hit"] = overhead(20, queries.hit)
            m["net.transport.ping_rtt_ms"] = _median_ms(
                30, lambda i: transport.ping(0)
            )

            door_fat = _median_ms(9, lambda i: rig.request(queries.fat_hit()))
            fat = stack_medians(9, queries.fat_hit)
            m["net.aio.self_ms.fat"] = door_fat - fat["handle"]
            m["cluster.webservice.self_ms.fat"] = fat["webservice"]
            m["cluster.mediator.self_ms.fat"] = fat["mediator"]
            m["net.transport.part_ms.fat"] = fat["part"]
            m["net.transport.part_ms.fat.raw"] = _median_ms(
                9, lambda i: part(raw, queries.fat_hit())
            )
            m["net.transport.wire_bytes.fat"] = part(
                transport, queries.fat_hit()
            ).ledger.meter(METER_WIRE_BYTES)
        finally:
            raw.close()
            ha.close()
        _halo_probe(rig, scale, partitioner, m)
    finally:
        mediator.close()


def _halo_probe(rig: ShippedSystem, scale, partitioner, m: dict) -> None:
    """Node 1's boundary band, fetched from node 0 the way node 1 does."""
    from repro.costmodel import paper_cluster
    from repro.fields import default_registry
    from repro.grid import Box
    from repro.grid.atoms import atom_ranges_covering
    from repro.net.pool import ConnectionPool
    from repro.net.server import RemoteHaloPeer
    from repro.net.transport import parse_address

    halo = default_registry().get("vorticity").halo(FD_ORDER)
    seen, ranges = set(), []
    for box in partitioner.query_boxes(1, Box.cube(scale.side)):
        for piece, _ in box.expand(halo).wrap_periodic(scale.side):
            for rng in atom_ranges_covering(piece, scale.side):
                for node, span in partitioner.node_spans(rng):
                    if node == 0 and (span.start, span.stop) not in seen:
                        seen.add((span.start, span.stop))
                        ranges.append(span)
    host, port = parse_address(rig.node_addresses[0])
    # Serial connections, as the node servers use towards their peers.
    pool = ConnectionPool(host, port, max_connections=2, pipeline=False)
    try:
        peer = RemoteHaloPeer(pool, paper_cluster(), timeout=60.0)
        atoms = peer.serve_halo(DATASET, "velocity", 0, ranges, None)
        m["net.server.halo_bytes"] = float(sum(len(b) for b in atoms.values()))
        m["net.server.halo_rtt_ms"] = _median_ms(
            20, lambda i: peer.serve_halo(DATASET, "velocity", 0, ranges, None)
        )
    finally:
        pool.close()


# -- the mirror: core, cluster.node, storage, simulation, fields, codecs ------


def _mirror_probes(scale: Scale, queries: _Queries, m: dict) -> None:
    from repro import build_cluster, mhd_dataset
    from repro.core import ThresholdResult
    from repro.core.pointset import merge_sorted_runs
    from repro.core.threshold import get_threshold_on_node
    from repro.costmodel import CostLedger
    from repro.grid import Box
    from repro.net import codec
    from repro.net.compress import CompressionConfig, FrameCodec
    from repro.simulation.ingest import array_from_atoms

    timesteps = sorted({*queries.sparse_timesteps, queries.fat_timestep})
    dataset = mhd_dataset(
        side=scale.side, timesteps=scale.timesteps, seed=DATASET_SEED
    )
    started = time.perf_counter()
    for timestep in timesteps:
        dataset.field_array("velocity", timestep)
    m["simulation.synth_s"] = (time.perf_counter() - started) / len(timesteps)

    mirror = build_cluster(dataset, nodes=NODES, load=False)
    try:
        started = time.perf_counter()
        atoms = mirror.load_dataset(
            dataset, timesteps=timesteps, fields=["velocity"]
        )
        m["storage.ingest_atoms_per_s"] = atoms / (time.perf_counter() - started)

        node, executor = mirror.nodes[0], mirror.executors[0]
        registry = mirror.registry
        spec = node.dataset(DATASET)
        vorticity = registry.get("vorticity")
        boxes = mirror.partitioner.query_boxes(0, Box.cube(scale.side))
        timestep = queries.sparse_timesteps[0]

        def on_node(payload: dict, node_id: int = 0):
            return get_threshold_on_node(
                mirror.nodes[node_id], mirror.executors[node_id],
                mirror.caches[node_id], registry, _query(payload),
                mirror.partitioner.query_boxes(node_id, Box.cube(scale.side)),
                processes=PROCESSES,
            )

        m["core.threshold.node_ms.cold"] = _median_ms(
            9, lambda i: on_node(queries.cold())
        )

        def evaluate(processes: int, io_only: bool = False) -> None:
            ledger = CostLedger()
            txn = node.db.begin(ledger)
            executor.evaluate(
                txn, ledger, spec, vorticity, timestep, boxes, queries.sparse,
                FD_ORDER, processes=processes, io_only=io_only,
            )
            txn.commit()

        for processes in (1, 4):
            m[f"core.executor.evaluate_ms.p{processes}"] = _median_ms(
                7, lambda i: evaluate(processes)
            )
            # The whole read phase — ranges, atoms, halo, tile — no kernel.
            m[f"core.executor.io_ms.p{processes}"] = _median_ms(
                7, lambda i: evaluate(processes, io_only=True)
            )
        m["core.executor.prefetch_halo_ms"] = _median_ms(
            9, lambda i: executor.prefetch_halo(
                CostLedger(), spec, vorticity, timestep, boxes, FD_ORDER
            )
        )

        read: dict[int, bytes] = {}

        def read_atoms(i: int) -> None:
            # Another timestep each call: the 2 MiB pool holds only one.
            read.clear()
            with node.db.transaction(CostLedger()) as txn:
                for box in boxes:
                    read.update(node.read_atoms_for_box(
                        txn, DATASET, "velocity",
                        timesteps[i % len(timesteps)], box,
                    ))

        read_ms = _median_ms(15, read_atoms)
        m["cluster.node.read_atoms_ms"] = read_ms
        m["cluster.node.read_atoms_mib_s"] = (
            sum(len(b) for b in read.values()) / 2**20 / (read_ms / 1e3)
        )

        table = node.db.table(f"atoms_{DATASET}_velocity")

        def scan() -> None:
            with node.db.transaction(CostLedger()) as txn:
                for _ in table.scan_column_batches(
                    txn, ["zindex", "blob"], (timestep, 0), (timestep + 1, 0)
                ):
                    pass

        m["storage.table.scan_atoms_per_s"] = len(read) / (
            _median_ms(15, lambda i: scan()) / 1e3
        )

        def transactions() -> None:
            for _ in range(200):
                node.db.begin().commit()

        m["storage.mvcc.txn_us"] = _median_ms(9, lambda i: transactions()) * 5.0
        m["simulation.ingest.tile_ms"] = _median_ms(
            15, lambda i: [array_from_atoms(box, read, 3) for box in boxes]
        )

        _kernel_probes(scale, dataset, mirror, boxes, m)

        # From here on the mirror's sparse timesteps hold sparse entries.
        m["core.threshold.node_ms.hit"] = _median_ms(
            30, lambda i: on_node(queries.hit())
        )
        parts = [on_node(queries.fat_preload(), n) for n in range(NODES)]
        m["core.threshold.node_ms.fat"] = _median_ms(
            9, lambda i: on_node(queries.fat_hit())
        )

        runs = [(p.zindexes, p.values) for p in parts]
        m["core.pointset.merge_ms.fat"] = _median_ms(
            15, lambda i: merge_sorted_runs(runs)
        )
        merged = ThresholdResult(*merge_sorted_runs(runs), CostLedger())
        m["morton.decode_mpoints_s"] = len(merged) / 1e6 / (
            _median_ms(15, lambda i: merged.coordinates()) / 1e3
        )

        _cache_probes(mirror, queries, m)

        header, blobs = codec.threshold_result_to_wire(parts[0])
        payload_mib = sum(len(b) for b in blobs) / 2**20
        m["net.codec.encode_mib_s"] = payload_mib / (_median_ms(
            15, lambda i: codec.encode_message(
                *codec.threshold_result_to_wire(parts[0])
            )
        ) / 1e3)
        frame = codec.encode_message(header, blobs)
        m["net.codec.decode_mib_s"] = payload_mib / (_median_ms(
            15, lambda i: codec.threshold_result_from_wire(
                *codec.decode_message(frame)
            )
        ) / 1e3)
        for name in ("zlib", "shuffle-zlib"):
            framer = FrameCodec(
                CompressionConfig(codecs=(name,)), codec=name
            )
            sizes = []
            m[f"net.compress.encode_mib_s.{name}"] = payload_mib / (_median_ms(
                9, lambda i: sizes.append(framer.encode([frame], len(frame))[2])
            ) / 1e3)
            m[f"net.compress.ratio.{name}"] = len(frame) / sizes[-1]
    finally:
        mirror.close()


def _kernel_probes(scale, dataset, mirror, boxes, m: dict) -> None:
    """Each kernel over one node's halo'd share; work counted, not guessed."""
    lo = [min(b.lo[a] for b in boxes) for a in range(3)]
    hi = [max(b.hi[a] for b in boxes) for a in range(3)]
    volume = float(np.prod([h - l for l, h in zip(lo, hi)]))
    for name in ("vorticity", "q_criterion", "electric_current"):
        derived = mirror.registry.get(name)
        halo = derived.halo(FD_ORDER)
        full = dataset.field_array(derived.source, 0)
        padded = np.pad(full, [(halo, halo)] * 3 + [(0, 0)], mode="wrap")
        tile = np.ascontiguousarray(padded[tuple(
            slice(l, h + 2 * halo) for l, h in zip(lo, hi)
        )])
        spacing = dataset.spec.spacing
        ms = _median_ms(9, lambda i: derived.norm(tile, spacing, FD_ORDER))
        m[f"fields.norm_ms.{name}"] = ms
        if name == "vorticity":
            # Points x the registry's own work units per point, over time.
            m["fields.norm_mpoints_s.vorticity"] = (
                volume * derived.units_per_point / 1e6 / (ms / 1e3)
            )


def _cache_probes(mirror, queries: _Queries, m: dict) -> None:
    """``SemanticCache`` calls alone, each inside one transaction.

    Entries are one node box of points, the granularity the node path
    stores at.  They go to node 1's cache under timestep keys no query
    uses, so the node-level probes on node 0 never see them.
    """
    from repro.core.threshold import get_threshold_on_node
    from repro.grid import Box

    node, cache = mirror.nodes[1], mirror.caches[1]
    box = mirror.partitioner.node_boxes(1)[0]
    inner = Box(box.lo, tuple(c + box.shape[0] // 2 for c in box.lo))

    def points(payload: dict):
        return get_threshold_on_node(
            node, mirror.executors[1], None, mirror.registry,
            _query(payload), [box],
        )

    sparse_part, fat_part = points(queries.hit()), points(queries.fat_preload())
    keys = iter(range(10_000, 20_000))

    def store(part) -> int:
        key = next(keys)
        with node.db.transaction() as txn:
            cache.store(
                txn, DATASET, "vorticity", key, box, 1.0,
                part.zindexes, part.values,
            )
        return key

    def lookup(key: int, where, threshold: float) -> None:
        with node.db.transaction() as txn:
            cache.lookup(txn, DATASET, "vorticity", key, where, threshold)

    m["core.cache.store_ms.small"] = _median_ms(20, lambda i: store(sparse_part))
    m["core.cache.store_ms.fat"] = _median_ms(9, lambda i: store(fat_part))
    small, fat = store(sparse_part), store(fat_part)
    m["core.cache.lookup_ms.miss"] = _median_ms(30, lambda i: lookup(9_999, box, 1.0))
    m["core.cache.lookup_ms.hit"] = _median_ms(30, lambda i: lookup(small, box, 1.0))
    m["core.cache.lookup_ms.contained"] = _median_ms(
        30, lambda i: lookup(small, inner, 1.0)
    )
    m["core.cache.lookup_ms.fat"] = _median_ms(15, lambda i: lookup(fat, box, 1.0))
