"""The executor's two halves, each guarded without a stopwatch.

``NodeExecutor._scan`` *charges* the paper's per-process chains to the
``CostLedger`` and *does* the work once per node query.  The counting
tests below fail when the work is done more than once (the wall-clock
gain is lost); the pinned test fails when the model moves.

The pinned literals live in ``tests/fixtures/executor_model_pinned.json``
and were captured at the parent commit of the PR that split the two
(674dc86, where every chain still ran for real) with::

    PYTHONPATH=<parent checkout>/src python tests/test_executor_model.py \\
        > tests/fixtures/executor_model_pinned.json

Re-capturing is a statement that the cost model changed on purpose.
"""

import dataclasses
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.cluster.webservice import WebService
from repro.core import PdfQuery, ThresholdQuery, TopKQuery, executor
from repro.core.threshold import get_threshold_on_node
from repro.fields.derived import FieldRegistry, default_registry
from repro.grid import Box
from repro.harness.common import ground_truth_norm
from repro.morton import encode_array
from repro.obs import tracing
from repro.simulation import mhd_dataset
from repro.storage.btree import BPlusTree
from repro.storage.bufferpool import BufferPool
from repro.storage.table import Table

PINNED = pathlib.Path(__file__).parent / "fixtures" / "executor_model_pinned.json"
SIDE = 32
NODE_COUNTS = (1, 2, 4, 8)
PROCESS_COUNTS = (1, 2, 4, 8)
POOL_PAGES = 12

VORTICITY = ThresholdQuery("mhd", "vorticity", 0, 6.0)
WIDE = Box((1, 7, 3), (31, 20, 27))
# Wider than the domain with their halo on, but overhanging it on one
# side only: x past the top, x below the bottom, then x and z past the
# top with y below the bottom.
LOPSIDED = (
    Box((3, 7, 3), (32, 20, 27)),
    Box((0, 7, 3), (29, 20, 27)),
    Box((3, 0, 2), (32, 29, 32)),
)
EDGES = tuple(float(x) for x in np.linspace(0.0, 12.0, 7))


def _pin(ledger, **extra) -> dict:
    return {
        "total": ledger.total,
        "breakdown": ledger.breakdown(),
        "meters": ledger.meters(),
        **extra,
    }


def model_answers(dataset, nodes: int, processes: int) -> dict:
    """One fixed script of queries on a fresh cluster; what each was
    charged, by name.  Order matters: the cache and the buffer pools
    carry state from one query to the next, as on a live node."""
    pinned = {}
    # Parts run in node order and a pool is far smaller than a node's
    # share: pages are evicted and re-read, so every seek count depends
    # on the order of the reads and is reproducible to the last bit.
    with build_cluster(
        dataset, nodes=nodes, buffer_pages=POOL_PAGES
    ) as mediator:

        def threshold(name, query, **options):
            result = mediator.threshold(query, processes=processes, **options)
            pinned[name] = _pin(
                result.ledger, points=len(result), cache_hits=result.cache_hits
            )

        threshold(
            "off_atom_box",
            dataclasses.replace(VORTICITY, box=Box((3, 5, 2), (29, 21, 30))),
        )
        # Wider than the domain along x once its halo is on.
        threshold(
            "wrapping_box",
            dataclasses.replace(VORTICITY, box=WIDE, timestep=1),
            use_cache=False,
        )
        threshold("full_domain", VORTICITY)
        threshold("dominated_repeat", dataclasses.replace(VORTICITY, threshold=7.5))
        threshold("replacing_repeat", dataclasses.replace(VORTICITY, threshold=4.5))
        threshold("no_cache", VORTICITY, use_cache=False)
        threshold(
            "fd_order_8",
            dataclasses.replace(VORTICITY, timestep=1, fd_order=8),
        )
        threshold("raw_field", ThresholdQuery("mhd", "magnetic", 1, 1.0))

        fields = (("vorticity", 5.0), ("q_criterion", 8.0), ("velocity", 1.2))
        response = WebService(mediator).handle({
            "method": "GetBatchThreshold",
            "processes": processes,
            "queries": [
                {"dataset": "mhd", "field": field, "timestep": 1, "threshold": t}
                for field, t in fields
            ],
        })
        assert response["status"] == "ok", response
        pinned["batch_of_three"] = response

        for use_cache in (True, False):
            pdf = mediator.pdf(
                PdfQuery("mhd", "electric_current", 0, EDGES),
                processes=processes, use_cache=use_cache,
            )
            pinned[f"pdf_cache_{use_cache}"] = _pin(
                pdf.ledger, counts=[int(c) for c in pdf.counts]
            )
            topk = mediator.topk(
                TopKQuery("mhd", "q_criterion", 0, 40),
                processes=processes, use_cache=use_cache,
            )
            pinned[f"topk_cache_{use_cache}"] = _pin(
                topk.ledger, top=float(topk.values[0]), points=len(topk)
            )

        for i, box in enumerate(LOPSIDED):
            threshold(
                f"lopsided_box_{i}",
                dataclasses.replace(VORTICITY, box=box),
                use_cache=False,
            )
    return pinned


def capture() -> dict:
    dataset = mhd_dataset(side=SIDE, timesteps=2)
    return {
        f"nodes={nodes},processes={processes}": model_answers(
            dataset, nodes, processes
        )
        for nodes in NODE_COUNTS
        for processes in PROCESS_COUNTS
    }


@pytest.mark.parametrize("processes", PROCESS_COUNTS)
@pytest.mark.parametrize("nodes", NODE_COUNTS)
def test_the_model_is_pinned(small_mhd, nodes, processes):
    expected = json.loads(PINNED.read_text())[
        f"nodes={nodes},processes={processes}"
    ]
    ours = model_answers(small_mhd, nodes, processes)
    assert sorted(ours) == sorted(expected)
    for name, answer in expected.items():
        # Through JSON and back: floats survive repr exactly, tuples
        # become lists on both sides.
        assert json.loads(json.dumps(ours[name])) == answer, name


# -- the work happens once -----------------------------------------------------


class CountingPeer:
    """A :class:`~repro.core.executor.HaloPeer` that logs who was asked."""

    def __init__(self, peer, asked: list):
        self._peer, self._asked = peer, asked

    def serve_halo(self, *args):
        self._asked.append(self._peer.node_id)
        return self._peer.serve_halo(*args)


def count_halo_reads(mediator) -> list[list[int]]:
    """Per node, the (growing) list of peers its executor asked."""
    asked = [[] for _ in mediator.executors]
    for node_executor, log in zip(mediator.executors, asked):
        node_executor._peers = [CountingPeer(p, log) for p in node_executor._peers]
    return asked


BATCH = [VORTICITY, ThresholdQuery("mhd", "q_criterion", 0, 8.0)]


@pytest.mark.parametrize("processes", [1, 4, 8])
@pytest.mark.parametrize("nodes", [2, 4])
def test_one_halo_read_per_peer_per_node_query(small_mhd, nodes, processes):
    # Every chain is *charged* its own boundary; the parent also fetched
    # each one: 16 reads a node at processes=4 on two nodes.
    others = [[p for p in range(nodes) if p != n] for n in range(nodes)]
    with build_cluster(small_mhd, nodes=nodes) as mediator:
        asked = count_halo_reads(mediator)
        requests = [
            lambda: mediator.batch_threshold(BATCH, processes=processes),
            lambda: mediator.pdf(
                PdfQuery("mhd", "electric_current", 0, EDGES), processes=processes
            ),
            lambda: mediator.topk(
                TopKQuery("mhd", "r_invariant", 1, 40), processes=processes
            ),
        ]
        for request in requests:
            request()
            assert [sorted(log) for log in asked] == others
            for log in asked:
                log.clear()


def test_a_cold_node_query_reads_once_and_replays_its_slabs(monkeypatch):
    # Node 0 of a two-node 64^3 cluster, processes=4, counted on node 0
    # plus its peer's halo service.  While every slab read for itself
    # this made 569 atom-table scan calls (each its own B-tree descent)
    # and touched 1,152 pages, and every box was assembled in 8 pieces.
    calls = {"scans": 0, "descents": 0, "replays": 0, "gathers": 0}

    def counted(owner, name, key):
        inner = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    side, processes = 64, 4
    dataset = mhd_dataset(side=side, timesteps=1)
    with build_cluster(dataset, nodes=2, load=False) as mediator:
        mediator.load_dataset(dataset, timesteps=[0], fields=["velocity"])
        node, node_executor = mediator.nodes[0], mediator.executors[0]
        boxes = mediator.partitioner.query_boxes(0, Box.cube(side))
        pools = [n.db.table("atoms_mhd_velocity")._pool for n in mediator.nodes]
        loaded = sum(pool.hits + pool.misses for pool in pools)
        counted(Table, "scan_columns", "scans")
        counted(BPlusTree, "_find_leaf", "descents")
        counted(BufferPool, "access_run", "replays")
        counted(executor, "gather_box", "gathers")
        get_threshold_on_node(
            node, node_executor, None, mediator.registry, VORTICITY, boxes,
            processes=processes,
        )
        touched = sum(pool.hits + pool.misses for pool in pools) - loaded
        halo = mediator.registry.get("vorticity").halo(VORTICITY.fd_order)
        # Algorithm 1 evaluates box by box: one read each, one for the
        # boundary served; a descent per merged range of those reads.
        geometries = [
            node_executor._geometry((box,), halo, side, processes) for box in boxes
        ]
        boundary = node_executor._geometry(tuple(boxes), halo, side, 1)[1]
    merged = sum(len(reads) for _, _, reads, _ in geometries) + sum(
        len(ranges) for _, ranges in boundary
    )
    assert calls["scans"] == len(boxes) + 1 <= 5
    assert calls["descents"] <= merged < 300
    assert touched == 1152
    assert calls["replays"] <= len(boxes) * processes
    assert calls["gathers"] == len(boxes)


@pytest.mark.parametrize("processes", [1, 4, 8])
def test_one_kernel_per_box_and_field(small_mhd, processes):
    kernels = []
    registry, stock = FieldRegistry(), default_registry()
    for name in stock.names():
        field = stock.get(name)

        def norm(block, spacing, order, field=field):
            kernels.append(field.name)
            return field.norm(block, spacing, order)

        registry.register(dataclasses.replace(field, norm=norm))
    with build_cluster(small_mhd, nodes=2, registry=registry) as mediator:
        boxes = sum(
            len(mediator.partitioner.query_boxes(n, Box.cube(SIDE))) for n in range(2)
        )
        mediator.batch_threshold(BATCH, processes=processes)
    assert sorted(kernels) == sorted([q.field for q in BATCH] * boxes)


Q_CRITERION, R_INVARIANT = (
    ThresholdQuery("mhd", name, 0, 8.0) for name in ("q_criterion", "r_invariant")
)


@pytest.mark.parametrize("processes", [1, 4, 8])
@pytest.mark.parametrize(
    "queries, per_field",
    [
        ([VORTICITY], [6]),
        ([Q_CRITERION], [9]),
        ([R_INVARIANT], [9]),
        # Nine distinct derivatives exist, not 6 + 9 + 9: the field that
        # fills the block's memo pays, the later ones find them there.
        ([VORTICITY, Q_CRITERION, R_INVARIANT], [6, 3, 0]),
        ([R_INVARIANT, VORTICITY, Q_CRITERION], [9, 0, 0]),
    ],
    ids=["vorticity", "q", "r", "vorticity+q+r", "r+vorticity+q"],
)
def test_a_block_is_differentiated_once_per_batch(
    small_mhd, monkeypatch, processes, queries, per_field
):
    blocks = []

    class Counted(executor.Derivatives):
        def __init__(self, *args):
            super().__init__(*args)
            blocks.append(self)

    monkeypatch.setattr(executor, "Derivatives", Counted)
    collector = tracing.install(tracing.TraceCollector())
    try:
        with build_cluster(small_mhd, nodes=2) as mediator:
            boxes = sum(
                len(mediator.partitioner.query_boxes(n, Box.cube(SIDE)))
                for n in range(2)
            )
            mediator.batch_threshold(queries, processes=processes)
    finally:
        tracing.uninstall()
    assert [block.computed for block in blocks] == [sum(per_field)] * boxes
    # The trace says who paid.
    kernels = [
        (span.attributes["field"], span.attributes["derivatives"])
        for trace_id in collector.trace_ids()
        for span in collector.trace(trace_id)
        if span.name == "node.kernel"
    ]
    paid = [(query.field, count) for query, count in zip(queries, per_field)]
    assert sorted(kernels) == sorted(paid * boxes)


@pytest.mark.parametrize("box", [WIDE, *LOPSIDED], ids=str)
@pytest.mark.parametrize("nodes", [1, 2])
def test_the_answer_does_not_depend_on_the_slab_cut(small_mhd, nodes, box):
    # With its halo each box is wider than the domain along x at least:
    # the box wraps all the way around while its slabs (cut along x) do
    # not, so the block is assembled from less than the whole domain.
    # On one node a node box is the user's box, overhang and all.
    norm = ground_truth_norm(small_mhd, "vorticity", 0)
    truth = norm[tuple(slice(lo, hi) for lo, hi in zip(box.lo, box.hi))]
    ix, iy, iz = np.nonzero(truth >= VORTICITY.threshold)
    matching = np.sort(encode_array(*(i + lo for i, lo in zip((ix, iy, iz), box.lo))))
    assert len(matching) > 0
    query = dataclasses.replace(VORTICITY, box=box)
    with build_cluster(small_mhd, nodes=nodes) as mediator:
        answers = [
            mediator.threshold(query, processes=processes, use_cache=False)
            for processes in (1, 2, 3, 8)
        ]
        field, _ledger = mediator.get_field("mhd", "vorticity", 0, box)
    assert np.allclose(field, truth, atol=1e-4)
    for answer in answers:
        assert np.array_equal(answer.zindexes, matching)
        assert np.array_equal(answer.values, answers[0].values)


def test_a_repeated_box_set_computes_no_morton_cover(small_mhd, monkeypatch):
    covers = []

    def covering(box, side):
        covers.append(box)
        return atom_ranges_covering(box, side)

    atom_ranges_covering = executor.atom_ranges_covering
    monkeypatch.setattr(executor, "atom_ranges_covering", covering)
    with build_cluster(small_mhd, nodes=2) as mediator:
        mediator.threshold(VORTICITY, processes=4, use_cache=False)
        assert covers
        covers.clear()
        # A node's share of a full-domain query never changes.
        mediator.threshold(VORTICITY, processes=4, use_cache=False)
        assert covers == []


def test_the_geometry_memo_is_bounded(small_mhd):
    with build_cluster(small_mhd, nodes=2) as mediator:
        node_executor = mediator.executors[0]
        spec = mediator.nodes[0].dataset("mhd")
        vorticity = mediator.registry.get("vorticity")
        zooms = [
            Box((x, y, z), (x + 8, y + 8, z + 8))
            for x in range(9) for y in range(9) for z in range(9)
        ]
        assert len(zooms) > executor.GEOMETRY_ENTRIES
        for zoom in zooms:
            node_executor.prefetch_halo(None, spec, vorticity, 0, [zoom], 4)
        info = node_executor._geometry.cache_info()
        assert info.misses == len(zooms)
        assert info.currsize == info.maxsize == executor.GEOMETRY_ENTRIES


if __name__ == "__main__":
    # One line per answer, so a re-capture diffs answer by answer.
    cases = ",\n".join(
        f' "{case}": {{\n'
        + ",\n".join(
            f'  "{name}": {json.dumps(answer, sort_keys=True)}'
            for name, answer in answers.items()
        )
        + "\n }"
        for case, answers in capture().items()
    )
    sys.stdout.write(f"{{\n{cases}\n}}\n")
