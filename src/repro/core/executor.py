"""Per-node data-parallel evaluation of derived fields from raw atoms.

On a cache miss the node evaluates its share of the query from the raw
data (paper §4): its share of the spatial region is split into slabs —
one chain per worker process — and each slab's evaluation reads the
covering atoms plus a kernel-half-width halo (boundary atoms come from
the owning peer node), assembles them into an array, runs the derived
field's kernel, and scans the interior against the threshold.

That is the system the :class:`~repro.costmodel.CostLedger` *models*;
the wall clock is ours.  :meth:`NodeExecutor._scan` walks the chains and
slabs only to charge them, following the paper's parallelism analysis
(§5.3):

* compute parallelises perfectly across the process chains — the
  COMPUTE category is set to the busiest chain;
* I/O does not — all chains read from the same disk arrays, so the IO
  category is re-derived from the total bytes and seeks through the HDD
  contention model at ``streams = processes``;
* halo reads are *redundant* across chains (each is charged its own
  boundary), so I/O work genuinely grows with the process count,
  exactly as the paper observes.

The work itself happens once per node query whatever ``processes`` is:
one boundary fetch per peer, one block and one kernel per box — the
answer does not depend on the slab cut.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro.core.limits import MAX_PROCESSES
from repro.core.pointset import merge_sorted_runs
from repro.core.query import BadRequestError
from repro.costmodel import Category, CostLedger
from repro.costmodel.ledger import (
    METER_COMPUTE_UNITS,
    METER_HALO_BYTES,
    METER_HALO_SECONDS,
    METER_IO_BYTES,
    METER_IO_SEEKS,
)
from repro.fields.derived import DerivedField
from repro.fields.finite_difference import Derivatives
from repro.grid import Box, split_slabs
from repro.obs import tracing
from repro.grid.atoms import atom_ranges_covering
from repro.morton import MortonRange, encode_array
from repro.morton.ranges import merge_ranges
from repro.simulation.datasets import DatasetSpec
from repro.simulation.ingest import AtomRun, gather_box, tile_codes
from repro.storage import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Sequence

    from repro.cluster.node import DatabaseNode
    from repro.cluster.partition import MortonPartitioner

#: Scan geometries (:meth:`NodeExecutor._geometry`) remembered per
#: executor.  A node's share of a full-domain query never changes, so
#: the steady state is one entry per (halo, processes) in use; zoom
#: boxes of an exploration session take the rest, least recent out.
GEOMETRY_ENTRIES = 512

#: ``(peer node id, its atom ranges as an (n, 2) array)`` in first-seen
#: order — the order the peers are charged in.
_Remote = tuple[tuple[int, np.ndarray], ...]
#: One chain: per slab its ``(volume, own atom ranges)``, and its boundary.
_Chain = tuple[tuple[tuple[int, np.ndarray], ...], _Remote]
#: What a scan of some boxes touches (:meth:`NodeExecutor._resolve_geometry`).
_Geometry = tuple[tuple[_Chain, ...], _Remote, np.ndarray, tuple[np.ndarray, ...]]
#: Boundary atoms in hand: each peer's reply, by its node id.
Prefetched = dict[int, AtomRun]


class HaloPeer(Protocol):
    """What the executor needs from a peer node: boundary-band reads.

    In-process clusters pass the :class:`DatabaseNode` objects
    themselves; a node server running in its own OS process passes RPC
    proxies (see :class:`repro.net.server.RemoteHaloPeer`) with the
    same signature and charging contract.
    """

    def serve_halo(
        self,
        dataset: str,
        field: str,
        timestep: int,
        ranges: "list[MortonRange]",
        ledger: CostLedger | None,
    ) -> AtomRun:
        """Atoms of ``ranges``; transfer time charged to ``ledger``."""
        ...


@dataclass
class RawEvaluation:
    """Result of evaluating one node's share from the raw data."""

    zindexes: np.ndarray
    values: np.ndarray
    histogram: np.ndarray | None = None

    @classmethod
    def empty(cls) -> "RawEvaluation":
        return cls(np.empty(0, np.uint64), np.empty(0, np.float64))


class NodeExecutor:
    """Evaluates queries over one node's share of the data.

    Args:
        node: the node whose atoms this executor reads.
        peers: all cluster nodes indexed by node id (for halo fetches);
            any :class:`HaloPeer` works, so a node server substitutes
            RPC proxies for its remote peers.
        partitioner: the cluster's spatial partitioner.
    """

    def __init__(
        self,
        node: "DatabaseNode",
        peers: "Sequence[HaloPeer]",
        partitioner: "MortonPartitioner",
    ) -> None:
        self._node = node
        self._peers = peers
        self._partitioner = partitioner
        self._geometry = lru_cache(maxsize=GEOMETRY_ENTRIES)(self._resolve_geometry)

    def evaluate(
        self,
        txn: Transaction,
        ledger: CostLedger,
        dataset_spec: DatasetSpec,
        derived: DerivedField,
        timestep: int,
        boxes: list[Box],
        threshold: float,
        fd_order: int,
        processes: int = 1,
        io_only: bool = False,
        bin_edges: tuple[float, ...] | None = None,
        topk: int | None = None,
        prefetched: Prefetched | None = None,
    ) -> RawEvaluation:
        """Evaluate ``derived`` over ``boxes`` against ``threshold``.

        Args:
            txn: the node-query transaction (its ledger is ``ledger``).
            ledger: cost ledger of the node query.
            boxes: this node's rectangular pieces of the query region.
            processes: worker processes per node — the slab chains the
                ledger is charged for, not threads that run.
            io_only: read the data but skip kernels and thresholding
                (the paper's Fig. 8 I/O-only mode).
            bin_edges: when given, also histogram the norms (PDF query);
                the final bin is open-ended.
            topk: when given, return the ``topk`` highest-norm points of
                this node's share instead of thresholding (``threshold``
                is ignored).
            prefetched: remote boundary atoms already fetched by the
                caller (see :meth:`prefetch_halo`); when given, no halo
                RPC is issued here at all.  Without them the boundary of
                ``boxes`` is fetched here, once per peer.

        Returns:
            a :class:`RawEvaluation` with matching points (empty when
            ``io_only``) and the histogram when requested.
        """
        histogram = (
            np.zeros(len(bin_edges), dtype=np.int64)
            if bin_edges is not None
            else None
        )

        def reduce(norm: np.ndarray, slab: Box) -> tuple[np.ndarray, np.ndarray]:
            if histogram is not None:
                histogram[:] += _histogram_open_ended(norm, bin_edges)
            if topk is not None:
                return _topk_scan(norm, slab, topk)
            return threshold_scan(norm, slab, threshold)

        ((zindexes, values),) = self._scan(
            txn, ledger, dataset_spec, [derived], timestep, boxes, [reduce],
            fd_order, processes, io_only, prefetched,
        )
        if topk is not None and len(values) > topk:
            keep = np.argpartition(values, -topk)[-topk:]
            keep.sort()  # restore Morton order after the selection
            zindexes, values = zindexes[keep], values[keep]
        return RawEvaluation(zindexes, values, histogram)

    def evaluate_batch(
        self,
        txn: Transaction,
        ledger: CostLedger,
        dataset_spec: DatasetSpec,
        deriveds: list[DerivedField],
        timestep: int,
        boxes: list[Box],
        thresholds: list[float],
        fd_order: int,
        processes: int = 1,
        io_only: bool = False,
        prefetched: Prefetched | None = None,
    ) -> list[RawEvaluation]:
        """Evaluate several same-source fields from one shared scan.

        The atoms covering each slab (plus the *widest* field's halo) are
        read once; every field's kernel then runs on the same in-memory
        block.  Fields must share their raw source field; ``io_only`` and
        ``prefetched`` are as for :meth:`evaluate`.

        Returns one :class:`RawEvaluation` per (derived, threshold) pair,
        in order.
        """
        if len(deriveds) != len(thresholds):
            raise ValueError("deriveds and thresholds must align")
        if not deriveds:
            return []
        if any(d.source != deriveds[0].source for d in deriveds):
            raise ValueError("batched fields must share one source field")
        runs = self._scan(
            txn, ledger, dataset_spec, deriveds, timestep, boxes,
            [partial(threshold_scan, threshold=t) for t in thresholds],
            fd_order, processes, io_only, prefetched,
        )
        return [RawEvaluation(zindexes, values) for zindexes, values in runs]

    def _scan(
        self,
        txn: Transaction,
        ledger: CostLedger,
        dataset_spec: DatasetSpec,
        deriveds: list[DerivedField],
        timestep: int,
        boxes: list[Box],
        reducers: "list[Callable[[np.ndarray, Box], tuple[np.ndarray, np.ndarray]]]",
        fd_order: int,
        processes: int,
        io_only: bool,
        prefetched: Prefetched | None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Read once, charge the chain/slab walk, assemble once per box.

        **The work**: one read of every atom this node owns of the
        call's boxes plus halo — uncharged, one visibility check per
        atom — then one block per box gathered from that run and the
        prefetched ones, every field's kernel on that block's one
        :class:`Derivatives`, its reducer turning the norm into a
        ``(zindexes, values)`` run.  **The model**: every chain is
        charged the transfer of its own boundary (:meth:`_charge_halo`),
        every slab replays, through the buffer pool, the pages of its
        own atoms plus the widest field's halo as that one read recorded
        them, every (slab, field) adds its kernel time to its chain.
        Returns one merged run per field.
        """
        if not 1 <= processes <= MAX_PROCESSES:
            raise BadRequestError(f"processes must be in 1..{MAX_PROCESSES}")
        if not 0 <= timestep < dataset_spec.timesteps:
            raise BadRequestError(f"no timestep {timestep} in {dataset_spec.name!r}")
        widest = max(deriveds, key=lambda d: d.halo(fd_order))
        halo = widest.halo(fd_order)
        name, source, side = dataset_spec.name, widest.source, dataset_spec.side
        chains, boundary, reads, tiles = self._geometry(
            tuple(boxes), halo, side, processes
        )
        # A single chain's caller has charged its prefetch already (the
        # union over all its boxes, see get_batch_on_node).
        charge_chains = prefetched is None or processes > 1
        if prefetched is None:
            prefetched = self._fetch_remote(None, name, source, timestep, boundary)
        with tracing.span("node.io", category="io"):
            own = self._node.read_atoms(
                txn, name, source, timestep, _ranges(reads), charge=False
            )
        cpu = self._node.spec.cpu
        chain_compute = [0.0] * len(chains)
        with tracing.span("node.io", category="io"):
            for chain_id, (slabs, remote) in enumerate(chains):
                if charge_chains:
                    self._charge_halo(ledger, remote, prefetched)
                for volume, bounds in slabs:
                    self._node.charge_read(name, source, own, bounds)
                    if io_only:
                        continue
                    for derived in deriveds:
                        units = derived.units_per_point
                        chain_compute[chain_id] += cpu.compute_time(volume, units)
                        ledger.count(METER_COMPUTE_UNITS, volume * units)

        atoms = [*prefetched.values(), own]
        runs: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in deriveds]
        for box, codes in zip(boxes, tiles):
            with tracing.span("node.io", category="io"):
                block = gather_box(
                    box.expand(halo), codes, atoms, widest.source_components
                )
            if io_only:
                continue
            stencil = Derivatives(block, dataset_spec.spacing, fd_order, halo)
            for derived, reduce, field_runs in zip(deriveds, reducers, runs):
                with tracing.span("node.kernel", category="compute", field=derived.name) as span:
                    # The last reader takes each derivative for good.
                    stencil.retain = derived is not deriveds[-1]
                    computed = stencil.computed
                    norm = derived.norm(stencil, dataset_spec.spacing, fd_order)
                    span.set("derivatives", stencil.computed - computed)
                    field_runs.append(reduce(norm, box))
            del stencil  # the float64 block and what is left of the memo die with the box

        # Parallel-time composition (see module docstring).  Compute is
        # *charged* (not overwritten) so that several evaluate() calls on
        # the same ledger compose serially; I/O is re-derived from the
        # ledger's running byte/seek totals, so overwriting is correct.
        ledger.charge(Category.COMPUTE, max(chain_compute, default=0.0))
        io_bytes = ledger.meter(METER_IO_BYTES)
        io_seeks = ledger.meter(METER_IO_SEEKS)
        if io_bytes or io_seeks:
            ledger.set_category(
                Category.IO,
                self._node.spec.hdd.read_time(
                    int(io_bytes), seeks=int(io_seeks), streams=processes
                )
                + ledger.meter(METER_HALO_SECONDS),
            )

        # Box results merge into one Morton-sorted run whatever the cut:
        # disjoint runs in curve order by concatenation, interleaved or
        # coordinate-ordered ones by one argsort.
        return [merge_sorted_runs(field_runs) for field_runs in runs]

    # -- internals ---------------------------------------------------------------

    def _resolve_geometry(
        self, boxes: tuple[Box, ...], halo: int, side: int, processes: int
    ) -> _Geometry:
        """What a scan of ``boxes`` touches: pure geometry, memoised.

        Each box is split into per-process slabs and chain p gets slab
        p of each.  Returns ``(chains, boundary, reads, tiles)``: per
        chain, its slabs' volumes each with the atom ranges this node
        owns of the slab plus halo (in first-seen order, the order the
        model's disk visits them in), and the chain's remote ranges per
        peer (its own redundant boundary, atoms shared by its slabs
        counted once); the union of the chains' remote ranges per peer;
        the sorted union of the slabs' own ranges, which one scan reads;
        and per box the corner codes of its expanded block's atom grid
        on the periodic domain (:func:`tile_codes`).  Ranges are kept as
        ``(n, 2)`` integer arrays — a fraction of the size of as many
        :class:`MortonRange` objects.
        """
        slabs_of: list[list[Box]] = [[] for _ in range(processes)]
        for box in boxes:
            for chain, slab in zip(slabs_of, split_slabs(box, processes)):
                chain.append(slab)
        chains = []
        union: dict[int, list[MortonRange]] = {}
        reads: list[MortonRange] = []
        for slabs in filter(None, slabs_of):
            slab_reads = []
            remote: dict[int, list[MortonRange]] = {}
            for slab in slabs:
                by_node = self._split_ranges_by_node(_halo_cover(slab, halo, side))
                own = by_node.pop(self._node.node_id, [])
                slab_reads.append((slab.volume, _compact(own)))
                reads.extend(own)
                for node_id, ranges in by_node.items():
                    remote.setdefault(node_id, []).extend(ranges)
                    union.setdefault(node_id, []).extend(ranges)
            chains.append((tuple(slab_reads), _boundary(remote)))
        return (
            tuple(chains),
            _boundary(union),
            _compact(merge_ranges(sorted(reads))),
            tuple(tile_codes(box.expand(halo), side) for box in boxes),
        )

    def _charge_halo(
        self, ledger: CostLedger, remote: _Remote, prefetched: Prefetched
    ) -> None:
        """Charge one boundary fetch without making it: peer by peer,
        what :meth:`HaloPeer.serve_halo` would charge for ``remote`` —
        the interconnect transfer of the atoms those ranges hold, all
        of which are in the peer's ``prefetched`` run already."""
        for node_id, ranges in remote:
            nbytes = prefetched[node_id].nbytes_in(ranges)
            seconds = self._node.spec.interconnect.transfer_time(nbytes)
            ledger.charge(Category.IO, seconds)
            ledger.count(METER_HALO_SECONDS, seconds)
            ledger.count(METER_HALO_BYTES, nbytes)

    def fetch_block(
        self,
        txn: Transaction,
        ledger: CostLedger,
        dataset_spec: DatasetSpec,
        derived: DerivedField,
        timestep: int,
        slab: Box,
        halo: int,
    ) -> np.ndarray:
        """Read and assemble ``slab`` plus ``halo`` cells into one array."""
        side = dataset_spec.side
        by_node = self._split_ranges_by_node(_halo_cover(slab, halo, side))
        own = self._node.read_atoms(
            txn, dataset_spec.name, derived.source, timestep,
            by_node.pop(self._node.node_id, []),
        )
        remote = self._fetch_remote(
            ledger, dataset_spec.name, derived.source, timestep,
            _boundary(by_node),
        )
        return _assemble(
            slab.expand(halo), side, [*remote.values(), own],
            derived.source_components,
        )

    def _fetch_remote(
        self,
        ledger: CostLedger | None,
        dataset: str,
        source_field: str,
        timestep: int,
        remote: _Remote,
    ) -> Prefetched:
        """Boundary atoms from peer nodes, one RPC and one run per peer.

        When several peers are involved their calls run concurrently on
        short-lived threads, a pooled connection each, so the wall time
        is one round trip rather than one per peer.  Every concurrent fetch charges a scratch
        :class:`CostLedger` that is folded back in deterministic order,
        so the *simulated* time is identical to a serial exchange
        regardless of the real-world overlap.  No ``ledger``, no charge.
        """
        if not remote:
            return {}
        # The requester's wait for its peers; the span carries no ledger
        # (the transfer is charged by the peers, or chain by chain).
        with tracing.span(
            "node.halo_fetch", category="io", peers=len(remote)
        ) as fetch_span:
            if len(remote) > 1:
                scratch = [CostLedger() for _ in remote]
                with ThreadPoolExecutor(
                    max_workers=len(remote), thread_name_prefix="halo-fetch"
                ) as pool:
                    # In a copy of this thread's context, so each node.halo
                    # span (or traced RPC) parents under node.halo_fetch.
                    futures = [
                        pool.submit(
                            contextvars.copy_context().run,
                            self._peers[node_id].serve_halo,
                            dataset, source_field, timestep, _ranges(ranges), part,
                        )
                        for (node_id, ranges), part in zip(remote, scratch)
                    ]
                    runs = [future.result() for future in futures]
                if ledger is not None:
                    for part in scratch:
                        ledger.add(part)
            else:
                ((node_id, ranges),) = remote
                runs = [
                    self._peers[node_id].serve_halo(
                        dataset, source_field, timestep, _ranges(ranges), ledger,
                    )
                ]
            fetch_span.set("bytes", sum(run.nbytes for run in runs))
        return {node_id: run for (node_id, _), run in zip(remote, runs)}

    def prefetch_halo(
        self,
        ledger: CostLedger | None,
        dataset_spec: DatasetSpec,
        derived: DerivedField,
        timestep: int,
        boxes: "list[Box]",
        fd_order: int,
    ) -> Prefetched | None:
        """One combined remote boundary fetch for ``boxes``.

        Fetches every remote atom the boxes' expanded blocks will need,
        each peer's share in a *single* ``serve_halo`` RPC; atoms shared
        by adjacent blocks are fetched once.

        Query drivers that evaluate box by box (the semantic cache
        stores each box separately) call it once for every box they are
        about to evaluate, then pass the result to :meth:`evaluate` as
        ``prefetched`` — one halo RPC per peer per query.  The remote
        atoms of a box's slabs are among those of the box itself
        (interior slab seams stay on the owning node), so the prefetch
        serves any ``processes``.  The transfer is charged to ``ledger``
        — what a single chain owes; a driver of several chains passes
        ``None`` and :meth:`evaluate` charges each chain its own
        redundant boundary, as the paper's parallelism model assumes.

        Returns each peer's atoms as a run, or ``None`` when no remote
        atoms are needed at all (single node clusters, interior boxes).
        """
        boundary = self._geometry(
            tuple(boxes), derived.halo(fd_order), dataset_spec.side, 1
        )[1]
        if not boundary:
            return None
        return self._fetch_remote(
            ledger, dataset_spec.name, derived.source, timestep, boundary
        )

    def _split_ranges_by_node(
        self, ranges: list[MortonRange]
    ) -> dict[int, list[MortonRange]]:
        """Group curve ranges by owning node.

        Each range's start is binary-searched against the partitioner's
        split points (via :meth:`MortonPartitioner.node_spans`), so the
        cost is O(ranges x log nodes + spans) instead of the former
        O(ranges x nodes) intersection probe.
        """
        by_node: dict[int, list[MortonRange]] = {}
        for rng in ranges:
            for node_id, span in self._partitioner.node_spans(rng):
                by_node.setdefault(node_id, []).append(span)
        return by_node


def _halo_cover(box: Box, halo: int, side: int) -> list[MortonRange]:
    """Atom ranges covering ``box`` plus ``halo`` cells on the periodic
    domain, each range once (atoms straddling a wrapped piece's boundary
    are deduplicated), in first-seen order."""
    expanded = box.expand(halo)
    if any(n > side for n in expanded.shape):
        # Wraps all the way around (single-node clusters on small
        # grids): the whole domain, read once and indexed periodically.
        return atom_ranges_covering(Box.cube(side), side)
    return list(dict.fromkeys(
        rng
        for piece, _offset in expanded.wrap_periodic(side)
        for rng in atom_ranges_covering(piece, side)
    ))


def _compact(ranges: list[MortonRange]) -> np.ndarray:
    """Ranges as an ``(n, 2)`` array; :func:`_ranges` is the way back."""
    return np.array(
        [(rng.start, rng.stop) for rng in ranges], dtype=np.uint64
    ).reshape(-1, 2)


def _ranges(compact: np.ndarray) -> list[MortonRange]:
    return [MortonRange(start, stop) for start, stop in compact.tolist()]


def _boundary(by_node: dict[int, list[MortonRange]]) -> _Remote:
    """Each peer's ranges as a sorted union of disjoint ranges, so the
    atoms they hold can be counted range by range."""
    return tuple(
        (node_id, _compact(merge_ranges(sorted(ranges))))
        for node_id, ranges in by_node.items()
    )


def _assemble(
    expanded: Box, side: int, atoms: "Sequence[AtomRun]", ncomp: int
) -> np.ndarray:
    """The block ``expanded`` of the periodic domain, from runs covering
    it: one modular gather, however far the block overhangs the domain."""
    return gather_box(expanded, tile_codes(expanded, side), atoms, ncomp)


def threshold_scan(norm: np.ndarray, slab: Box, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of norm >= threshold, in global Morton codes."""
    mask = norm >= threshold
    if not mask.any():
        return np.empty(0, np.uint64), np.empty(0, np.float64)
    ix, iy, iz = np.nonzero(mask)
    zindexes = encode_array(ix + slab.lo[0], iy + slab.lo[1], iz + slab.lo[2])
    return zindexes, norm[mask].astype(np.float64)


def _topk_scan(norm: np.ndarray, slab: Box, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k highest-norm points of one slab (unordered)."""
    flat = norm.ravel()
    if len(flat) > k:
        candidate = np.argpartition(flat, -k)[-k:]
    else:
        candidate = np.arange(len(flat))
    ix, iy, iz = np.unravel_index(candidate, norm.shape)
    zindexes = encode_array(ix + slab.lo[0], iy + slab.lo[1], iz + slab.lo[2])
    return zindexes, flat[candidate].astype(np.float64)


def _histogram_open_ended(
    norm: np.ndarray, bin_edges: tuple[float, ...]
) -> np.ndarray:
    """Counts per bin; the final bin collects everything above the last edge."""
    edges = np.asarray(bin_edges, dtype=np.float64)
    counts, _ = np.histogram(norm, bins=np.append(edges, np.inf))
    return counts.astype(np.int64)
