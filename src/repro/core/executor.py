"""Per-node data-parallel evaluation of derived fields from raw atoms.

On a cache miss the node evaluates its share of the query from the raw
data (paper §4): its share of the spatial region is split into slabs —
one chain per worker process — and each slab's evaluation reads the
covering atoms plus a kernel-half-width halo (fetching boundary atoms
from the owning peer node when necessary), assembles them into an array,
runs the derived field's kernel, and scans the interior against the
threshold.

Simulated time follows the paper's parallelism analysis (§5.3):

* compute parallelises perfectly across the process chains — the
  COMPUTE category is set to the busiest chain;
* I/O does not — all chains read from the same disk arrays, so the IO
  category is re-derived from the total bytes and seeks through the HDD
  contention model at ``streams = processes``;
* halo reads are *redundant* across chains (each fetches its own
  boundary), so I/O work genuinely grows with the process count,
  exactly as the paper observes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro.core.pointset import merge_sorted_runs
from repro.costmodel import Category, CostLedger
from repro.costmodel.ledger import (
    METER_COMPUTE_UNITS,
    METER_HALO_SECONDS,
    METER_IO_BYTES,
    METER_IO_SEEKS,
)
from repro.fields.derived import DerivedField
from repro.grid import Box, split_slabs
from repro.obs import tracing
from repro.grid.atoms import atom_ranges_covering
from repro.morton import MortonRange, encode_array
from repro.simulation.datasets import DatasetSpec
from repro.simulation.ingest import array_from_atoms
from repro.storage import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Sequence

    from repro.cluster.node import DatabaseNode
    from repro.cluster.partition import MortonPartitioner


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
    ) -> dict[int, bytes]:
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
        prefetched: dict[int, bytes] | None = None,
    ) -> RawEvaluation:
        """Evaluate ``derived`` over ``boxes`` against ``threshold``.

        Args:
            txn: the node-query transaction (its ledger is ``ledger``).
            ledger: cost ledger of the node query.
            boxes: this node's rectangular pieces of the query region.
            processes: worker processes per node (slab chains).
            io_only: read the data but skip kernels and thresholding
                (the paper's Fig. 8 I/O-only mode).
            bin_edges: when given, also histogram the norms (PDF query);
                the final bin is open-ended.
            topk: when given, return the ``topk`` highest-norm points of
                this node's share instead of thresholding (``threshold``
                is ignored).
            prefetched: remote boundary atoms already fetched by the
                caller (see :meth:`prefetch_halo`); when given, no halo
                RPC is issued here at all.

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
            return _threshold_scan(norm, slab, threshold)

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
        prefetched: dict[int, bytes] | None = None,
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
            [partial(_threshold_scan, threshold=t) for t in thresholds],
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
        prefetched: dict[int, bytes] | None,
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The chain/slab loop: one block per slab, one reducer per field.

        Each slab's block is read once with the widest field's halo;
        every field's kernel runs on (a trimmed view of) it and its
        reducer turns the norm into a Morton-sorted ``(zindexes,
        values)`` run.  Returns one merged run per field.
        """
        if processes < 1:
            raise ValueError("processes must be >= 1")
        widest = max(deriveds, key=lambda d: d.halo(fd_order))
        halo = widest.halo(fd_order)
        chains = self._assign_slabs(boxes, processes)
        chain_compute = [0.0] * len(chains)
        runs: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in deriveds]

        for chain_id, slabs in enumerate(chains):
            chain_atoms = (
                prefetched
                if prefetched is not None
                else self.prefetch_halo(
                    ledger, dataset_spec, widest, timestep, slabs, fd_order
                )
            )
            for slab in slabs:
                with tracing.span("node.io", category="io"):
                    block = self._fetch_block(
                        txn, ledger, dataset_spec, widest, timestep, slab,
                        halo, chain_atoms,
                    )
                if io_only:
                    continue
                for derived, reduce, field_runs in zip(deriveds, reducers, runs):
                    with tracing.span(
                        "node.kernel", category="compute", field=derived.name
                    ):
                        trim = halo - derived.halo(fd_order)
                        view = block if trim == 0 else block[
                            (slice(trim, -trim),) * 3
                        ]
                        norm = derived.norm(view, dataset_spec.spacing, fd_order)
                        chain_compute[chain_id] += self._node.spec.cpu.compute_time(
                            slab.volume, derived.units_per_point
                        )
                        ledger.count(
                            METER_COMPUTE_UNITS,
                            slab.volume * derived.units_per_point,
                        )
                        field_runs.append(reduce(norm, slab))

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

        # Slab results are Morton-sorted runs; disjoint slabs in curve
        # order merge by concatenation, interleaved ones by one argsort.
        return [merge_sorted_runs(field_runs) for field_runs in runs]

    # -- internals ---------------------------------------------------------------

    def _assign_slabs(self, boxes: list[Box], processes: int) -> list[list[Box]]:
        """Split each box into per-process slabs; chain p gets slab p of each."""
        chains: list[list[Box]] = [[] for _ in range(processes)]
        for box in boxes:
            for i, slab in enumerate(split_slabs(box, processes)):
                chains[i % processes].append(slab)
        return [chain for chain in chains if chain] or [[]]

    def _fetch_block(
        self,
        txn: Transaction,
        ledger: CostLedger,
        dataset_spec: DatasetSpec,
        derived: DerivedField,
        timestep: int,
        slab: Box,
        halo: int,
        prefetched: dict[int, bytes] | None = None,
    ) -> np.ndarray:
        """Read and assemble ``slab`` plus ``halo`` cells into one array."""
        expanded = slab.expand(halo)
        side = dataset_spec.side
        ncomp = derived.source_components
        if any(n > side for n in expanded.shape):
            # The slab plus halo wraps all the way around the domain
            # (single-node clusters on small grids): read the whole
            # domain once and index it periodically.
            domain = Box.cube(side)
            atoms = self._fetch_ranges(
                txn, ledger, dataset_spec, derived.source, timestep,
                atom_ranges_covering(domain, side), prefetched=prefetched,
            )
            full = array_from_atoms(domain, atoms, ncomp)
            # Periodic extension by pad-and-slice: np.pad's wrap mode
            # copies whole contiguous faces, an order of magnitude
            # faster than the equivalent np.ix_ fancy-index gather.
            margins = [
                (max(0, -lo), max(0, hi - side))
                for lo, hi in zip(expanded.lo, expanded.hi)
            ]
            padded = np.pad(full, [*margins, (0, 0)], mode="wrap")
            trim = tuple(
                slice(lo + before, hi + before)
                for (lo, hi), (before, _after) in zip(
                    zip(expanded.lo, expanded.hi), margins
                )
            )
            return np.ascontiguousarray(padded[trim])
        block = np.empty(expanded.shape + (ncomp,), dtype=np.float32)
        pieces = list(expanded.wrap_periodic(side))
        # One combined fetch for every wrapped piece: all ranges owned
        # by one peer travel in a single halo RPC instead of one RPC
        # per piece, which is what makes remote boundary reads cheap.
        atoms = self._fetch_ranges(
            txn, ledger, dataset_spec, derived.source, timestep,
            _covering_ranges([piece for piece, _ in pieces], side),
            prefetched=prefetched,
        )
        for piece, offset in pieces:
            sub = array_from_atoms(piece, atoms, ncomp)
            dst = tuple(
                slice(o, o + n) for o, n in zip(offset, piece.shape)
            )
            block[dst] = sub
        return block

    def _fetch_ranges(
        self,
        txn: Transaction,
        ledger: CostLedger,
        dataset_spec: DatasetSpec,
        source_field: str,
        timestep: int,
        ranges: "list[MortonRange]",
        prefetched: dict[int, bytes] | None = None,
    ) -> dict[int, bytes]:
        """Atoms covering ``ranges``, read locally and from peer nodes.

        With ``prefetched`` atoms (a chain- or query-level boundary
        prefetch, see :meth:`prefetch_halo`) no RPC is issued at all —
        the remote share is served from the prefetch and only the local
        ranges touch the transaction.  Otherwise each peer gets all of
        its ranges in one ``serve_halo`` call via :meth:`_fetch_remote`.
        """
        by_node = self._split_ranges_by_node(ranges)
        atoms: dict[int, bytes] = {}
        own = by_node.pop(self._node.node_id, None)
        if own:
            atoms.update(
                self._node.read_atoms(
                    txn, dataset_spec.name, source_field, timestep, own
                )
            )
        if prefetched is None:
            prefetched = self._fetch_remote(
                ledger, dataset_spec.name, source_field, timestep,
                list(by_node.items()),
            )
        atoms.update(prefetched)
        return atoms

    def _fetch_remote(
        self,
        ledger: CostLedger,
        dataset: str,
        source_field: str,
        timestep: int,
        remote: "list[tuple[int, list[MortonRange]]]",
    ) -> dict[int, bytes]:
        """Boundary atoms from peer nodes, one RPC per peer.

        When several peers are involved their calls run concurrently on
        short-lived threads — the peers' pipelined connection pools
        multiplex them, so the wall time is one round trip rather than
        one per peer.  Every concurrent fetch charges a scratch
        :class:`CostLedger` that is folded back in deterministic order,
        so the *simulated* time is identical to a serial exchange
        regardless of the real-world overlap.
        """
        if not remote:
            return {}
        atoms: dict[int, bytes] = {}
        # The requester's wait for its peers; the span carries no ledger
        # (the transfer is already charged to ``ledger`` by the peers).
        with tracing.span(
            "node.halo_fetch", category="io", peers=len(remote)
        ) as fetch_span:
            if len(remote) > 1:
                scratch = [CostLedger() for _ in remote]
                with ThreadPoolExecutor(
                    max_workers=len(remote), thread_name_prefix="halo-fetch"
                ) as pool:
                    futures = [
                        pool.submit(
                            self._peers[node_id].serve_halo,
                            dataset, source_field, timestep, node_ranges, part,
                        )
                        for (node_id, node_ranges), part in zip(remote, scratch)
                    ]
                    for future in futures:
                        atoms.update(future.result())
                for part in scratch:
                    ledger.add(part)
            else:
                ((node_id, node_ranges),) = remote
                atoms.update(
                    self._peers[node_id].serve_halo(
                        dataset, source_field, timestep, node_ranges, ledger,
                    )
                )
            fetch_span.set("bytes", sum(len(blob) for blob in atoms.values()))
        return atoms

    def prefetch_halo(
        self,
        ledger: CostLedger,
        dataset_spec: DatasetSpec,
        derived: DerivedField,
        timestep: int,
        boxes: "list[Box]",
        fd_order: int,
    ) -> dict[int, bytes] | None:
        """One combined remote boundary fetch for ``boxes``.

        Collects every remote atom range the boxes' expanded blocks
        will need and fetches each peer's share in a *single*
        ``serve_halo`` RPC before any block is computed — the dominant
        win of the pipelined data plane for halo exchange (one round
        trip per peer instead of one per block).  Atoms shared by
        adjacent blocks are fetched once.

        The slab loop calls this once per *chain*, so the paper's
        observation that halo reads are redundant across process chains
        keeps holding.  Query drivers that evaluate box by box (the
        semantic cache stores each box separately) call it once for
        every box they are about to evaluate, then pass the result to
        :meth:`evaluate` as ``prefetched`` — turning one halo RPC per
        box into one per peer per query.  The remote ranges of a box's
        slabs equal those of the box itself (interior slab seams stay
        on the owning node), so prefetching at box granularity is
        exact.  That is only meaningful for single-chain evaluation;
        with ``processes > 1`` drivers should let each chain fetch its
        own redundant boundary, as the paper's parallelism model assumes.

        Returns atoms keyed by zindex, or ``None`` when no remote atoms
        are needed at all (single node clusters, interior slabs).
        """
        side = dataset_spec.side
        halo = derived.halo(fd_order)
        pieces: list[Box] = []
        for box in boxes:
            expanded = box.expand(halo)
            if any(n > side for n in expanded.shape):
                pieces.append(Box.cube(side))
            else:
                pieces.extend(piece for piece, _ in expanded.wrap_periodic(side))
        by_node = self._split_ranges_by_node(_covering_ranges(pieces, side))
        by_node.pop(self._node.node_id, None)
        if not by_node:
            return None
        return self._fetch_remote(
            ledger, dataset_spec.name, derived.source, timestep,
            list(by_node.items()),
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


def _covering_ranges(pieces: "list[Box]", side: int) -> list[MortonRange]:
    """Atom ranges covering in-domain ``pieces``, each range once (atoms
    straddling a piece boundary are deduplicated), in first-seen order."""
    return list(dict.fromkeys(
        rng for piece in pieces for rng in atom_ranges_covering(piece, side)
    ))


def _threshold_scan(
    norm: np.ndarray, slab: Box, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and values of norm >= threshold, in global Morton codes."""
    mask = norm >= threshold
    if not mask.any():
        return np.empty(0, np.uint64), np.empty(0, np.float64)
    ix, iy, iz = np.nonzero(mask)
    zindexes = encode_array(
        ix + slab.lo[0], iy + slab.lo[1], iz + slab.lo[2]
    )
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
