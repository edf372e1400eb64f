"""Spatial partitioning of datasets across cluster nodes.

Datasets are "partitioned spatially across 4 to 8 database nodes ...
along contiguous ranges of the Morton z-curve" (paper §2, §5.1).  With a
power-of-two node count each node's share is a union of whole octants of
the domain, so a node's part of any box query decomposes into a small
set of rectangular boxes — which is what the per-node executor operates
on.
"""

from __future__ import annotations

import bisect

from repro.grid import Box
from repro.grid.atoms import ATOM_VOLUME, atom_code
from repro.morton import MortonRange, decode, split_curve

#: Node counts whose curve shares are unions of whole octants.
SUPPORTED_NODE_COUNTS = (1, 2, 4, 8)


class MortonPartitioner:
    """Assigns atoms (and spatial octants) to cluster nodes.

    Args:
        domain_side: grid points per domain edge (power of two multiple
            of the atom side).
        nodes: number of database nodes (1, 2, 4 or 8, as in the paper's
            scale-out experiments).
    """

    def __init__(self, domain_side: int, nodes: int) -> None:
        if nodes not in SUPPORTED_NODE_COUNTS:
            raise ValueError(
                f"node count {nodes} unsupported; pick one of {SUPPORTED_NODE_COUNTS}"
            )
        if domain_side <= 0 or domain_side & (domain_side - 1):
            raise ValueError(f"domain side {domain_side} is not a power of two")
        if domain_side % 8:
            raise ValueError("domain side must be a multiple of the atom side")
        self.domain_side = domain_side
        self.nodes = nodes
        self._ranges = split_curve(domain_side, nodes)
        # Range starts, for binary-searching a code to its owning node.
        self._starts = [rng.start for rng in self._ranges]
        # Every query splits by these, so they are built once.
        self._octants = [self._octant_boxes(node) for node in range(nodes)]
        self._domain = Box.cube(domain_side)

    def node_ranges(self, node_id: int) -> MortonRange:
        """The contiguous Morton-code range (grid-point codes) of a node."""
        return self._ranges[node_id]

    def shard_ranges(self) -> list[MortonRange]:
        """Every shard's curve range in shard order (placement, catch-up)."""
        return list(self._ranges)

    def node_of_code(self, zindex: int) -> int:
        """The node owning the grid point with Morton code ``zindex``."""
        node_id = bisect.bisect_right(self._starts, zindex) - 1
        if node_id < 0 or zindex not in self._ranges[node_id]:
            raise ValueError(f"Morton code {zindex} outside the domain")
        return node_id

    def node_spans(self, rng: MortonRange) -> list[tuple[int, MortonRange]]:
        """Split a curve range at node boundaries: ``(node_id, piece)`` pairs.

        One binary search locates the node owning ``rng.start``; the
        pieces then walk forward through consecutive nodes, so splitting
        is O(log nodes + pieces) rather than an intersection probe of
        every node.

        Raises:
            ValueError: when the range reaches outside the domain.
        """
        if len(rng) == 0:
            return []
        if rng.stop > self._ranges[-1].stop:
            raise ValueError(f"Morton range {rng} outside the domain")
        node_id = self.node_of_code(rng.start)
        spans: list[tuple[int, MortonRange]] = []
        start = rng.start
        while start < rng.stop:
            stop = min(rng.stop, self._ranges[node_id].stop)
            spans.append((node_id, MortonRange(start, stop)))
            start = stop
            node_id += 1
        return spans

    def node_of_atom(self, atom_zindex: int) -> int:
        """The node owning the atom whose corner code is ``atom_zindex``."""
        return self.node_of_code(atom_zindex)

    def node_of_point(self, x: int, y: int, z: int) -> int:
        """The node owning grid point ``(x, y, z)`` (via its atom)."""
        return self.node_of_code(atom_code(x, y, z))

    def node_boxes(self, node_id: int) -> list[Box]:
        """The node's share of the domain as rectangular octant boxes.

        An octant of the Morton curve over a cube is itself a cube, so
        each node's contiguous curve range is a run of ``8 / nodes``
        equal sub-cubes.
        """
        if not 0 <= node_id < self.nodes:
            raise ValueError(f"node id {node_id} outside [0, {self.nodes})")
        return list(self._octants[node_id])

    def _octant_boxes(self, node_id: int) -> list[Box]:
        if self.nodes == 1:
            return [Box.cube(self.domain_side)]
        half = self.domain_side // 2
        octants_per_node = 8 // self.nodes
        boxes = []
        for octant in range(
            node_id * octants_per_node, (node_id + 1) * octants_per_node
        ):
            # Octant index along the curve = Morton code of its corner/half.
            corner = decode(octant * (half**3))
            lo = tuple(corner)
            boxes.append(Box(lo, tuple(c + half for c in lo)))
        return boxes

    def query_boxes(self, node_id: int, query: Box) -> list[Box]:
        """The node's rectangular pieces of ``query`` (may be empty)."""
        if query == self._domain:  # most queries: the node's whole share
            return list(self._octants[node_id])
        pieces = []
        for owned in self._octants[node_id]:
            overlap = owned.intersection(query)
            if overlap is not None:
                pieces.append(overlap)
        return pieces

    def atoms_of_node(self, node_id: int) -> int:
        """Number of atoms of one timestep stored on a node."""
        return len(self.node_ranges(node_id)) // ATOM_VOLUME
