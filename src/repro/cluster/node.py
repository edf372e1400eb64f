"""A database node: atom tables on HDD arrays, cache tables on SSD.

Each node runs its own :class:`~repro.storage.database.Database` holding
one atom table per (dataset, raw field) pair, plus the local
application-aware cache tables managed by :mod:`repro.core.cache`
(paper Fig. 5).  Nodes answer two kinds of internal requests: clustered
range scans of their atom tables, and small boundary (halo) reads on
behalf of neighbouring nodes.

A node keeps no write-ahead log.  Its atoms are regenerated from their
source, and its cache holds derived results that a miss recomputes.
"""

from __future__ import annotations

from typing import cast

import numpy as np

from repro.costmodel import Category, ClusterSpec, CostLedger
from repro.costmodel.ledger import METER_HALO_BYTES, METER_HALO_SECONDS
from repro.grid import Box
from repro.grid.atoms import atom_ranges_covering
from repro.morton import MortonRange
from repro.morton.ranges import merge_ranges
from repro.obs import tracing
from repro.simulation.datasets import DatasetSpec
from repro.simulation.ingest import AtomRun
from repro.storage import (
    Column,
    ColumnType,
    Database,
    StorageDevice,
    TableSchema,
    Transaction,
)


def _atom_table_name(dataset: str, field: str) -> str:
    return f"atoms_{dataset}_{field}"


class DatabaseNode:
    """One node of the analysis cluster.

    Args:
        node_id: position of this node in the cluster.
        spec: hardware description used for simulated-time charging.
        buffer_pages: buffer-pool frames per table.
    """

    def __init__(
        self,
        node_id: int,
        spec: ClusterSpec,
        buffer_pages: int = 2048,
    ) -> None:
        self.node_id = node_id
        self.spec = spec
        self.db = Database(f"node{node_id}", buffer_pages=buffer_pages)
        self.db.add_device(StorageDevice("hdd", spec.hdd, Category.IO))
        self.db.add_device(StorageDevice("ssd", spec.ssd, Category.CACHE_LOOKUP))
        self._datasets: dict[str, DatasetSpec] = {}

    # -- schema -----------------------------------------------------------------

    def register_dataset(self, spec: DatasetSpec) -> None:
        """Create the atom tables for every raw field of a dataset."""
        if spec.name in self._datasets:
            raise ValueError(f"dataset {spec.name!r} already registered")
        self._datasets[spec.name] = spec
        for field in spec.fields:
            self.db.create_table(
                TableSchema(
                    _atom_table_name(spec.name, field),
                    (
                        Column("timestep", ColumnType.INTEGER),
                        Column("zindex", ColumnType.BIGINT),
                        Column("blob", ColumnType.BLOB),
                    ),
                    primary_key=("timestep", "zindex"),
                ),
                device="hdd",
            )

    def close(self) -> None:
        """Close the node's database (release its buffer pools)."""
        self.db.close()

    def dataset(self, name: str) -> DatasetSpec:
        """The spec of a hosted dataset.  Raises :class:`KeyError` if absent."""
        try:
            return self._datasets[name]
        except KeyError:
            raise KeyError(f"node {self.node_id} has no dataset {name!r}") from None

    @property
    def dataset_names(self) -> list[str]:
        return sorted(self._datasets)

    # -- atom I/O -----------------------------------------------------------------

    def store_atom(
        self,
        txn: Transaction,
        dataset: str,
        field: str,
        timestep: int,
        zindex: int,
        blob: bytes,
    ) -> None:
        """Insert one atom record."""
        table = self.db.table(_atom_table_name(dataset, field))
        table.insert(
            txn, {"timestep": timestep, "zindex": zindex, "blob": blob}
        )

    def store_atoms(
        self,
        txn: Transaction,
        dataset: str,
        field: str,
        timestep: int,
        atoms: list[tuple[int, bytes]],
    ) -> int:
        """Bulk-insert ``(zindex, blob)`` atom records in one batch.

        Dataset loads push millions of atoms; routing them through
        :meth:`~repro.storage.table.Table.insert_many` takes the latch
        once per batch instead of once per atom.  Returns the number of
        atoms stored.
        """
        table = self.db.table(_atom_table_name(dataset, field))
        return table.insert_many(
            txn,
            [
                {"timestep": timestep, "zindex": zindex, "blob": blob}
                for zindex, blob in atoms
            ],
        )

    def replace_atoms(
        self,
        txn: Transaction,
        dataset: str,
        field: str,
        timestep: int,
        atoms: list[tuple[int, bytes]],
    ) -> int:
        """Upsert ``(zindex, blob)`` atom records (anti-entropy catch-up).

        The atom tables' primary key is ``(timestep, zindex)``, so a
        rejoining node whose copy diverged (rather than being absent)
        cannot plain-insert the peer's version; deleting any existing
        record first turns the bulk insert into an upsert.  Returns the
        number of atoms written.
        """
        table = self.db.table(_atom_table_name(dataset, field))
        for zindex, _blob in atoms:
            table.delete(txn, (timestep, zindex))
        return table.insert_many(
            txn,
            [
                {"timestep": timestep, "zindex": zindex, "blob": blob}
                for zindex, blob in atoms
            ],
        )

    def read_atoms(
        self,
        txn: Transaction,
        dataset: str,
        field: str,
        timestep: int,
        ranges: list[MortonRange],
        charge: bool = True,
    ) -> AtomRun:
        """The atoms of ``ranges`` as one columnar run, from one scan.

        Each :class:`MortonRange` is in grid-point codes (as produced by
        :func:`repro.grid.atoms.atom_ranges_covering`); one range is one
        sequential extent on disk.  Their sorted union is read in a
        single clustered scan call, which leaves no trace in the buffer
        pool; the read is then charged for ``ranges`` as given
        (:meth:`charge_read`) unless ``charge`` is False — halo service
        for a peer, or the executor, which charges slab by slab.
        """
        table = self.db.table(_atom_table_name(dataset, field))
        (zindexes, blobs), pages = table.scan_columns(
            txn, ["zindex", "blob"],
            [
                ((timestep, rng.start), (timestep, rng.stop))
                for rng in merge_ranges(sorted(ranges))
            ],
        )
        run = AtomRun(
            np.array(zindexes, dtype=np.uint64), cast("list[bytes]", blobs), pages
        )
        if charge:
            self.charge_read(
                dataset, field, run, [(rng.start, rng.stop) for rng in ranges]
            )
        return run

    def charge_read(
        self,
        dataset: str,
        field: str,
        run: AtomRun,
        bounds: list[tuple[int, int]] | np.ndarray,
    ) -> None:
        """Charge a read of the ``[start, stop)`` ranges ``bounds`` by
        replaying the pages ``run`` recorded through the buffer pool.

        The ranges do not arrive sorted along the curve: a halo cover
        hands them over in the order its wrapped pieces first saw them,
        and the disk visits them in that order.  Every atom of a range
        touches its page; only the first atom of the first range pays a
        full seek, later ranges are forward skips served by read-ahead
        (SQL Server's sequential scan behaviour the paper's I/O numbers
        reflect).  ``run`` is a local read of a superset of ``bounds``
        under the charged transaction: atoms that transaction cannot
        see are not in it, and touch nothing.
        """
        assert run.pages is not None, "only a local read records its pages"
        cuts = np.searchsorted(
            run.zindexes, np.asarray(bounds, dtype=np.uint64).reshape(-1, 2)
        ).tolist()
        pages: list[int] = []
        for start, stop in cuts:
            pages += run.pages[start:stop]
        self.db.table(_atom_table_name(dataset, field)).touch_pages(
            pages, sequential=not cuts or cuts[0][0] == cuts[0][1]
        )

    def read_atoms_for_box(
        self,
        txn: Transaction,
        dataset: str,
        field: str,
        timestep: int,
        box: Box,
    ) -> dict[int, bytes]:
        """Atoms covering an in-domain box (local data only), as a dict
        built from the run's two columns."""
        side = self.dataset(dataset).side
        run = self.read_atoms(
            txn, dataset, field, timestep, atom_ranges_covering(box, side)
        )
        return dict(zip(run.zindexes.tolist(), run.tiles))

    def serve_halo(
        self,
        dataset: str,
        field: str,
        timestep: int,
        ranges: list[MortonRange],
        ledger: CostLedger | None,
    ) -> AtomRun:
        """Serve a boundary read for a peer node.

        The atoms a node serves as halo are part of its *own* share of
        the same distributed query, so its local scan has them buffer-hot
        — the marginal cost of the boundary exchange is shipping the
        band over the node interconnect, not extra disk I/O (paper §4:
        "only a small amount of data along the boundary need to be
        requested from adjacent nodes").  The transfer time is charged
        to the requesting query's ledger as I/O-phase time; the read
        leaves no trace in this node's buffer pool (its own scan of the
        same query pays for those pages itself).
        """
        with tracing.span("node.halo", category="io") as halo_span:
            halo_span.set("server", self.node_id)
            # Unbound: on a replicated cluster the requester may be this
            # very node (it holds a copy of the peer's shard), mid-query
            # on this thread and database; rebinding here would send the
            # rest of that query's device charges nowhere.
            with self.db.begin(None, bind=False) as txn:
                atoms = self.read_atoms(
                    txn, dataset, field, timestep, ranges, charge=False
                )
            if ledger is not None:
                nbytes = atoms.nbytes
                seconds = self.spec.interconnect.transfer_time(nbytes)
                ledger.charge(Category.IO, seconds)
                ledger.count(METER_HALO_SECONDS, seconds)
                ledger.count(METER_HALO_BYTES, nbytes)
                halo_span.set("bytes", nbytes)
        return atoms
