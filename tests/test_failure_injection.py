"""Failure-injection tests: corrupted data, missing atoms, bad requests."""

import numpy as np
import pytest

from repro.cluster import DatabaseNode, build_cluster
from repro.core import ThresholdQuery
from repro.core.query import BadRequestError
from repro.costmodel import paper_cluster
from repro.simulation import mhd_dataset
from repro.storage.errors import StorageError


class TestMissingData:
    def test_missing_atom_fails_loudly(self, small_mhd):
        """A hole in the atom table surfaces as an error, not bad data."""
        mediator = build_cluster(small_mhd, nodes=2)
        node = mediator.nodes[0]
        with node.db.transaction() as txn:
            assert node.db.table("atoms_mhd_velocity").delete(txn, (0, 0))
        with pytest.raises(ValueError, match="uncovered"):
            mediator.threshold(
                ThresholdQuery("mhd", "vorticity", 0, 1e9), use_cache=False
            )

    def test_other_timesteps_unaffected(self, small_mhd):
        mediator = build_cluster(small_mhd, nodes=2)
        node = mediator.nodes[0]
        with node.db.transaction() as txn:
            node.db.table("atoms_mhd_velocity").delete(txn, (0, 0))
        result = mediator.threshold(
            ThresholdQuery("mhd", "vorticity", 1, 1e9), use_cache=False
        )
        assert len(result) == 0  # evaluates fine on the intact timestep

    def test_unloaded_timestep_fails(self, small_mhd):
        mediator = build_cluster(small_mhd, nodes=2, load=False)
        mediator.load_dataset(small_mhd, timesteps=[0])
        with pytest.raises(ValueError):
            mediator.threshold(
                ThresholdQuery("mhd", "vorticity", 1, 1e9), use_cache=False
            )

    def test_unknown_dataset_fails(self, mhd_cluster):
        with pytest.raises(BadRequestError):
            mhd_cluster.threshold(
                ThresholdQuery("isotropic", "vorticity", 0, 1.0)
            )


class TestCorruptData:
    def test_truncated_blob_detected(self, small_mhd):
        mediator = build_cluster(small_mhd, nodes=2)
        node = mediator.nodes[0]
        table = node.db.table("atoms_mhd_velocity")
        with node.db.transaction() as txn:
            table.delete(txn, (0, 0))
            table.insert(
                txn, {"timestep": 0, "zindex": 0, "blob": b"\x00" * 100}
            )
        with pytest.raises(ValueError, match="blob"):
            mediator.threshold(
                ThresholdQuery("mhd", "vorticity", 0, 1e9), use_cache=False
            )

    def test_failed_query_leaves_cache_consistent(self, small_mhd):
        """A mid-evaluation failure aborts the node transaction."""
        mediator = build_cluster(small_mhd, nodes=2)
        node = mediator.nodes[0]
        with node.db.transaction() as txn:
            node.db.table("atoms_mhd_velocity").delete(txn, (0, 0))
        with pytest.raises(ValueError):
            mediator.threshold(ThresholdQuery("mhd", "vorticity", 0, 1e9))
        # No half-written cache entries remain anywhere.
        for cache, cluster_node in zip(mediator.caches, mediator.nodes):
            with cluster_node.db.transaction() as txn:
                assert cache.entry_count(txn) == 0


class TestNodeMisuse:
    def test_store_atom_requires_registered_dataset(self):
        node = DatabaseNode(0, paper_cluster())
        from repro.storage.errors import TableNotFoundError

        with node.db.transaction() as txn:
            with pytest.raises(TableNotFoundError):
                node.store_atom(txn, "nope", "velocity", 0, 0, b"")
            txn.abort()

    def test_duplicate_atom_rejected(self, small_mhd):
        node = DatabaseNode(0, paper_cluster())
        node.register_dataset(small_mhd.spec)
        blob = b"\x00" * (8**3 * 3 * 4)
        from repro.storage import DuplicateKeyError

        with node.db.transaction() as txn:
            node.store_atom(txn, "mhd", "velocity", 0, 0, blob)
            with pytest.raises(DuplicateKeyError):
                node.store_atom(txn, "mhd", "velocity", 0, 0, blob)
            txn.abort()
