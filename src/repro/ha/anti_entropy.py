"""Digest-based catch-up for a node rejoining a replicated cluster.

A node that was dead while its peers kept serving has stale shards: any
atom written (or rewritten) in the meantime exists only on the surviving
replicas.  Shipping whole shards to close that gap would cost a full
re-ingest; instead the rejoining node runs Merkle-style anti-entropy at
atom granularity:

1. for every shard it owns, ask one peer replica for the shard's **chunk
   digests** — ``zindex -> blake2b-64`` of each atom blob (one small
   JSON map instead of the atoms themselves);
2. compare against the digests of its own copy;
3. coalesce the divergent atoms into contiguous Morton ranges and fetch
   only those over the existing ``halo`` RPC (a clustered range read on
   the peer, exactly the boundary-exchange path);
4. upsert the fetched blobs locally.

An in-sync shard therefore costs one digest RPC and zero data transfer,
and a partially-stale shard costs transfer proportional to its drift —
never to its size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.grid.atoms import ATOM_VOLUME
from repro.morton import MortonRange
from repro.net import codec
from repro.net.pool import ConnectionPool
from repro.net.transport import DEFAULT_RPC_TIMEOUT, parse_address
from repro.obs import tracing

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.server import NodeServer

#: Bytes per chunk digest; 8 (64-bit) matches the collision budget of
#: the usual anti-entropy hashes while keeping the digest map small.
DIGEST_BYTES = 8


def chunk_digests(atoms: Mapping[int, bytes]) -> dict[int, str]:
    """``zindex -> hex digest`` of each atom blob.

    blake2b at 8 bytes is the stdlib stand-in for the xxhash-style
    64-bit content hashes replication systems use: far cheaper than a
    cryptographic-length digest, strong enough that a silent collision
    across two replicas of one atom is not a practical concern.
    """
    return {
        zindex: hashlib.blake2b(blob, digest_size=DIGEST_BYTES).hexdigest()
        for zindex, blob in atoms.items()
    }


def diverging_atoms(
    local: Mapping[int, str], remote: Mapping[int, str]
) -> list[int]:
    """Atoms to fetch from the peer: missing here, or content differs.

    The peer is the source of truth (it stayed up); atoms only the local
    side has are left alone — this cluster's ingest is deterministic, so
    local extras cannot exist unless an operator loaded them on purpose.
    """
    return sorted(
        zindex
        for zindex, digest in remote.items()
        if local.get(zindex) != digest
    )


def coalesce_atoms(zindexes: Iterable[int]) -> list[MortonRange]:
    """Merge atom corner codes into maximal contiguous Morton ranges.

    Each atom spans ``[z, z + ATOM_VOLUME)`` on the curve; adjacent
    stale atoms fuse into one range so the fetch runs as few clustered
    scans as possible on the peer.
    """
    ranges: list[MortonRange] = []
    for zindex in sorted(zindexes):
        if ranges and ranges[-1].stop == zindex:
            ranges[-1] = MortonRange(ranges[-1].start, zindex + ATOM_VOLUME)
        else:
            ranges.append(MortonRange(zindex, zindex + ATOM_VOLUME))
    return ranges


@dataclass(frozen=True)
class CatchUpReport:
    """What one anti-entropy pass compared and moved."""

    shards: tuple[int, ...]
    ranges_checked: int
    atoms_checked: int
    chunks_fetched: int
    bytes_fetched: int


def catch_up(server: "NodeServer") -> CatchUpReport:
    """Bring every shard this server owns in sync with a peer replica.

    For each owned shard with at least one other replica, the digest
    map of the shard's full Morton range is compared per (dataset,
    field, timestep) against that peer, and only the divergent atoms
    are fetched and upserted.

    Returns a :class:`CatchUpReport`; raises
    :class:`~repro.net.errors.NetError` if a chosen peer cannot answer.
    """
    placement = server.placement
    addresses = server.peer_addresses
    if addresses is None:
        raise ValueError(
            f"node {server.node_id} has no peer addresses; catch-up needs "
            "connect_peers() with the cluster's address list"
        )
    ranges_checked = atoms_checked = chunks_fetched = bytes_fetched = 0
    shards: list[int] = []
    pools: dict[int, ConnectionPool] = {}

    def pool_for(node_id: int) -> ConnectionPool:
        pool = pools.get(node_id)
        if pool is None:
            host, port = parse_address(addresses[node_id])
            # Catch-up is a sequential fetch loop: one request in flight.
            pool = ConnectionPool(host, port, max_connections=1)
            pools[node_id] = pool
        return pool

    with tracing.span("ha.catchup", node=server.node_id) as span:
        try:
            for shard in placement.shards_of(server.node_id):
                peers = [
                    node
                    for node in placement.replicas_of(shard)
                    if node != server.node_id
                ]
                if not peers:
                    continue  # replication factor 1: nothing to compare
                shards.append(shard)
                pool = pool_for(peers[0])
                shard_range = server.partitioner.node_ranges(shard)
                for dataset in server.node.dataset_names:
                    spec = server.node.dataset(dataset)
                    for field in sorted(spec.fields):
                        for timestep in range(spec.timesteps):
                            (
                                checked,
                                fetched,
                                nbytes,
                            ) = _sync_range(
                                server,
                                pool,
                                dataset,
                                field,
                                timestep,
                                shard_range,
                            )
                            ranges_checked += 1
                            atoms_checked += checked
                            chunks_fetched += fetched
                            bytes_fetched += nbytes
        finally:
            for pool in pools.values():
                pool.close()
        span.set("shards", len(shards))
        span.set("chunks_fetched", chunks_fetched)
        span.set("bytes_fetched", bytes_fetched)
    return CatchUpReport(
        shards=tuple(shards),
        ranges_checked=ranges_checked,
        atoms_checked=atoms_checked,
        chunks_fetched=chunks_fetched,
        bytes_fetched=bytes_fetched,
    )


def _sync_range(
    server: "NodeServer",
    pool: ConnectionPool,
    dataset: str,
    field: str,
    timestep: int,
    shard_range: MortonRange,
) -> tuple[int, int, int]:
    """Sync one (dataset, field, timestep, range); returns
    ``(atoms_checked, chunks_fetched, bytes_fetched)``."""
    wire_ranges = codec.ranges_to_wire([shard_range])
    call = pool.call(
        "digest",
        {
            "dataset": dataset,
            "field": field,
            "timestep": timestep,
            "ranges": wire_ranges,
        },
        (),
        timeout=DEFAULT_RPC_TIMEOUT,
    )
    remote = {
        int(zindex): str(digest)
        for zindex, digest in call.header.get("digests", {}).items()
    }
    with server.node.db.transaction(None) as txn:
        local_atoms = server.node.read_atoms(
            txn, dataset, field, timestep, [shard_range], charge=False
        )
    stale = diverging_atoms(chunk_digests(local_atoms), remote)
    if not stale:
        return len(remote), 0, 0
    fetch = pool.call(
        "halo",
        {
            "dataset": dataset,
            "field": field,
            "timestep": timestep,
            "ranges": codec.ranges_to_wire(coalesce_atoms(stale)),
        },
        (),
        timeout=DEFAULT_RPC_TIMEOUT,
    )
    atoms = codec.halo_atoms_from_wire(fetch.header, fetch.blobs)
    nbytes = sum(len(blob) for blob in atoms.values())
    with server.node.db.transaction() as txn:
        server.node.replace_atoms(
            txn, dataset, field, timestep, sorted(atoms.items())
        )
    return len(remote), len(atoms), nbytes
