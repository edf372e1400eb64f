"""High availability: replicated shards, health-aware routing, failover.

The paper's service model assumes every Morton shard is always
answerable; this package removes that assumption for production-scale
deployments.  Three modules and one name:

* :mod:`repro.ha.placement` — R-way replica placement of the
  partitioner's Morton shards onto cluster nodes (rack-spread
  round-robin), shared by ``serve-node`` ingest and the mediator's
  routing;
* :mod:`repro.ha.router` — per-node health (heartbeat probes,
  consecutive-failure tracking) and EWMA latency, producing a best-
  replica-first routing order per shard;
* :mod:`repro.ha.anti_entropy` — digest-based catch-up for a rejoining
  node: compare per-range chunk digests against a peer replica and
  bulk-fetch only the divergent atoms over the existing RPC path;
* :data:`HaTcpTransport` — the cluster's one
  :class:`~repro.net.transport.TcpTransport` under the name it has
  always had here.  Handed a replicated :class:`PlacementMap`, its
  shard call retries a failed part against surviving replicas
  mid-query, so a killed node degrades a query's latency instead of its
  answer; node servers read their peers' halo bands through the same
  call.
"""

from repro.ha.anti_entropy import CatchUpReport, catch_up, chunk_digests
from repro.ha.placement import PlacementMap
from repro.ha.router import ReplicaRouter
from repro.net.transport import TcpTransport as HaTcpTransport

__all__ = [
    "CatchUpReport",
    "HaTcpTransport",
    "PlacementMap",
    "ReplicaRouter",
    "catch_up",
    "chunk_digests",
]
