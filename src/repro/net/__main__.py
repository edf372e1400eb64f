"""Command-line entry points for running a real multi-process cluster.

Three subcommands cover the whole zero-to-cluster path::

    python -m repro.net init --db /tmp/cluster --dataset mhd \\
        --side 16 --timesteps 2 --nodes 2
    python -m repro.net serve-node --db /tmp/cluster --node-id 0 \\
        --port 9000 --peers 127.0.0.1:9000,127.0.0.1:9001
    python -m repro.net serve-http --nodes 127.0.0.1:9000,127.0.0.1:9001 \\
        --port 8080

``init`` writes the shared ``cluster.json`` description; each
``serve-node`` process regenerates the deterministic dataset, ingests
only its own Morton shard(s), and serves the wire protocol;
``serve-http`` runs a mediator over
:class:`~repro.net.transport.TcpTransport` — handed the cluster's
replica placement, whatever its replication factor — and puts the web
service on an HTTP port behind the asyncio front door
(:mod:`repro.net.aio`) and its admission controller.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.query import parse
from repro.net.server import ClusterConfig, NodeServer
from repro.obs.report import report


def _split_addresses(raw: str) -> list[str]:
    """Parse a comma-separated ``host:port`` list."""
    addresses = [part.strip() for part in raw.split(",") if part.strip()]
    if not addresses:
        raise ValueError("expected a comma-separated host:port list")
    return addresses


def _cmd_init(args: argparse.Namespace) -> int:
    """Write ``cluster.json`` describing a new cluster."""
    path = parse(ClusterConfig, vars(args)).save(args.db)
    report(f"wrote {path}: {args.dataset} side={args.side} "
           f"timesteps={args.timesteps} over {args.nodes} node(s), "
           f"replication factor {args.replication_factor}")
    return 0


def _cmd_serve_node(args: argparse.Namespace) -> int:
    """Load this node's shard and serve the wire protocol until ^C."""
    config = ClusterConfig.load(args.db)
    peers = _split_addresses(args.peers) if args.peers else None
    server = NodeServer(
        args.node_id,
        config,
        host=args.host,
        port=args.port,
        peer_addresses=peers,
    )
    shards = server.placement.shards_of(args.node_id)
    report(f"node {args.node_id}/{config.nodes}: loading "
           f"{config.dataset} shard(s) {list(shards)} (side={config.side}, "
           f"timesteps={config.timesteps})...")
    stored = server.load()
    report(f"node {args.node_id}: {stored} atoms stored; "
           f"serving on {server.host}:{server.port}")
    if args.catch_up:
        from repro.ha.anti_entropy import catch_up

        if peers is None:
            report("--catch-up needs --peers to reach a replica", error=True)
            server.shutdown()
            return 1
        caught = catch_up(server)
        report(f"node {args.node_id}: anti-entropy over shards "
               f"{list(caught.shards)}: {caught.atoms_checked} atoms "
               f"checked, {caught.chunks_fetched} chunks "
               f"({caught.bytes_fetched} bytes) fetched")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        report(f"node {args.node_id}: shutting down")
    finally:
        server.shutdown()
    return 0


def _cmd_serve_http(args: argparse.Namespace) -> int:
    """Run a TCP-transport mediator plus the HTTP front door until ^C."""
    from repro.cluster.admission import AdmissionController
    from repro.cluster.mediator import Mediator
    from repro.cluster.partition import MortonPartitioner
    from repro.cluster.webservice import WebService
    from repro.ha.placement import PlacementMap
    from repro.net.aio import AsyncHttpFrontend
    from repro.net.transport import TcpTransport
    from repro.obs import tracing

    addresses = _split_addresses(args.nodes)
    transport = TcpTransport(
        addresses,
        placement=PlacementMap(
            len(addresses), len(addresses), args.replication_factor
        ),
        heartbeat_interval=args.heartbeat_interval,
        timeout=args.rpc_timeout,
    )
    names = transport.dataset_names()
    if not names:
        report("node servers expose no datasets; run init + serve-node first",
               error=True)
        transport.close()
        return 1
    side = transport.dataset_side(names[0])
    partitioner = MortonPartitioner(side, len(addresses))
    tracing.install()
    mediator = Mediator(
        nodes=[], partitioner=partitioner, transport=transport
    )
    service = WebService(mediator)
    frontend = AsyncHttpFrontend(
        service,
        host=args.host,
        port=args.port,
        admission=AdmissionController(
            service.metrics,
            tenant_rate=args.tenant_quota,
            tenant_burst=args.tenant_quota * 2.0,
            max_queue_depth=args.max_queue_depth,
            max_queue_wait=args.max_queue_wait,
            workers=args.max_inflight,
        ),
        max_inflight=args.max_inflight,
    )
    report(f"mediator over {len(addresses)} node(s) "
           f"({', '.join(addresses)}); datasets: {', '.join(names)}")
    report(f"HTTP ({args.max_inflight} bridge slots, "
           f"{args.tenant_quota:g} req/s/tenant) on "
           f"http://{frontend.host}:{args.port} — "
           "POST / for queries, GET /stats, GET /trace/<query_id>")
    try:
        frontend.serve_forever()
    except KeyboardInterrupt:
        report("shutting down")
    finally:
        frontend.shutdown()
        mediator.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.net`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.net",
        description="Run a real multi-process threshold-query cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser("init", help="write a cluster.json description")
    init.add_argument("--db", required=True, help="cluster directory")
    init.add_argument("--dataset", default="mhd",
                      choices=("mhd", "isotropic", "channel"))
    init.add_argument("--side", type=int, default=16)
    init.add_argument("--timesteps", type=int, default=2)
    init.add_argument("--seed", type=int, default=11)
    init.add_argument("--nodes", type=int, default=2)
    init.add_argument("--buffer-pages", type=int, default=256)
    init.add_argument(
        "--replication-factor", type=int, default=1,
        help="copies of each Morton shard (2+ lets queries survive a "
             "node failure; default 1, the unreplicated layout)",
    )
    init.set_defaults(run=_cmd_init)

    serve_node = sub.add_parser(
        "serve-node", help="serve one node's shard on a TCP port"
    )
    serve_node.add_argument("--db", required=True, help="cluster directory")
    serve_node.add_argument("--node-id", type=int, required=True)
    serve_node.add_argument("--host", default="127.0.0.1")
    serve_node.add_argument("--port", type=int, required=True)
    serve_node.add_argument(
        "--peers",
        help="comma-separated host:port of ALL nodes in node-id order "
             "(required when the cluster has more than one node)",
    )
    serve_node.add_argument(
        "--catch-up", action="store_true",
        help="after loading, run digest anti-entropy against a peer "
             "replica of each owned shard (rejoin after downtime)",
    )
    serve_node.set_defaults(run=_cmd_serve_node)

    serve_http = sub.add_parser(
        "serve-http", help="run the mediator + web service over TCP nodes"
    )
    serve_http.add_argument(
        "--nodes", required=True,
        help="comma-separated host:port of the node servers, node-id order",
    )
    serve_http.add_argument("--host", default="127.0.0.1")
    serve_http.add_argument("--port", type=int, default=8080)
    serve_http.add_argument("--rpc-timeout", type=float, default=60.0)
    serve_http.add_argument(
        "--replication-factor", type=int, default=1,
        help="the cluster's replication factor; 2+ routes each shard "
             "over its replicas with health checks and mid-query failover",
    )
    serve_http.add_argument(
        "--heartbeat-interval", type=float, default=5.0,
        help="seconds between replica health probes (replicated mode)",
    )
    # Accepted and ignored: there is one door, and callers written when
    # it was opt-in (benchmarks/e2e/system.py) still pass the flag.
    serve_http.add_argument(
        "--async", action="store_true", help=argparse.SUPPRESS
    )
    serve_http.add_argument(
        "--max-inflight", type=int, default=8,
        help="bridge threads into the mediator — the dispatch "
             "concurrency bound (default 8)",
    )
    serve_http.add_argument(
        "--tenant-quota", type=float, default=100.0,
        help="per-tenant sustained requests/second (burst is 2x; "
             "tenants come from the X-Tenant header, default 100)",
    )
    serve_http.add_argument(
        "--max-queue-depth", type=int, default=512,
        help="admitted requests that may queue before the door sheds "
             "with 503 queue_full (default 512)",
    )
    serve_http.add_argument(
        "--max-queue-wait", type=float, default=2.0,
        help="seconds a request may wait for a bridge slot before "
             "being shed (default 2.0)",
    )
    serve_http.set_defaults(run=_cmd_serve_http)
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return int(args.run(args))


if __name__ == "__main__":
    sys.exit(main())
