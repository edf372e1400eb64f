"""One table-driven differential test over the query-kind table.

Every entry of :data:`repro.net.kinds.KINDS` runs through every
execution path the cluster ships — in-process, TCP, TCP over a
replicated placement of two nodes and of four — and must return the
in-process answer array for array, with equal ``CostLedger`` category
totals unless a replica stands in for a primary (see :data:`PATHS`).
The same table drives the wire round-trip checks, and a kind that
exists only in this module proves the table is the whole seam: it is
answered in-process and over TCP without an edit to the mediator, the
transports or the node server.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.mediator import Mediator, build_cluster
from repro.cluster.partition import MortonPartitioner
from repro.cluster.webservice import WebService
from repro.core import MAX_RESULT_POINTS, PdfQuery, ThresholdQuery, TopKQuery
from repro.core.pointset import points_json, value_text
from repro.core.query import BadRequestError
from repro.core.threshold import RenderedPart
from repro.core.threshold import get_threshold_on_node
from repro.costmodel import CostLedger
from repro.costmodel.ledger import METER_WIRE_BYTES
from repro.grid import Box
from repro.ha import PlacementMap, ReplicaRouter
from repro.net import codec
from repro.net.client import NodeClient
from repro.net.errors import PartialFailureError, RemoteCallError
from repro.net.frame import Deadline
from repro.net.kinds import KINDS, Assembled, QueryKind
from repro.net.server import ClusterConfig, NodeServer
from repro.net.transport import TcpTransport
from repro.obs import tracing
from repro.simulation.datasets import mhd_dataset

SIDE = 16
NODES = 2
SEED = 11

VORTICITY = ThresholdQuery("mhd", "vorticity", 0, 0.5)

#: One request per table entry, keyed like the table.  Every path runs
#: them in this order on a fresh cluster, so semantic-cache state (the
#: batch's vorticity leg hits what the threshold query stored) evolves
#: identically everywhere.
REQUESTS = {
    "threshold": VORTICITY,
    "batch_threshold": [
        VORTICITY,
        ThresholdQuery("mhd", "q_criterion", 0, 0.5),
    ],
    "pdf": PdfQuery(
        "mhd", "pressure", 0, tuple(float(x) for x in np.linspace(-3, 3, 9))
    ),
    "topk": TopKQuery("mhd", "velocity", 0, 25),
}

#: The shipped execution paths.  ``tcp_one_replica`` is a replicated
#: cluster after a failover: one node answers for both shards.
#: ``tcp_replicated_4_nodes`` is four nodes at R = 2: node 0 holds
#: shards 0 and 3 and reads shards 1 and 2's halo bands from their
#: replicas over the wire.  The arrays of both must still match, but not
#: their ledgers — the cost model charges a shard read off a non-primary
#: replica as an interconnect transfer (ROADMAP item 5(a)).
PATHS = (
    "in_process",
    "tcp_monolithic",
    "tcp_replicated",
    "tcp_one_replica",
    "tcp_replicated_4_nodes",
)

#: The paths answered by four nodes, compared with a four-node
#: in-process cluster (result counts such as ``nodes`` follow the size).
FOUR_NODE_PATHS = ("tcp_replicated_4_nodes",)


class FixedRouter(ReplicaRouter):
    """Deterministic routing: placement order (primary first), or one
    preferred node ahead of it — the latency-aware order would depend on
    loopback timing."""

    def __init__(self, placement, prefer=None):
        super().__init__(placement)
        self._prefer = prefer

    def route(self, shard_id):
        replicas = self.placement.replicas_of(shard_id)
        return sorted(replicas, key=lambda node: node != self._prefer)


def test_every_table_entry_has_a_request():
    assert set(REQUESTS) == set(KINDS)


def run_all(mediator: Mediator) -> dict:
    """Every stock kind through its public mediator method, in order."""
    return {
        name: getattr(mediator, name)(request)
        for name, request in REQUESTS.items()
    }


def start_servers(replication_factor=1, nodes=NODES):
    """In-thread node servers over loopback, wired and loaded."""
    config = ClusterConfig(
        dataset="mhd", side=SIDE, timesteps=1, seed=SEED, nodes=nodes,
        replication_factor=replication_factor,
    )
    servers = [NodeServer(i, config) for i in range(nodes)]
    addresses = [f"127.0.0.1:{server.port}" for server in servers]
    for server in servers:
        server.connect_peers(addresses)
        server.load()
        server.start()
    return servers, addresses


def tcp_mediator(addresses, replication_factor=1, prefer=None) -> Mediator:
    nodes = len(addresses)
    # Simulated seconds are bit-for-bit reproducible although the parts
    # interleave: a node's buffer pool is touched only by its own part
    # (a halo read served to a peer leaves no trace in it), which is
    # what lets ledgers be compared with ``==``.
    placement = PlacementMap(nodes, nodes, replication_factor)
    return Mediator(
        nodes=[],
        partitioner=MortonPartitioner(SIDE, nodes),
        transport=TcpTransport(
            addresses,
            placement=placement,
            router=FixedRouter(placement, prefer),
            timeout=60.0,
        ),
    )


def in_process_mediator(nodes=NODES) -> Mediator:
    return build_cluster(
        mhd_dataset(side=SIDE, timesteps=1, seed=SEED), nodes=nodes
    )


@pytest.fixture(scope="module")
def answers():
    """``path -> kind -> result``."""
    results = {}
    with in_process_mediator() as mediator:
        results["in_process"] = run_all(mediator)
    with in_process_mediator(nodes=4) as mediator:
        results["in_process_4_nodes"] = run_all(mediator)
    legs = {
        "tcp_monolithic": ({}, {}),
        "tcp_replicated": (
            {"replication_factor": 2}, {"replication_factor": 2},
        ),
        "tcp_one_replica": (
            {"replication_factor": 2}, {"replication_factor": 2, "prefer": 0},
        ),
        "tcp_replicated_4_nodes": (
            {"replication_factor": 2, "nodes": 4}, {"replication_factor": 2},
        ),
    }
    for path, (server_kwargs, mediator_kwargs) in legs.items():
        servers, addresses = start_servers(**server_kwargs)
        try:
            with tcp_mediator(addresses, **mediator_kwargs) as mediator:
                results[path] = run_all(mediator)
        finally:
            for server in servers:
                server.shutdown()
    return results


def assert_same(ours, reference, where="result", ledgers=True) -> None:
    """Structural equality: arrays element for element, ledgers by
    category totals, nested results recursively; ``query_id`` (a fresh
    trace id per execution) is the one field allowed to differ."""
    if isinstance(reference, np.ndarray):
        assert ours.dtype == reference.dtype, where
        assert np.array_equal(ours, reference), where
    elif isinstance(reference, CostLedger):
        assert not ledgers or ours.breakdown() == reference.breakdown(), where
    elif dataclasses.is_dataclass(reference):
        assert type(ours) is type(reference), where
        for field in dataclasses.fields(reference):
            if field.name != "query_id":
                assert_same(
                    getattr(ours, field.name),
                    getattr(reference, field.name),
                    f"{where}.{field.name}",
                    ledgers,
                )
    elif isinstance(reference, (list, tuple)):
        assert len(ours) == len(reference), where
        for index, (mine, theirs) in enumerate(zip(ours, reference)):
            assert_same(mine, theirs, f"{where}[{index}]", ledgers)
    else:
        assert ours == reference, where


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("path", PATHS[1:])
def test_every_path_returns_the_in_process_answer(answers, path, kind):
    results = answers
    four_nodes = path in FOUR_NODE_PATHS
    assert_same(
        results[path][kind],
        results["in_process_4_nodes" if four_nodes else "in_process"][kind],
        kind,
        ledgers=path != "tcp_one_replica" and not four_nodes,
    )


def test_the_in_process_answer_is_not_trivial(answers):
    reference = answers["in_process"]
    assert len(reference["threshold"]) > 256
    assert all(len(r) for r in reference["batch_threshold"].results)
    assert reference["pdf"].total_points == SIDE**3
    assert len(reference["topk"]) == REQUESTS["topk"].k


# -- a threshold query is a batch of one -----------------------------------------


def _cache_legs(nodes, ask):
    """``ask(query, **options)`` with no cache, a missing cache and a
    warm one, at one chain and at four; the four-chain query's lower
    threshold finds the stored entry stale, so it misses and replaces."""
    legs = []
    for processes, threshold in ((1, 0.5), (4, 0.4)):
        query = dataclasses.replace(VORTICITY, threshold=threshold)
        for use_cache, hits in ((False, 0), (True, 0), (True, nodes)):
            answer = ask(query, use_cache=use_cache, processes=processes)
            assert answer.cache_hits == hits
            legs.append(answer)
    return legs


def _engine_meters(ledger: CostLedger) -> dict:
    """Every meter but the frame bytes: the two kinds' wire messages
    legitimately differ in their headers."""
    meters = ledger.meters()
    meters.pop(METER_WIRE_BYTES, None)
    return meters


@pytest.mark.parametrize("transport", ["in_process", "tcp"])
@pytest.mark.parametrize("nodes", [2, 4])
def test_a_batch_of_one_is_the_lone_query(nodes, transport):
    # One driver (Algorithm 1) and one slab loop serve both kinds, so
    # on identical fresh clusters the two must agree point for point
    # and charge for charge, halo prefetch included.
    def answers_of(ask_with):
        if transport == "in_process":
            with in_process_mediator(nodes) as mediator:
                return _cache_legs(nodes, ask_with(mediator))
        servers, addresses = start_servers(nodes=nodes)
        try:
            with tcp_mediator(addresses) as mediator:
                return _cache_legs(nodes, ask_with(mediator))
        finally:
            for server in servers:
                server.shutdown()

    lone = answers_of(lambda mediator: mediator.threshold)
    batched = answers_of(
        lambda mediator: lambda query, **options: (
            mediator.batch_threshold([query], **options).results[0]
        )
    )
    assert len(lone[0]) > 0
    assert_same(batched, lone, f"{transport} x{nodes}")
    for ours, reference in zip(batched, lone):
        assert _engine_meters(ours.ledger) == _engine_meters(reference.ledger)


@pytest.mark.parametrize("processes", [0, 65, 2_000_000_000])
def test_a_node_refuses_processes_outside_the_limit_with_a_typed_error(processes):
    # A mediator (or anyone else on the wire) that skipped the web
    # service's validation gets the node's own ValueError back in an
    # ERROR frame, before a slab list is allocated per process.
    servers, addresses = start_servers()
    try:
        with tcp_mediator(addresses) as mediator:
            with pytest.raises(ValueError, match="processes must be in 1..64"):
                mediator.threshold(VORTICITY, processes=processes, use_cache=False)
            assert len(mediator.threshold(VORTICITY, processes=64)) > 0
    finally:
        for server in servers:
            server.shutdown()


# -- wire round-trips, per table entry -----------------------------------------


def _options(kind: QueryKind) -> dict:
    chosen = {
        "use_cache": False, "processes": 2, "io_only": False,
        "render": False, "max_points": 5_000,
    }
    return {name: chosen[name] for name in kind.options}


def _over_the_wire(header: dict, blobs) -> tuple:
    return codec.decode_message(codec.encode_message(header, blobs))


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_request_round_trips_over_the_wire(kind):
    descriptor = KINDS[kind]
    boxes = MortonPartitioner(SIDE, NODES).query_boxes(1, Box.cube(SIDE))
    options = _options(descriptor)
    header, _ = _over_the_wire(
        descriptor.request_header(REQUESTS[kind], boxes, options), []
    )
    assert list(header) == [descriptor.request_key, "boxes", *descriptor.options]
    assert descriptor.parse_request(header) == (REQUESTS[kind], boxes, options)
    # A caller that sent no options gets the documented defaults.
    bare = {key: header[key] for key in (descriptor.request_key, "boxes")}
    defaults = {
        "use_cache": True, "processes": 1, "io_only": False,
        "render": False, "max_points": MAX_RESULT_POINTS,
    }
    assert descriptor.parse_request(bare)[2] == {
        name: defaults[name] for name in descriptor.options
    }


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_result_round_trips_over_the_wire(kind):
    descriptor = KINDS[kind]
    with in_process_mediator() as mediator:
        boxes = mediator.partitioner.query_boxes(0, Box.cube(SIDE))
        part = mediator.transport.part(
            descriptor, 0, REQUESTS[kind], boxes,
            **{**_options(descriptor), "processes": 1},
        )
    header, blobs = _over_the_wire(*descriptor.result_to_wire(part))
    assert_same(descriptor.result_from_wire(header, blobs), part, kind)


def test_a_rendered_part_round_trips_over_the_wire():
    descriptor = KINDS["threshold"]
    options = {**_options(descriptor), "render": True, "processes": 1}
    with in_process_mediator() as mediator:
        boxes = mediator.partitioner.query_boxes(0, Box.cube(SIDE))
        header, _ = _over_the_wire(
            descriptor.request_header(VORTICITY, boxes, options), []
        )
        assert descriptor.parse_request(header)[2] == options
        columns = mediator.transport.part(
            descriptor, 0, VORTICITY, boxes, **{**options, "render": False}
        )
        part = mediator.transport.part(descriptor, 0, VORTICITY, boxes, **options)
    assert isinstance(part, RenderedPart) and len(part) == len(columns) > 256
    assert part.fragment == points_json(
        columns.zindexes, value_text(columns.values)
    )
    header, blobs = _over_the_wire(*descriptor.result_to_wire(part))
    assert_same(descriptor.result_from_wire(header, blobs), part, "rendered")


# -- the node boundary: a bad record is a typed error, a bug is not one ----------


#: A record edit that drops the field.
_GONE = object()


def _threshold_header(**changes) -> dict:
    """A node-0 threshold part's REQUEST header, its record edited."""
    descriptor = KINDS["threshold"]
    boxes = MortonPartitioner(SIDE, NODES).query_boxes(0, Box.cube(SIDE))
    header = descriptor.request_header(VORTICITY, boxes, _options(descriptor))
    header["query"].update(changes)
    header["query"] = {k: v for k, v in header["query"].items() if v is not _GONE}
    return header


#: Malformed REQUESTs, each with what its typed error must say.
MALFORMED = [
    ("threshold", _threshold_header(field=_GONE), "missing parameter 'field'"),
    ("threshold", _threshold_header(timestep="0"), "'timestep' has the wrong type"),
    ("threshold", _threshold_header(threshold=10**400), "'threshold': int too large"),
    ("threshold", _threshold_header(fd_order=4.0), "'fd_order' has the wrong type"),
    ("threshold", {**_threshold_header(), "boxes": [[0, 0, 0]]}, "'boxes'"),
    ("threshold", {**_threshold_header(), "processes": True}, "'processes'"),
    ("threshold", {**_threshold_header(), "query": [1]}, "must be an object"),
    ("halo", {"dataset": "mhd", "field": "velocity", "timestep": 0,
              "ranges": [[0, "64"]]}, "'ranges' has the wrong type"),
    ("digest", {"dataset": "mhd", "field": "velocity"}, "missing parameter 'timestep'"),
]


def test_a_malformed_request_is_a_typed_error_and_the_connection_serves_on():
    servers, _ = start_servers()
    try:
        with NodeClient("127.0.0.1", servers[0].port, Deadline.after(10.0)) as client:
            for method, header, message in MALFORMED:
                with pytest.raises(BadRequestError, match=message):
                    client.call(method, header, (), Deadline.after(10.0))
            good = client.call(
                "threshold", _threshold_header(), (), Deadline.after(10.0)
            )
        part = KINDS["threshold"].result_from_wire(good.header, good.blobs)
        assert len(part) > 0
    finally:
        for server in servers:
            server.shutdown()


def test_a_kernel_key_error_is_a_remote_fault_not_a_bad_request(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("a kernel bug")

    # Node servers resolve wire methods against the live table.
    monkeypatch.setitem(
        KINDS, "threshold", dataclasses.replace(KINDS["threshold"], run=broken)
    )
    request = {"method": "GetThreshold", "dataset": "mhd",
               "field": "vorticity", "timestep": 0, "threshold": 0.5}
    # In process the KeyError reaches the door itself: the same code.
    local = build_cluster(mhd_dataset(side=SIDE, timesteps=1), nodes=NODES)
    response = WebService(local).handle(dict(request))
    assert (response["status"], response["code"]) == ("error", "internal_error")
    assert "KeyError" in response["message"]
    servers, addresses = start_servers(replication_factor=2)
    try:
        with tcp_mediator(addresses, replication_factor=2) as mediator:
            with pytest.raises(PartialFailureError) as failed:
                mediator.threshold(VORTICITY, use_cache=False)
            cause = failed.value.__cause__
            assert isinstance(cause, RemoteCallError)
            assert (cause.remote_type, cause.code) == ("KeyError", "internal_error")
            assert not isinstance(cause, (KeyError, ValueError, TypeError))
            response = WebService(mediator).handle(dict(request))
            assert (response["status"], response["code"]) == ("error", "internal_error")
            failovers = mediator.metrics.to_dict()["ha_failovers_total"]
            assert failovers["samples"][0]["value"] == 0
            # The node answered and kept its connections: a kind that
            # works is served at once.
            assert len(mediator.pdf(REQUESTS["pdf"]).counts) > 0
    finally:
        for server in servers:
            server.shutdown()


# -- a kind that exists only here ------------------------------------------------


@dataclasses.dataclass
class NodeCount:
    """One node's share of a count-above-threshold query."""

    count: int
    ledger: CostLedger


@dataclasses.dataclass
class CountResult:
    """How many grid points sit at or above the threshold."""

    count: int
    ledger: CostLedger
    query_id: str


def _run_count(ctx, query, boxes, *, use_cache, processes):
    part = get_threshold_on_node(
        ctx.node, ctx.executor, ctx.cache if use_cache else None,
        ctx.registry, query, boxes, processes=processes,
    )
    return NodeCount(len(part), part.ledger)


def _assemble_count(gather, query, parts):
    # The answer is one number: charge latency only, like a PDF.
    gather.charge_networks(0)
    count = sum(part.count for part in parts)
    return Assembled(
        CountResult(count, gather.ledger, gather.query_id),
        points=0,
        fanout=len(parts),
    )


COUNT_ABOVE = QueryKind(
    name="count_above",
    request=ThresholdQuery,
    options=("use_cache", "processes"),
    run=_run_count,
    result_to_wire=lambda part: (
        {"count": part.count, "ledger": codec.ledger_to_wire(part.ledger)},
        [],
    ),
    result_from_wire=lambda header, blobs: NodeCount(
        int(header["count"]), codec.ledger_from_wire(header["ledger"])
    ),
    region=lambda query: (query.dataset, query.box),
    part_ledger=lambda part: part.ledger,
    span_attributes=lambda query: {
        "dataset": query.dataset, "field": query.field,
    },
    assemble=_assemble_count,
)


def test_a_kind_defined_only_here_runs_end_to_end(answers, monkeypatch):
    # Node servers resolve wire methods against the live table.
    monkeypatch.setitem(KINDS, COUNT_ABOVE.name, COUNT_ABOVE)
    collector = tracing.install()
    servers, addresses = start_servers()
    try:
        with in_process_mediator() as local, tcp_mediator(addresses) as remote:
            counted = {
                "in_process": local._run(
                    COUNT_ABOVE, VORTICITY, use_cache=True, processes=1
                ),
                "tcp": remote._run(
                    COUNT_ABOVE, VORTICITY, use_cache=True, processes=1
                ),
            }
            for mediator in (local, remote):
                queries = mediator.metrics.get("queries_total")
                assert queries.labels(kind="count_above").value == 1
            spans = collector.trace(counted["tcp"].query_id)
    finally:
        tracing.uninstall()
        for server in servers:
            server.shutdown()
    assert_same(counted["tcp"], counted["in_process"], "count_above")
    assert counted["tcp"].count == len(answers["in_process"]["threshold"])
    assert spans[0].name == "query.count_above"
    parts = [span for span in spans if span.name == "node.part"]
    served = [
        span for span in spans
        if span.name == "server.request"
        and span.attributes["method"] == "count_above"
    ]
    assert len(parts) == len(served) == NODES
    assert all(span.breakdown is not None for span in parts)
