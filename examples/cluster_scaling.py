"""How the evaluation scales with processes and nodes (paper Fig. 7/8).

Runs the cold-cache vorticity query with varying processes-per-node and
node counts, printing the speedup curves and the total-vs-I/O-only
comparison — a miniature of the paper's scaling study.

Run with:  python examples/cluster_scaling.py
"""

from repro import ThresholdQuery, build_cluster, mhd_dataset
from repro.costmodel import Category, paper_scale_spec
from repro.harness.common import threshold_levels

SIDE = 64


def cold_query(mediator, query, processes, io_only=False):
    mediator.drop_cache_entries(query.dataset, query.field, query.timestep)
    mediator.drop_page_caches()
    return mediator.threshold(
        query, processes=processes, use_cache=False, io_only=io_only
    )


def main() -> None:
    dataset = mhd_dataset(side=SIDE, timesteps=2)
    spec = paper_scale_spec(SIDE)  # charge paper-scale (1024^3) seconds
    threshold = threshold_levels(dataset, "vorticity", 0)["medium"]
    query = ThresholdQuery("mhd", "vorticity", 0, threshold)

    print("scale-up: processes per node (4-node cluster)")
    mediator = build_cluster(dataset, nodes=4, spec=spec)
    base = None
    for processes in (1, 2, 4, 8):
        result = cold_query(mediator, query, processes)
        io_only = cold_query(mediator, query, processes, io_only=True)
        base = base or result.elapsed
        print(f"  P={processes}: total {result.elapsed:6.1f} s, "
              f"I/O-only {io_only.elapsed:6.1f} s, "
              f"speedup {base / result.elapsed:.2f}x")

    print("\nscale-out: cluster size (1 process per node)")
    base = None
    for nodes in (1, 2, 4, 8):
        mediator = build_cluster(dataset, nodes=nodes, spec=spec)
        result = cold_query(mediator, query, 1)
        server = result.elapsed - result.ledger[Category.MEDIATOR_USER]
        base = base or server
        print(f"  N={nodes}: server time {server:6.1f} s, "
              f"speedup {base / server:.2f}x")


if __name__ == "__main__":
    main()
