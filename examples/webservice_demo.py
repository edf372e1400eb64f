"""Drive the service through its web-service front door (paper Fig. 1).

Every interaction is a plain request dictionary and a serializable
response — the shape of the JHTDB's SOAP calls — including the error
responses users get for bad thresholds.

Run with:  python examples/webservice_demo.py
"""

import json

from repro import build_cluster, mhd_dataset
from repro.cluster.webservice import WebService


def call(service, request):
    """Issue one call and pretty-print the (abridged) response."""
    response = service.handle(request)
    shown = dict(response)
    if "points" in shown and len(shown["points"]) > 3:
        shown["points"] = shown["points"][:3] + ["..."]
    print(f"> {request['method']}")
    print(json.dumps(shown, indent=2, default=str)[:600])
    print()
    return response


def main() -> None:
    dataset = mhd_dataset(side=64, timesteps=2)
    mediator = build_cluster(dataset, nodes=4)
    service = WebService(mediator, max_points=5000)

    call(service, {"method": "ListDatasets"})
    call(service, {"method": "ListFields"})

    # Too low a threshold: the documented error response (paper Sec. 4).
    call(service, {
        "method": "GetThreshold", "dataset": "mhd", "field": "vorticity",
        "timestep": 0, "threshold": 0.1,
    })

    # Examine the PDF first, as the error suggests.
    pdf = call(service, {
        "method": "GetPdf", "dataset": "mhd", "field": "vorticity",
        "timestep": 0, "bin_edges": [0.0, 5.0, 10.0, 15.0, 20.0, 30.0],
    })
    threshold = pdf["bin_edges"][-2]

    # Now a sensible threshold query, twice: the repeat hits the cache.
    call(service, {
        "method": "GetThreshold", "dataset": "mhd", "field": "vorticity",
        "timestep": 0, "threshold": threshold,
    })
    call(service, {
        "method": "GetThreshold", "dataset": "mhd", "field": "vorticity",
        "timestep": 0, "threshold": threshold,
    })

    # Batch two velocity-derived queries over one shared scan.
    call(service, {
        "method": "GetBatchThreshold",
        "queries": [
            {"dataset": "mhd", "field": "vorticity", "timestep": 1,
             "threshold": threshold},
            {"dataset": "mhd", "field": "q_criterion", "timestep": 1,
             "threshold": threshold ** 2},
        ],
    })

    # Service-level statistics (paper Sec. 5.2's hit-ratio observation).
    call(service, {"method": "GetStatistics"})


if __name__ == "__main__":
    main()
