"""Deterministic cost model of the JHTDB cluster hardware.

The paper's evaluation (§5) reports *time breakdowns* — I/O vs compute vs
cache lookup vs mediator/network time — measured on production hardware: 4
database nodes with 24-disk RAID-5 HDD arrays, per-node SSDs for the cache
tables, a LAN between mediator and nodes, and WAN clients speaking SOAP.
A laptop cannot exhibit those ratios at 1024^3 scale, so this package
models them: every byte moved through a device and every grid point pushed
through a kernel is charged deterministic simulated seconds to a
:class:`CostLedger`, calibrated against the paper's own measurements
(see :mod:`repro.costmodel.calibration`).

Wall-clock performance of the actual Python pipeline is measured
separately, end to end, by ``benchmarks/e2e``; the ledger is what
reproduces the figures' shapes.
"""

from repro.costmodel.ledger import Category, CostLedger
from repro.costmodel.devices import (
    CpuSpec,
    HddArraySpec,
    NetworkSpec,
    SsdSpec,
)
from repro.costmodel.calibration import ClusterSpec, paper_cluster, paper_scale_spec

__all__ = [
    "Category",
    "ClusterSpec",
    "CostLedger",
    "CpuSpec",
    "HddArraySpec",
    "NetworkSpec",
    "SsdSpec",
    "paper_cluster",
    "paper_scale_spec",
]
