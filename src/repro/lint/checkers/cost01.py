"""COST01 — cost-accounting completeness.

The evaluation in the paper compares strategies by *modelled* cost
(bytes read, seconds of simulated I/O and compute), so every expensive
operation must be charged to a
:class:`~repro.costmodel.ledger.CostLedger`.  Computing a simulated
device time (``read_time``/``write_time``/``compute_time``/
``transfer_time``) and discarding the result breaks that contract — the
cost was modelled but never charged, silently understating a
strategy's cost.

The other half of determinism — no wall-clock reads outside
``repro.obs`` — is OBS01's rule, whose scope contains this one's.
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, module_in
from repro.lint.diagnostics import Diagnostic, SourceFile

#: Device-model methods whose return value is a simulated duration.
DEVICE_TIME = {"compute_time", "read_time", "write_time", "transfer_time"}


class CostAccounting(Checker):
    """No discarded simulated device times."""

    code = "COST01"
    description = (
        "simulated device times must be charged to a CostLedger, not "
        "discarded"
    )

    def applies(self, module: str) -> bool:
        if not module_in(module, "repro."):
            return False
        return not module_in(
            module, "repro.harness.", "repro.benchmarks.", "repro.obs."
        )

    def check(self, source: SourceFile) -> list[Diagnostic]:
        parents = source.parents()
        return [
            self.report(
                source,
                node,
                f"simulated device time {node.func.attr}() computed but "
                "discarded — charge it to the CostLedger or do not "
                "model it",
            )
            for node in ast.walk(source.tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in DEVICE_TIME
            and isinstance(parents.get(node), ast.Expr)
        ]
