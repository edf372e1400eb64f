"""The turblint checker suite."""

from __future__ import annotations

from repro.lint.checkers.cost01 import CostAccounting
from repro.lint.checkers.dl01 import DeadlinePropagation
from repro.lint.checkers.err01 import ErrorTaxonomy
from repro.lint.checkers.halo01 import HaloConsistency
from repro.lint.checkers.lock02 import LockOrderWholeProgram
from repro.lint.checkers.net01 import NetDeadlines
from repro.lint.checkers.net02 import NetZeroCopy
from repro.lint.checkers.obs01 import ObsDiscipline
from repro.lint.checkers.res01 import ResourceOwnership
from repro.lint.checkers.sup01 import StaleSuppression
from repro.lint.checkers.txn01 import TxnDiscipline

#: Checker classes in reporting order.
ALL_CHECKERS = (
    TxnDiscipline,
    CostAccounting,
    HaloConsistency,
    LockOrderWholeProgram,
    DeadlinePropagation,
    ResourceOwnership,
    ErrorTaxonomy,
    NetDeadlines,
    NetZeroCopy,
    ObsDiscipline,
    StaleSuppression,
)

__all__ = [
    "ALL_CHECKERS",
    "CostAccounting",
    "DeadlinePropagation",
    "ErrorTaxonomy",
    "HaloConsistency",
    "LockOrderWholeProgram",
    "NetDeadlines",
    "NetZeroCopy",
    "ObsDiscipline",
    "ResourceOwnership",
    "StaleSuppression",
    "TxnDiscipline",
]
