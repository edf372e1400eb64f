"""The turblint checker suite: TXN01, LOCK02, DL01, ERR01, NET01, NET02,
OBS01 and SUP01."""

from __future__ import annotations

from repro.lint.checkers.dl01 import DeadlinePropagation
from repro.lint.checkers.err01 import ErrorTaxonomy
from repro.lint.checkers.lock02 import LockOrderWholeProgram
from repro.lint.checkers.net01 import NetDeadlines
from repro.lint.checkers.net02 import NetZeroCopy
from repro.lint.checkers.obs01 import ObsDiscipline
from repro.lint.checkers.sup01 import StaleSuppression
from repro.lint.checkers.txn01 import TxnDiscipline

#: Checker classes in reporting order.
ALL_CHECKERS = (
    TxnDiscipline,
    LockOrderWholeProgram,
    DeadlinePropagation,
    ErrorTaxonomy,
    NetDeadlines,
    NetZeroCopy,
    ObsDiscipline,
    StaleSuppression,
)

__all__ = [
    "ALL_CHECKERS",
    "DeadlinePropagation",
    "ErrorTaxonomy",
    "LockOrderWholeProgram",
    "NetDeadlines",
    "NetZeroCopy",
    "ObsDiscipline",
    "StaleSuppression",
    "TxnDiscipline",
]
