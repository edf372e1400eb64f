"""turblint: AST-based invariant checkers for the threshold-query engine.

The engine's correctness rests on invariants the runtime never checks:
snapshot-isolation transactions must commit or abort on every
control-flow path (``TXN01``), lock acquisition must stay acyclic and
no lock may be held across a send (``LOCK02``), every path to a socket
carries a deadline (``DL01``, ``NET01``), wire/engine errors use the
typed hierarchies (``ERR01``), payloads stay lists of buffers
(``NET02``), clocks and output go through ``repro.obs`` (``OBS01``), and
a suppression that silences nothing goes (``SUP01``).  This package
enforces those eight statically over the project's own AST.  What a
test already fails on has no rule here (DESIGN §7: a checker lands with
the seeded bug only it catches), and leaked sockets, threads and shm
segments are caught at run time by the test suite's leak gate.

Run as ``python -m repro.lint src/``; a non-zero exit code means
violations (for CI).  Individual diagnostics are suppressed with a
``# turblint: disable=CODE`` comment on the flagged line, or file-wide
with ``# turblint: disable-file=CODE``.
"""

from __future__ import annotations

from repro.lint.base import Checker
from repro.lint.cli import main, run_paths
from repro.lint.diagnostics import Diagnostic, SourceFile

__all__ = ["Checker", "Diagnostic", "SourceFile", "main", "run_paths"]
