"""OBS01 — observability discipline: no raw clocks, prints, or leaked spans.

The observability layer (:mod:`repro.obs`) is the engine's single point
of contact with the host: wall-clock reads live in ``repro.obs.clock``,
console output goes through ``repro.obs.report``, and tracing spans are
recorded by ``repro.obs.tracing``.  Three habits defeat that design:

* importing or calling ``time`` directly — timings escape the
  observability layer and (inside the engine proper) make results
  vary run to run, where the evaluation compares *modelled* cost; use
  ``repro.obs.clock`` / ``Stopwatch``;
* calling ``print`` or writing to ``sys.stdout``/``sys.stderr`` — output
  cannot be redirected or silenced by tests and services that must keep
  stdout clean; use ``repro.obs.report``;
* reading the clock through ``datetime.now()``/``datetime.utcnow()`` —
  the same leak as ``time.*`` through a different door;
* opening a span without a ``with`` statement — a span assigned to a
  variable is not closed on exceptions, so the trace tree ends up with
  dangling, never-ended spans.

The server paths of :mod:`repro.net` and :mod:`repro.cluster` are fully
in scope: a node server's reader loop and the mediator's scatter are
exactly where stray ``time.time()`` timings and debugging ``print``
calls tend to accrete, and where they are least visible.

The harness and the lint CLI are in scope too: *everything* outside
``repro.obs`` itself reports and times through the observability layer.
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, dotted_name, module_in
from repro.lint.diagnostics import Diagnostic, SourceFile


class ObsDiscipline(Checker):
    """Engine code talks to the host only through ``repro.obs``."""

    code = "OBS01"
    description = (
        "engine code must route clocks and console output through "
        "repro.obs (no direct time.* or print), and spans must be "
        "opened with a with-statement"
    )

    def applies(self, module: str) -> bool:
        if not module_in(module, "repro."):
            return False
        return not module_in(module, "repro.obs.")

    def check(self, source: SourceFile) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        parents = source.parents()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                diags.extend(self._check_import(source, node))
            elif isinstance(node, ast.ImportFrom):
                diags.extend(self._check_import_from(source, node))
            elif isinstance(node, ast.Call):
                diags.extend(self._check_call(source, node, parents))
        return diags

    def _check_import(
        self, source: SourceFile, node: ast.Import
    ) -> list[Diagnostic]:
        return [
            self.report(
                source,
                node,
                f"direct 'import {alias.name}' — use repro.obs.clock "
                "(now/Stopwatch) so all wall-clock reads go through the "
                "observability layer",
            )
            for alias in node.names
            if alias.name == "time" or alias.name.startswith("time.")
        ]

    def _check_import_from(
        self, source: SourceFile, node: ast.ImportFrom
    ) -> list[Diagnostic]:
        if node.module != "time":
            return []
        return [
            self.report(
                source,
                node,
                f"direct 'from time import {alias.name}' — use "
                "repro.obs.clock (now/Stopwatch) so all wall-clock reads "
                "go through the observability layer",
            )
            for alias in node.names
        ]

    def _check_call(
        self,
        source: SourceFile,
        node: ast.Call,
        parents: dict[ast.AST, ast.AST],
    ) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        dotted = dotted_name(node.func)
        if dotted is not None and dotted.split(".")[0] == "time":
            diags.append(
                self.report(
                    source,
                    node,
                    f"direct wall-clock call {dotted}() — use "
                    "repro.obs.clock (now/Stopwatch) instead",
                )
            )
        if dotted is not None and dotted.split(".")[-2:] in (
            ["datetime", "now"],
            ["datetime", "utcnow"],
        ):
            diags.append(
                self.report(
                    source,
                    node,
                    f"wall-clock read {dotted}() — use repro.obs.clock "
                    "(now/unix_now/Stopwatch) so all wall-clock reads go "
                    "through the observability layer",
                )
            )
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            diags.append(
                self.report(
                    source,
                    node,
                    "bare print() — route human-facing output through "
                    "repro.obs.report so it can be redirected or silenced",
                )
            )
        if dotted in ("sys.stdout.write", "sys.stderr.write"):
            diags.append(
                self.report(
                    source,
                    node,
                    f"direct {dotted}() — route console output through "
                    "repro.obs.report so it can be redirected or silenced",
                )
            )
        if self._is_span_call(dotted) and not isinstance(
            parents.get(node), ast.withitem
        ):
            diags.append(
                self.report(
                    source,
                    node,
                    f"span opened outside a with-statement ({dotted}(...)) "
                    "— use 'with ... as span:' so the span closes on "
                    "every path",
                )
            )
        return diags

    @staticmethod
    def _is_span_call(dotted: str | None) -> bool:
        """Whether a call's dotted name opens a tracing span.

        Matches ``tracing.span``, ``TRACER.span``, ``obs.span`` and the
        bare ``span`` import, but not e.g. ``current_span``.
        """
        if dotted is None:
            return False
        return dotted.split(".")[-1] == "span"
