"""Shared plumbing for the turblint checker tests.

Fixture files live under ``tests/fixtures/lint/``; they are loaded with a
*synthetic* module name so each lands inside the checker's scope (the
paths themselves resolve to bare stems, which no scoped checker covers).
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import Checker, Diagnostic, SourceFile
from repro.lint.program import Program

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def load(name: str, module: str) -> SourceFile:
    """Load ``tests/fixtures/lint/<name>`` under a synthetic module name."""
    return SourceFile(FIXTURES / name, module)


def run_checker(
    checker: Checker, *sources: SourceFile
) -> list[Diagnostic]:
    """Run one per-file checker over the sources."""
    diagnostics: list[Diagnostic] = []
    for source in sources:
        assert checker.applies(source.module), (
            f"{checker.code} does not apply to {source.module}; "
            "fix the test's synthetic module name"
        )
        diagnostics.extend(
            diag
            for diag in checker.check(source)
            if not source.suppressed(diag.code, diag.line)
        )
    return diagnostics


def run_program_checker(
    checker: Checker, *sources: SourceFile
) -> list[Diagnostic]:
    """Run a whole-program checker over the sources as one Program.

    Mirrors the CLI's whole-program pass, including suppression
    filtering keyed on the diagnostic's path.
    """
    by_path = {str(source.path): source for source in sources}
    diagnostics = []
    for diag in checker.check_program(Program(sources)):
        source = by_path.get(diag.path)
        if source is not None and source.suppressed(diag.code, diag.line):
            continue
        diagnostics.append(diag)
    return diagnostics
