"""Command-line front end: ``python -m repro.lint src/``.

Besides the human-readable report, the CLI speaks CI: ``--format json``
emits a machine-readable payload and ``--witness FILE`` feeds the
sanitizer's runtime lock-order edge set into LOCK02.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.checkers import ALL_CHECKERS
from repro.lint.diagnostics import Diagnostic, LintSyntaxError, SourceFile
from repro.lint.program import Program
from repro.obs.report import report

#: Exit codes (CI contract).
EXIT_CLEAN = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def module_name_for(path: Path) -> str:
    """Dotted module name for a file, anchored at ``src`` or ``repro``.

    ``src/repro/storage/mvcc.py`` -> ``repro.storage.mvcc``;
    ``.../repro/lint/__init__.py`` -> ``repro.lint``.  Files outside any
    recognised root fall back to their stem, which keeps them out of the
    scoped checkers.
    """
    parts = list(path.resolve().with_suffix("").parts)
    module: list[str]
    if "src" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("src")
        module = parts[anchor + 1 :]
    elif "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        module = parts[anchor:]
    else:
        module = [parts[-1]]
    if module and module[-1] == "__init__":
        module = module[:-1]
    return ".".join(module) if module else path.stem


def discover(paths: Iterable[str | Path]) -> list[Path]:
    """All ``.py`` files under the given files/directories, sorted."""
    files: set[Path] = set()
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def run_paths(
    paths: Iterable[str | Path],
    select: Sequence[str] | None = None,
    witness: str | Path | None = None,
) -> tuple[list[Diagnostic], int]:
    """Lint the given paths.

    Returns ``(diagnostics, file_count)`` with suppressions already
    applied.  ``select`` restricts the run to the named checker codes;
    ``witness`` names a sanitizer-exported lock-order edge set consumed
    by checkers exposing ``load_witness`` (LOCK02).
    """
    wanted = {code.upper() for code in select} if select else None
    checkers = [
        cls()
        for cls in ALL_CHECKERS
        if wanted is None or cls.code in wanted
    ]
    if witness is not None:
        for checker in checkers:
            loader = getattr(checker, "load_witness", None)
            if loader is not None:
                loader(witness)
    diagnostics: list[Diagnostic] = []
    sources: dict[str, SourceFile] = {}
    files = discover(paths)
    for file in files:
        try:
            source = SourceFile(file, module_name_for(file))
        except LintSyntaxError as error:
            diagnostics.append(
                Diagnostic("PARSE", str(error), str(file), 1)
            )
            continue
        sources[str(source.path)] = source
        for checker in checkers:
            if not checker.applies(source.module):
                continue
            for diag in checker.check(source):
                if not source.suppressed(diag.code, diag.line):
                    diagnostics.append(diag)
    program_checkers = [c for c in checkers if c.whole_program]
    if program_checkers and sources:
        program = Program(sources.values())
        for checker in program_checkers:
            for diag in checker.check_program(program):
                source = sources.get(diag.path)
                if source is not None and source.suppressed(
                    diag.code, diag.line
                ):
                    continue
                diagnostics.append(diag)
    active = {c.code for c in checkers} - {"SUP01"}
    if any(c.code == "SUP01" for c in checkers):
        diagnostics.extend(
            _stale_suppressions(sources, active, full_run=wanted is None)
        )
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.code))
    return diagnostics, len(files)


def _stale_suppressions(
    sources: dict[str, SourceFile], active: set[str], full_run: bool
) -> list[Diagnostic]:
    """SUP01 diagnostics for directives that suppressed nothing.

    Evaluated after every checker has run, using the hit-counts the
    directives accumulated while filtering.  ``disable=all`` directives
    are only judged on full runs, where every checker had its chance.
    """
    diags: list[Diagnostic] = []
    for source in sources.values():
        for directive in source.directives:
            if "ALL" in directive.codes and not full_run:
                continue
            stale = directive.stale_codes(active)
            if not stale:
                continue
            if source.suppressed("SUP01", directive.lineno):
                continue
            listed = ",".join(sorted(stale)).lower()
            diags.append(
                Diagnostic(
                    "SUP01",
                    f"stale suppression: disable={listed} no longer "
                    "suppresses any diagnostic — delete the comment so "
                    "it cannot hide future regressions",
                    str(source.path),
                    directive.lineno,
                )
            )
    return diags


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "turblint: AST invariant checkers for the threshold-query "
            "engine (transaction discipline, lock hygiene, deadlines, "
            "error taxonomy, wire and observability discipline)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories"
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODE",
        help="run only the named checker (repeatable)",
    )
    parser.add_argument(
        "--list-checkers",
        action="store_true",
        help="list checker codes and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is one machine-readable object)",
    )
    parser.add_argument(
        "--witness",
        metavar="FILE",
        help=(
            "sanitizer-exported lock-order witness JSON; LOCK02 "
            "annotates cycle edges as runtime-confirmed or never "
            "witnessed"
        ),
    )
    try:
        options = parser.parse_args(argv)
    except SystemExit as error:
        return EXIT_USAGE if error.code not in (0, None) else 0

    from repro.lint.checkers import ALL_CHECKERS as registry

    if options.list_checkers:
        for cls in registry:
            report(f"{cls.code}  {cls.description}")
        return EXIT_CLEAN

    missing = [path for path in options.paths if not Path(path).exists()]
    if missing:
        report(
            f"no such file or directory: {', '.join(missing)}",
            error=True,
        )
        return EXIT_USAGE

    known = {cls.code for cls in registry}
    if options.select:
        unknown = {code.upper() for code in options.select} - known
        if unknown:
            report(
                f"unknown checker(s): {', '.join(sorted(unknown))}",
                error=True,
            )
            return EXIT_USAGE

    diagnostics, file_count = run_paths(
        options.paths, options.select, witness=options.witness
    )

    if options.format == "json":
        report(
            json.dumps(
                {
                    "files": file_count,
                    "count": len(diagnostics),
                    "diagnostics": [asdict(d) for d in diagnostics],
                }
            )
        )
    else:
        for diag in diagnostics:
            report(diag.render())
        report(
            f"turblint: {file_count} file(s) checked, "
            f"{len(diagnostics)} issue(s) found"
        )
    return EXIT_VIOLATIONS if diagnostics else EXIT_CLEAN


def console_main() -> None:
    """``repro-lint`` console-script entry point."""
    raise SystemExit(main())
