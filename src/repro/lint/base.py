"""Checker base class and shared AST helpers."""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.lint.diagnostics import Diagnostic, SourceFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.program import Program


class Checker:
    """One invariant checker.

    A checker instance lives for a whole lint run: :meth:`check` is
    called once per in-scope file.  Checkers that set ``whole_program``
    additionally receive the turbscan
    :class:`~repro.lint.program.Program` model — built once per run over
    *every* scanned file — via :meth:`check_program` (cross-file
    analyses such as the lock-order graph live there).  Reported
    diagnostics are filtered against the file's suppressions before they
    reach the caller.
    """

    #: Diagnostic code, e.g. ``"TXN01"``.
    code: str = ""
    #: One-line human description of the enforced invariant.
    description: str = ""
    #: Whether the checker needs the whole-program model.
    whole_program: bool = False

    def applies(self, module: str) -> bool:
        """Whether ``module`` (dotted name) is in this checker's scope."""
        return True

    def check(self, source: SourceFile) -> list[Diagnostic]:
        """Diagnostics for one file (already scoped via :meth:`applies`)."""
        return []

    def check_program(self, program: Program) -> list[Diagnostic]:
        """Diagnostics over the whole-program model (default: none).

        Only called when ``whole_program`` is true.  Rules scope
        themselves here (the per-file :meth:`applies` gate does not
        constrain which modules contribute to the model).
        """
        return []

    def report(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Diagnostic:
        """Build a diagnostic of this checker's code at ``node``."""
        return Diagnostic(
            self.code,
            message,
            str(source.path),
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
        )


def module_in(module: str, *scopes: str) -> bool:
    """Whether ``module`` equals a scope or lives under a ``scope.`` prefix.

    A scope ending in ``.`` matches any submodule; otherwise exact match.
    """
    for scope in scopes:
        if scope.endswith("."):
            if module.startswith(scope) or module == scope[:-1]:
                return True
        elif module == scope:
            return True
    return False


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, or ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def call_attr(node: ast.Call) -> str | None:
    """The final attribute name of a method call, e.g. ``commit``."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def function_defs(tree: ast.Module) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function/method definition in the module, at any depth."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
