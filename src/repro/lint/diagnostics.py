"""Diagnostics, suppression comments and source-file loading.

Every checker reports :class:`Diagnostic` records against a
:class:`SourceFile`, which owns the parsed AST plus the suppression
comments extracted from the raw text.  Suppressions use the syntax::

    do_risky_thing()  # turblint: disable=TXN01
    # turblint: disable-file=LOCK02     (anywhere in the file)

``disable=all`` silences every checker for the line (or file).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

_SUPPRESS_RE = re.compile(
    r"#\s*turblint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*|all)"
)


@dataclass(frozen=True)
class Diagnostic:
    """One reported violation, pointing at a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def render(self) -> str:
        """The ``path:line:col: CODE message`` display form."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class LintSyntaxError(Exception):
    """A scanned file failed to parse (reported, never swallowed)."""


@dataclass
class SuppressionDirective:
    """One ``# turblint: disable[-file]=...`` comment in a file.

    Tracks which of its codes actually silenced a diagnostic during the
    run (``hits``) so SUP01 can flag stale directives.  ``codes`` holds
    upper-cased codes, or ``{"ALL"}`` for a blanket disable.
    """

    lineno: int
    kind: str  # "line" | "file"
    codes: set[str]
    hits: set[str]

    def stale_codes(self, active: set[str]) -> set[str]:
        """Codes this directive names that never fired.

        Only codes in ``active`` (checkers that actually ran) are
        considered — a partial ``--select`` run must not declare
        directives for unrun checkers stale.  A blanket ``all``
        directive is stale when nothing at all was suppressed by it.
        """
        if "ALL" in self.codes:
            return {"ALL"} if not self.hits else set()
        return {c for c in self.codes & active if c not in self.hits}


class SourceFile:
    """A parsed Python source file plus its suppression directives.

    Args:
        path: filesystem path (used in diagnostics).
        module: dotted module name used for checker scoping (e.g.
            ``repro.storage.mvcc``).  Tests pass synthetic names to run a
            fixture under a specific checker's scope.
        text: source text; read from ``path`` when omitted.
    """

    def __init__(
        self, path: str | Path, module: str, text: str | None = None
    ) -> None:
        self.path = Path(path)
        self.module = module
        self.text = self.path.read_text() if text is None else text
        try:
            self.tree = ast.parse(self.text, filename=str(self.path))
        except SyntaxError as error:
            raise LintSyntaxError(f"{self.path}: {error}") from error
        self.line_disables: dict[int, set[str]] = {}
        self.file_disables: set[str] = set()
        self.directives: list[SuppressionDirective] = []
        self._parse_suppressions()
        self._parents: dict[ast.AST, ast.AST] | None = None

    def _parse_suppressions(self) -> None:
        # Only real COMMENT tokens count: a directive quoted inside a
        # docstring (e.g. the examples at the top of this module) must
        # neither suppress anything nor be reported stale by SUP01.
        for lineno, comment in self._comments():
            match = _SUPPRESS_RE.search(comment)
            if match is None:
                continue
            codes = {
                code.strip().upper() for code in match.group(2).split(",")
            }
            if match.group(1) == "disable-file":
                self.file_disables |= codes
                self.directives.append(
                    SuppressionDirective(lineno, "file", codes, set())
                )
            else:
                self.line_disables.setdefault(lineno, set()).update(codes)
                self.directives.append(
                    SuppressionDirective(lineno, "line", codes, set())
                )

    def _comments(self) -> list[tuple[int, str]]:
        """``(lineno, text)`` for every comment token in the file."""
        reader = io.StringIO(self.text).readline
        try:
            return [
                (token.start[0], token.string)
                for token in tokenize.generate_tokens(reader)
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):
            # The AST parsed, so this is a tokenizer-only corner case;
            # fall back to scanning raw lines (over-matching is the
            # pre-existing behaviour).
            return list(
                enumerate(self.text.splitlines(), start=1)
            )

    def suppressed(self, code: str, line: int) -> bool:
        """Whether a diagnostic of ``code`` at ``line`` is silenced.

        As a side effect, records the hit on every directive that
        matches, which is what lets SUP01 find stale suppressions.
        """
        code = code.upper()
        hit = False
        for directive in self.directives:
            if directive.kind == "line" and directive.lineno != line:
                continue
            if "ALL" in directive.codes or code in directive.codes:
                directive.hits.add(code)
                hit = True
        return hit

    def parents(self) -> dict[ast.AST, ast.AST]:
        """Child-to-parent map over the AST (built once, cached)."""
        if self._parents is None:
            table: dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    table[child] = node
            self._parents = table
        return self._parents

    def enclosing(
        self, node: ast.AST, *kinds: type[ast.AST]
    ) -> list[ast.AST]:
        """Ancestors of ``node`` matching ``kinds``, innermost first."""
        parents = self.parents()
        found = []
        current = parents.get(node)
        while current is not None:
            if isinstance(current, kinds):
                found.append(current)
            current = parents.get(current)
        return found
