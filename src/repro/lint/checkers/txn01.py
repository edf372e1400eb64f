"""TXN01 — transaction discipline.

The paper runs every cache read and update "within a transaction with
snapshot isolation level" (§4, Algorithm 1), and the engine's
:class:`~repro.storage.mvcc.Transaction` must be committed or aborted on
every control-flow path — a leaked ACTIVE transaction pins its snapshot
and blocks first-updater-wins conflict detection forever.  This checker
enforces, in the transactional modules:

* a transaction obtained outside a ``with`` statement must be finished:
  at least one ``txn.commit()``/``txn.abort()`` must exist, and every
  ``commit`` must sit inside a ``try`` whose handlers all abort the
  transaction (with at least one catch-all handler), or whose
  ``finally`` aborts it — otherwise an exception raised mid-transaction
  leaks it;
* a ``begin()``/``transaction()`` call whose result is discarded is a
  leak by construction;
* table mutations (``insert``/``update``/``delete`` on a table obtained
  via ``db.table(...)``) must pass a transaction as their first
  argument — no mutation outside a transaction.

Heuristics (documented, deliberate): returning a fresh transaction
transfers ownership to the caller and is allowed; a parameter named
``txn`` or annotated ``Transaction`` counts as a live transaction.
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, call_attr, function_defs, module_in
from repro.lint.diagnostics import Diagnostic, SourceFile

#: Methods that create a transaction.
TXN_FACTORIES = {"begin", "transaction"}
#: Table methods that mutate rows.
TABLE_MUTATORS = {"insert", "update", "delete"}
#: Handler types treated as catch-alls.
CATCH_ALL = {"Exception", "BaseException"}


def _own_statements(fn: ast.AST) -> list[ast.stmt]:
    """Statements of ``fn`` excluding nested function/class bodies."""
    out: list[ast.stmt] = []
    stack: list[ast.stmt] = list(getattr(fn, "body", []))
    while stack:
        stmt = stack.pop()
        out.append(stmt)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            else:
                stack.extend(
                    s for s in ast.walk(child) if isinstance(s, ast.stmt)
                )
    return out


def _is_txn_factory_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and call_attr(node) in TXN_FACTORIES
        and isinstance(node.func, ast.Attribute)
    )


def _annotation_mentions_transaction(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    return "Transaction" in ast.dump(annotation)


class TxnDiscipline(Checker):
    """Every transaction commits or aborts on all control-flow paths."""

    code = "TXN01"
    description = (
        "transactions begun in the storage/cache modules must commit or "
        "abort on every path; table mutations must run inside one"
    )

    def applies(self, module: str) -> bool:
        return module_in(
            module,
            "repro.storage.",
            "repro.core.cache",
            "repro.core.pdfcache",
            "repro.core.threshold",
            "repro.core.batch",
            "repro.core.pdf",
            "repro.core.topk",
            "repro.cluster.node",
            "repro.cluster.mediator",
        )

    def check(self, source: SourceFile) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        for fn in function_defs(source.tree):
            diags.extend(self._check_function(source, fn))
        return diags

    # -- per-function analysis ------------------------------------------------

    def _check_function(
        self, source: SourceFile, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        own = _own_statements(fn)
        txn_names = self._txn_names_in_scope(source, fn)

        assigned: list[tuple[str, ast.Assign]] = []
        for stmt in own:
            if isinstance(stmt, ast.Assign) and _is_txn_factory_call(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        assigned.append((target.id, stmt))
            elif isinstance(stmt, ast.Expr) and _is_txn_factory_call(stmt.value):
                diags.append(
                    self.report(
                        source,
                        stmt,
                        "transaction begun and immediately discarded — it "
                        "can never be committed or aborted",
                    )
                )

        for name, stmt in assigned:
            diags.extend(self._check_lifecycle(source, fn, name, stmt))

        diags.extend(self._check_table_mutations(source, fn, own, txn_names))
        return diags

    def _txn_names_in_scope(
        self, source: SourceFile, fn: ast.AST
    ) -> set[str]:
        """Transaction-valued names visible inside ``fn`` (incl. closures)."""
        names: set[str] = set()
        scopes: list[ast.AST] = [fn] + source.enclosing(
            fn, ast.FunctionDef, ast.AsyncFunctionDef
        )
        for scope in scopes:
            args = scope.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                if arg.arg == "txn" or _annotation_mentions_transaction(
                    arg.annotation
                ):
                    names.add(arg.arg)
            for stmt in _own_statements(scope):
                if isinstance(stmt, ast.Assign) and _is_txn_factory_call(
                    stmt.value
                ):
                    names.update(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        if _is_txn_factory_call(
                            item.context_expr
                        ) and isinstance(item.optional_vars, ast.Name):
                            names.add(item.optional_vars.id)
        return names

    # -- explicit begin/commit lifecycle --------------------------------------

    def _check_lifecycle(
        self,
        source: SourceFile,
        fn: ast.AST,
        name: str,
        assign: ast.Assign,
    ) -> list[Diagnostic]:
        commits = self._finish_calls(fn, name, "commit")
        aborts = self._finish_calls(fn, name, "abort")
        if not commits and not aborts:
            return [
                self.report(
                    source,
                    assign,
                    f"transaction {name!r} is never committed or aborted on "
                    "any path",
                )
            ]
        diags = []
        for commit in commits:
            if not self._commit_protected(source, commit, name):
                diags.append(
                    self.report(
                        source,
                        commit,
                        f"commit of {name!r} is unprotected: an exception "
                        "raised before this commit leaves the transaction "
                        "active (wrap the work in try/except with "
                        f"{name}.abort() on every handler, or abort in a "
                        "finally block)",
                    )
                )
        return diags

    def _finish_calls(
        self, fn: ast.AST, name: str, method: str
    ) -> list[ast.Call]:
        calls = []
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                calls.append(node)
        return calls

    def _commit_protected(
        self, source: SourceFile, commit: ast.Call, name: str
    ) -> bool:
        for candidate in source.enclosing(commit, ast.Try):
            if not self._within_block(source, commit, candidate, candidate.body):
                continue
            if self._block_aborts(candidate.finalbody, name):
                return True
            handlers = candidate.handlers
            if (
                handlers
                and all(self._block_aborts(h.body, name) for h in handlers)
                and any(self._catches_all(h) for h in handlers)
            ):
                return True
        return False

    def _within_block(
        self,
        source: SourceFile,
        node: ast.AST,
        stop: ast.AST,
        block: list[ast.stmt],
    ) -> bool:
        block_ids = {id(stmt) for stmt in block}
        parents = source.parents()
        current: ast.AST | None = node
        while current is not None and current is not stop:
            if id(current) in block_ids:
                return True
            current = parents.get(current)
        return False

    def _block_aborts(self, stmts: list[ast.stmt], name: str) -> bool:
        for stmt in stmts:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "abort"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == name
                ):
                    return True
        return False

    def _catches_all(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        return any(
            isinstance(t, ast.Name) and t.id in CATCH_ALL for t in types
        )

    # -- table mutations must carry a transaction ------------------------------

    def _check_table_mutations(
        self,
        source: SourceFile,
        fn: ast.AST,
        own: list[ast.stmt],
        txn_names: set[str],
    ) -> list[Diagnostic]:
        table_names: set[str] = set()
        for stmt in own:
            if isinstance(stmt, ast.Assign):
                value = stmt.value
                if isinstance(value, ast.Call) and call_attr(value) == "table":
                    table_names.update(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
        diags = []
        for stmt in own:
            for node in ast.walk(stmt):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in TABLE_MUTATORS
                ):
                    continue
                receiver = node.func.value
                is_table = (
                    isinstance(receiver, ast.Name)
                    and receiver.id in table_names
                ) or (
                    isinstance(receiver, ast.Call)
                    and call_attr(receiver) == "table"
                )
                if not is_table:
                    continue
                first = node.args[0] if node.args else None
                if not (
                    isinstance(first, ast.Name) and first.id in txn_names
                ):
                    diags.append(
                        self.report(
                            source,
                            node,
                            f"table {node.func.attr} outside a transaction — "
                            "the first argument must be a live Transaction",
                        )
                    )
        return diags
