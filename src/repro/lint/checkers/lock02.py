"""LOCK02 — whole-program lock discipline.

Concurrent clients, node servers and the door's bridge threads share
pools, caches and storage (paper §5: queries are "executed in parallel
on the data nodes"), and real deadlock cycles in this codebase cross
layers (pool -> client, server -> storage).  LOCK02 analyses lock use on the
turbscan :class:`~repro.lint.program.Program`:

* every ``with self.lock`` / ``with obj.lock`` block is resolved to a
  lock identity ``Class.attr`` through the receiver's inferred type (a
  ``Condition`` wrapping another lock is an alias of the wrapped lock,
  not a new one);
* per-function summaries record which locks a function acquires and
  which calls it makes while holding them; acquisition sets are closed
  transitively over *synchronous* call edges (spawned work starts with a
  fresh lock stack);
* the resulting global graph must be acyclic, and no lock may be held
  across a call that transitively reaches a raw socket operation (the
  held-across-blocking check; deliberate cases carry a justified
  suppression);
* a plain ``threading.Lock`` must not be re-acquired through the same
  receiver while it is held — an immediate self-deadlock;
* a field that is mutated under one of its object's own locks somewhere
  must not also be mutated without one in a *public* method (private
  helpers are assumed to be called with the lock held — a documented
  heuristic matching this codebase's convention).

The runtime sanitizer (``repro.sanitize``) records the *witnessed* edge
set while the concurrency suites run; pass it via ``--witness`` (or the
``REPRO_LINT_WITNESS`` environment variable) and cycle reports annotate
each edge as runtime-confirmed or never witnessed, separating live
deadlock risk from static over-approximation.

Lock identity is syntactic: a lock is known where a class creates it
(``self.x = threading.Lock()``), so one lock object shared by two
classes appears as two nodes and a lock handed in from outside is not
a node at all, which under-reports but never invents edges.
Same-identity edges (two instances of the same class) are skipped
rather than reported as self-cycles.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.lint.base import Checker, dotted_name
from repro.lint.checkers.dl01 import socket_sink_functions
from repro.lint.diagnostics import Diagnostic
from repro.lint.program import FunctionInfo, Program

#: Environment variable naming a witness file (CI convenience).
WITNESS_ENV = "REPRO_LINT_WITNESS"

#: threading factory names; plain Lock is the non-reentrant one.
LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


class _Held(NamedTuple):
    """One entry of a function's ``with`` stack."""

    #: Lock identity, ``Class.attr``.
    lock: str
    #: Dotted receiver the lock was taken through (``self``), when the
    #: receiver is a plain name chain: the same identity through the
    #: same receiver is the same lock *object*.
    via: str | None


@dataclass
class _Summary:
    """What one function does with locks."""

    acquires: set[str] = field(default_factory=set)
    #: (held lock ids, call line) for every call made under a lock.
    held_calls: list[tuple[frozenset[str], int]] = field(
        default_factory=list
    )
    #: direct nested-with edges (held -> taken, line).
    edges: list[tuple[str, str, int]] = field(default_factory=list)
    #: (lock id, line) of a plain Lock taken again while already held.
    reacquired: list[tuple[str, int]] = field(default_factory=list)
    #: (attr, line, one of self's locks held) per store to ``self.attr``.
    mutations: list[tuple[str, int, bool]] = field(default_factory=list)


class LockOrderWholeProgram(Checker):
    """Global lock acquisition graph: acyclic, never held across I/O;
    no self-deadlock; guarded fields mutated only under their lock."""

    code = "LOCK02"
    description = (
        "the whole-program lock acquisition graph must stay acyclic, "
        "no lock may be held across a blocking network call or taken "
        "twice, and fields guarded by a lock must not be mutated "
        "outside it in public methods"
    )
    whole_program = True

    def __init__(self) -> None:
        self._witness: set[tuple[str, str]] | None = None
        env_path = os.environ.get(WITNESS_ENV)
        if env_path:
            self.load_witness(env_path)

    def load_witness(self, path: str | Path) -> None:
        """Load a sanitizer-exported witnessed lock-order edge set."""
        data = json.loads(Path(path).read_text())
        self._witness = {
            (edge["from"], edge["to"]) for edge in data.get("edges", [])
        }

    # -- lock collection ---------------------------------------------------

    def _collect_locks(
        self, program: Program
    ) -> tuple[dict[str, dict[str, str]], set[str]]:
        """Per class qualname: attr -> canonical lock attr, and the ids
        of the plain (non-reentrant) ``threading.Lock`` instances.

        ``threading.Condition(self._lock)`` makes the condition attr an
        alias of ``_lock`` so condition use never fabricates a second
        node for the same underlying mutex.  A dataclass field is a
        lock by its annotation (``_lock: threading.Lock = field(...)``).
        """
        table: dict[str, dict[str, str]] = {}
        plain: set[str] = set()
        for info in program.classes.values():
            if not info.module.startswith("repro."):
                continue
            attrs: dict[str, str] = {}
            for stmt in info.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    annotated = dotted_name(stmt.annotation) or ""
                    factory = annotated.split(".")[-1]
                    if factory in LOCK_FACTORIES:
                        attrs[stmt.target.id] = stmt.target.id
                        if factory == "Lock":
                            plain.add(f"{info.name}.{stmt.target.id}")
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    created = self._lock_canonical(
                        target.attr, node.value, attrs
                    )
                    if created is not None:
                        attrs[target.attr], factory = created
                        if factory == "Lock":
                            plain.add(f"{info.name}.{target.attr}")
            if attrs:
                table[info.qualname] = attrs
        return table, plain

    @staticmethod
    def _lock_canonical(
        attr: str, value: ast.expr, known: dict[str, str]
    ) -> tuple[str, str] | None:
        """``(canonical attr, factory)`` when ``value`` creates a lock."""
        if not isinstance(value, ast.Call):
            return None
        dotted = dotted_name(value.func)
        factory = dotted.split(".")[-1] if dotted else ""
        if factory not in LOCK_FACTORIES:
            return None
        if factory == "Condition" and value.args:
            wrapped = dotted_name(value.args[0])
            if wrapped and wrapped.startswith("self."):
                inner = wrapped[len("self.") :]
                return known.get(inner, inner), factory
        return attr, factory

    # -- per-function summaries --------------------------------------------

    def _summarize(
        self,
        program: Program,
        fn: FunctionInfo,
        locks: dict[str, dict[str, str]],
        plain: set[str],
    ) -> _Summary:
        summary = _Summary()
        own_locks = locks.get(fn.cls or "", {})

        def lock_id(expr: ast.expr) -> _Held | None:
            if not isinstance(expr, ast.Attribute):
                return None
            receiver = program.expr_type(fn, expr.value)
            if receiver is None or receiver not in locks:
                return None
            canonical = locks[receiver].get(expr.attr)
            if canonical is None:
                return None
            cls_name = program.classes[receiver].name
            return _Held(f"{cls_name}.{canonical}", dotted_name(expr.value))

        def record_calls(node: ast.AST, stack: list[_Held]) -> None:
            if not stack:
                return
            held = frozenset(entry.lock for entry in stack)
            for call in _expr_calls(node):
                summary.held_calls.append((held, call.lineno))

        def record_stores(stmt: ast.stmt, stack: list[_Held]) -> None:
            guarded = any(entry.via == "self" for entry in stack)
            for attr in _self_stores(stmt):
                if attr not in own_locks:
                    summary.mutations.append((attr, stmt.lineno, guarded))

        def walk(stmts: list[ast.stmt], stack: list[_Held], deferred: bool) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    inner = list(stack)
                    for item in stmt.items:
                        record_calls(item, inner)
                        taken = lock_id(item.context_expr)
                        if taken is None:
                            continue
                        line = item.context_expr.lineno
                        if (
                            taken.via is not None
                            and taken in inner
                            and taken.lock in plain
                        ):
                            summary.reacquired.append((taken.lock, line))
                        for held in inner:
                            if held.lock != taken.lock:
                                summary.edges.append(
                                    (held.lock, taken.lock, line)
                                )
                        if not deferred:
                            summary.acquires.add(taken.lock)
                        inner.append(taken)
                    walk(stmt.body, inner, deferred)
                    continue
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    walk(stmt.body, [], True)
                    continue
                record_calls(stmt, stack)
                if own_locks:
                    record_stores(stmt, stack)
                for attr in ("body", "orelse", "finalbody"):
                    nested = getattr(stmt, attr, None)
                    if nested and isinstance(nested, list) and nested and isinstance(nested[0], ast.stmt):
                        walk(nested, stack, deferred)
                for handler in getattr(stmt, "handlers", []):
                    walk(handler.body, stack, deferred)

        walk(list(fn.node.body), [], False)
        return summary

    # -- the whole-program pass --------------------------------------------

    def check_program(self, program: Program) -> list[Diagnostic]:
        """Build the global acquisition graph and check every invariant."""
        locks, plain = self._collect_locks(program)
        if not locks:
            return []
        summaries = {
            fn.qualname: self._summarize(program, fn, locks, plain)
            for fn in program.functions.values()
            if fn.module.startswith("repro.")
        }
        closure = self._transitive_acquisitions(program, summaries)
        edges = self._global_edges(program, summaries, closure)
        diags = self._cycle_diagnostics(edges)
        diags.extend(
            self._blocking_diagnostics(program, summaries, closure)
        )
        diags.extend(self._reacquire_diagnostics(program, summaries))
        diags.extend(self._mutation_diagnostics(program, summaries))
        return diags

    def _transitive_acquisitions(
        self, program: Program, summaries: dict[str, _Summary]
    ) -> dict[str, set[str]]:
        """Locks each function may acquire, closed over call edges."""
        closure = {
            name: set(summary.acquires)
            for name, summary in summaries.items()
        }
        call_edges = [
            (edge.caller, edge.callee)
            for edge in program.edges
            if edge.kind == "call"
            and edge.caller in closure
            and edge.callee in closure
        ]
        changed = True
        while changed:
            changed = False
            for caller, callee in call_edges:
                missing = closure[callee] - closure[caller]
                if missing:
                    closure[caller] |= missing
                    changed = True
        return closure

    def _global_edges(
        self,
        program: Program,
        summaries: dict[str, _Summary],
        closure: dict[str, set[str]],
    ) -> dict[tuple[str, str], tuple[str, int]]:
        edges: dict[tuple[str, str], tuple[str, int]] = {}
        for name, summary in summaries.items():
            fn = program.functions[name]
            for held, taken, line in summary.edges:
                edges.setdefault((held, taken), (fn.path, line))
            for held_set, line in summary.held_calls:
                for callee in program.callees_at(name, line):
                    for taken in closure.get(callee, ()):
                        for held in held_set:
                            if held != taken:
                                edges.setdefault(
                                    (held, taken), (fn.path, line)
                                )
        return edges

    def _cycle_diagnostics(
        self, edges: dict[tuple[str, str], tuple[str, int]]
    ) -> list[Diagnostic]:
        graph: dict[str, list[str]] = {}
        for a, b in edges:
            graph.setdefault(a, []).append(b)
        diags = []
        for cycle in find_cycles(graph):
            first = (cycle[0], cycle[1])
            path, line = edges.get(first, ("<lock graph>", 1))
            message = (
                "whole-program lock-order cycle: "
                + " -> ".join(cycle)
                + " — threads taking these locks in opposite orders "
                "can deadlock"
            )
            if self._witness is not None:
                notes = []
                for a, b in zip(cycle, cycle[1:]):
                    seen = (a, b) in self._witness
                    notes.append(
                        f"{a}->{b} "
                        + ("witnessed at runtime" if seen else "never witnessed")
                    )
                message += " [" + "; ".join(notes) + "]"
            diags.append(Diagnostic(self.code, message, path, line))
        return diags

    def _blocking_diagnostics(
        self,
        program: Program,
        summaries: dict[str, _Summary],
        closure: dict[str, set[str]],
    ) -> list[Diagnostic]:
        sinks = socket_sink_functions(program)
        blocking = program.reverse_reachable(sinks, spawn=False)
        diags = []
        for name, summary in summaries.items():
            fn = program.functions[name]
            reported: set[int] = set()
            for held_set, line in summary.held_calls:
                if line in reported:
                    continue
                offenders = sorted(
                    callee
                    for callee in program.callees_at(name, line)
                    if callee in blocking
                )
                if not offenders:
                    continue
                reported.add(line)
                held = ", ".join(sorted(held_set))
                diags.append(
                    Diagnostic(
                        self.code,
                        f"lock(s) {held} held across blocking network "
                        f"call {_tail(offenders[0])}() — stalls every "
                        "other thread contending for the lock for up to "
                        "the full network timeout",
                        fn.path,
                        line,
                    )
                )
        return diags

    def _reacquire_diagnostics(
        self, program: Program, summaries: dict[str, _Summary]
    ) -> list[Diagnostic]:
        return [
            Diagnostic(
                self.code,
                f"re-acquiring non-reentrant lock {lock} while already "
                "holding it — self-deadlock",
                program.functions[name].path,
                line,
            )
            for name, summary in summaries.items()
            for lock, line in summary.reacquired
        ]

    def _mutation_diagnostics(
        self, program: Program, summaries: dict[str, _Summary]
    ) -> list[Diagnostic]:
        """Stores to a field some method guards, made unguarded in a
        public method of the same class."""
        guarded: set[tuple[str | None, str]] = {
            (program.functions[name].cls, attr)
            for name, summary in summaries.items()
            for attr, _line, locked in summary.mutations
            if locked
        }
        diags = []
        for name, summary in summaries.items():
            fn = program.functions[name]
            if fn.name.startswith("_"):
                continue
            for attr, line, locked in summary.mutations:
                if locked or (fn.cls, attr) not in guarded:
                    continue
                owner = program.classes[fn.cls or ""].name
                diags.append(
                    Diagnostic(
                        self.code,
                        f"field self.{attr} is mutated under {owner}'s "
                        "lock elsewhere but without it in public method "
                        f"{fn.name}() — racy update",
                        fn.path,
                        line,
                    )
                )
        return diags


def _tail(qualname: str) -> str:
    return ".".join(qualname.split(".")[-2:])


def _expr_calls(node: ast.AST) -> list[ast.Call]:
    """Call nodes in a statement's expressions, excluding nested
    statements, lambdas and function definitions (those run elsewhere or
    are walked separately with the correct lock stack)."""
    out: list[ast.Call] = []

    def rec(current: ast.AST) -> None:
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (
                    ast.stmt,
                    ast.ExceptHandler,
                    ast.Lambda,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                ),
            ):
                continue
            if isinstance(child, ast.Call):
                out.append(child)
            rec(child)

    rec(node)
    return out


def _self_stores(stmt: ast.stmt) -> list[str]:
    """Attributes of ``self`` a statement assigns (or assigns into)."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    else:
        return []
    stores = []
    for target in targets:
        node = target.value if isinstance(target, ast.Subscript) else target
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            stores.append(node.attr)
    return stores


def find_cycles(graph: dict[str, list[str]]) -> list[list[str]]:
    """Canonicalised elementary cycles of a directed graph.

    Each cycle is returned once as ``[a, b, ..., a]``, rotated so the
    lexicographically smallest node leads.
    """
    seen_cycles: set[tuple[str, ...]] = set()
    cycles: list[list[str]] = []
    state: dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(node: str, path: list[str]) -> None:
        state[node] = 1
        path.append(node)
        for succ in graph.get(node, ()):
            if state.get(succ) == 1:
                start = path.index(succ)
                cycle = path[start:] + [succ]
                lowest = min(range(len(cycle) - 1), key=cycle.__getitem__)
                canonical = tuple(
                    cycle[lowest:-1] + cycle[:lowest] + [cycle[lowest]]
                )
                if canonical not in seen_cycles:
                    seen_cycles.add(canonical)
                    cycles.append(list(canonical))
            elif state.get(succ) is None:
                visit(succ, path)
        path.pop()
        state[node] = 2

    for node in sorted(graph):
        if state.get(node) is None:
            visit(node, [])
    return cycles
