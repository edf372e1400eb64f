"""turbscan whole-program model: symbol table, call graph, reachability.

The per-file checkers see one AST at a time; the rules added with
turbscan (LOCK02, DL01) need to reason about *paths through the
project* — which locks a transitively-called function acquires, whether
a mediator entry point can reach a socket without a deadline.  This
module builds the shared substrate once per lint run:

* a **symbol table**: every module, class, function and method under
  the scanned tree, with imports resolved to project-qualified names
  (``repro.net.pool.ConnectionPool.call``);
* lightweight **type inference**: parameter/attribute annotations,
  ``self.attr = ClassName(...)`` assignments in ``__init__``, container
  element types from ``list[X]``-style annotations and comprehensions,
  and callee return annotations — enough to resolve ``self.attr.method``
  and ``pool[i].call`` receivers;
* a **call graph** whose edges are either synchronous ``call`` edges or
  ``spawn`` edges (``executor.submit(f)``, ``Thread(target=f)``, and
  code inside nested functions/lambdas, which runs on another thread or
  at a later time).  Calls on an annotated abstract receiver resolve
  *virtually* to every override, so a ``Transport`` call reaches both
  the in-process and TCP implementations.

Resolution is deliberately conservative: names that cannot be resolved
to a project symbol produce no edge (rules under-report rather than
guess).  Checkers opt in by setting ``whole_program = True`` and
implementing ``check_program`` (see :class:`repro.lint.base.Checker`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint.diagnostics import SourceFile

#: Annotation heads treated as homogeneous containers (element type in
#: the subscript).  Lower-case; matched against the head's last part.
_CONTAINER_HEADS = {
    "list",
    "set",
    "frozenset",
    "tuple",
    "deque",
    "sequence",
    "iterable",
    "iterator",
    "collection",
}

#: Annotation heads whose *last* subscript argument is the element type
#: (mappings: ``dict[str, ConnectionPool]`` holds pools).
_MAPPING_HEADS = {"dict", "mapping", "mutablemapping", "defaultdict"}


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    cls: str | None = None
    #: Inferred types of parameters and locals (name -> class qualname).
    locals_types: dict[str, str] = field(default_factory=dict)
    #: Inferred container element types (name -> class qualname).
    locals_elems: dict[str, str] = field(default_factory=dict)


@dataclass
class ClassInfo:
    """One class definition with resolved bases and attribute types."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    bases: list[str] = field(default_factory=list)
    #: method name -> function qualname
    methods: dict[str, str] = field(default_factory=dict)
    #: attribute -> class qualname of the stored instance
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attribute -> element class qualname for container attributes
    attr_elems: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """A resolved edge in the project call graph.

    ``kind`` is ``"call"`` for ordinary synchronous calls and
    ``"spawn"`` for deferred execution: ``submit``/``Thread(target=)``
    hand-offs and calls written inside nested functions or lambdas.
    """

    caller: str
    callee: str
    kind: str
    path: str
    line: int


class Program:
    """Project-wide symbol table and call graph over parsed sources."""

    def __init__(self, sources: Iterable[SourceFile]) -> None:
        self.sources: dict[str, SourceFile] = {}
        for source in sources:
            self.sources.setdefault(source.module, source)
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.imports: dict[str, dict[str, str]] = {}
        self.subclasses: dict[str, set[str]] = {}
        self.edges: list[CallEdge] = []
        self._out: dict[str, list[CallEdge]] = {}
        self._in: dict[str, list[CallEdge]] = {}
        self._site_calls: dict[tuple[str, int], set[str]] = {}
        self._collect_symbols()
        self._resolve_bases()
        self._infer_attr_types()
        self._build_edges()

    # -- symbol collection -------------------------------------------------

    def _collect_symbols(self) -> None:
        for module, source in self.sources.items():
            table: dict[str, str] = {}
            for node in ast.walk(source.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        target = alias.name if alias.asname else bound
                        table[bound] = target
                elif isinstance(node, ast.ImportFrom):
                    base = self._import_base(module, node)
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        bound = alias.asname or alias.name
                        table[bound] = f"{base}.{alias.name}" if base else alias.name
            self.imports[module] = table
            for stmt in source.tree.body:
                if isinstance(stmt, ast.ClassDef):
                    self._collect_class(module, source, stmt)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{module}.{stmt.name}"
                    self.functions[qual] = FunctionInfo(
                        qual, module, stmt.name, stmt, str(source.path)
                    )

    def _collect_class(
        self, module: str, source: SourceFile, node: ast.ClassDef
    ) -> None:
        qual = f"{module}.{node.name}"
        info = ClassInfo(qual, module, node.name, node, str(source.path))
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fqual = f"{qual}.{stmt.name}"
                info.methods[stmt.name] = fqual
                self.functions[fqual] = FunctionInfo(
                    fqual, module, stmt.name, stmt, str(source.path), cls=qual
                )
        self.classes[qual] = info

    @staticmethod
    def _import_base(module: str, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        parts = module.split(".")
        # ``from . import x`` in a module strips one component (the
        # module itself); each extra dot strips one more package.
        base = parts[: len(parts) - node.level]
        if node.module:
            base.append(node.module)
        return ".".join(base)

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            for base in info.node.bases:
                name = _dotted(base)
                if name is None:
                    continue
                resolved = self.resolve(info.module, name)
                if resolved in self.classes:
                    info.bases.append(resolved)
                    self.subclasses.setdefault(resolved, set()).add(
                        info.qualname
                    )

    # -- name resolution ---------------------------------------------------

    def resolve(self, module: str, dotted: str) -> str | None:
        """Resolve a dotted name used in ``module`` to a project symbol.

        Tries the module's import bindings, module-local definitions and
        the absolute form; returns a class/function qualname or ``None``.
        """
        parts = dotted.split(".")
        table = self.imports.get(module, {})
        candidates = []
        if parts[0] in table:
            candidates.append(".".join([table[parts[0]], *parts[1:]]))
        candidates.append(f"{module}.{dotted}")
        candidates.append(dotted)
        for cand in candidates:
            if cand in self.classes or cand in self.functions:
                return cand
        return None

    def resolve_method(
        self, cls: str, name: str, *, virtual: bool = True
    ) -> list[str]:
        """Function qualnames implementing ``name`` on ``cls``.

        Walks base classes for the inherited definition; with
        ``virtual`` also includes every subclass override, modelling
        dynamic dispatch on an abstract receiver.
        """
        found: list[str] = []
        own = self._lookup_up(cls, name, set())
        if own is not None:
            found.append(own)
        if virtual:
            for sub in sorted(self._descendants(cls)):
                info = self.classes.get(sub)
                if info is not None and name in info.methods:
                    found.append(info.methods[name])
        seen: set[str] = set()
        return [f for f in found if not (f in seen or seen.add(f))]

    def _lookup_up(
        self, cls: str, name: str, seen: set[str]
    ) -> str | None:
        if cls in seen:
            return None
        seen.add(cls)
        info = self.classes.get(cls)
        if info is None:
            return None
        if name in info.methods:
            return info.methods[name]
        for base in info.bases:
            result = self._lookup_up(base, name, seen)
            if result is not None:
                return result
        return None

    def _descendants(self, cls: str) -> set[str]:
        out: set[str] = set()
        frontier = list(self.subclasses.get(cls, ()))
        while frontier:
            sub = frontier.pop()
            if sub in out:
                continue
            out.add(sub)
            frontier.extend(self.subclasses.get(sub, ()))
        return out

    def attr_type(self, cls: str, attr: str) -> str | None:
        """Inferred instance type of ``cls.attr`` (base classes too)."""
        return self._attr_lookup(cls, attr, "attr_types")

    def attr_elem(self, cls: str, attr: str) -> str | None:
        """Inferred container element type of ``cls.attr``."""
        return self._attr_lookup(cls, attr, "attr_elems")

    def _attr_lookup(
        self, cls: str, attr: str, table: str
    ) -> str | None:
        seen: set[str] = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            value = getattr(info, table).get(attr)
            if value is not None:
                return value
            frontier.extend(info.bases)
        return None

    # -- annotation and expression typing ----------------------------------

    def _annotation_types(
        self, module: str, node: ast.AST | None
    ) -> tuple[str | None, str | None]:
        """``(instance type, element type)`` for an annotation node."""
        if node is None:
            return None, None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None, None
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = _dotted(node)
            if name is None:
                return None, None
            resolved = self.resolve(module, name)
            return (resolved if resolved in self.classes else None), None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            for side in (node.left, node.right):
                direct, elem = self._annotation_types(module, side)
                if direct or elem:
                    return direct, elem
            return None, None
        if isinstance(node, ast.Subscript):
            head = (_dotted(node.value) or "").split(".")[-1].lower()
            args = (
                list(node.slice.elts)
                if isinstance(node.slice, ast.Tuple)
                else [node.slice]
            )
            if head == "optional" and args:
                return self._annotation_types(module, args[0])
            if head in _MAPPING_HEADS and args:
                direct, _ = self._annotation_types(module, args[-1])
                return None, direct
            if head in _CONTAINER_HEADS and args:
                for arg in args:
                    direct, _ = self._annotation_types(module, arg)
                    if direct:
                        return None, direct
            return None, None
        return None, None

    def expr_type(
        self, fn: FunctionInfo, expr: ast.AST
    ) -> str | None:
        """Class qualname an expression evaluates to, or ``None``."""
        if isinstance(expr, ast.Await):
            return self.expr_type(fn, expr.value)
        if isinstance(expr, ast.Name):
            return fn.locals_types.get(expr.id)
        if isinstance(expr, (ast.BoolOp, ast.IfExp)):
            options = (
                expr.values
                if isinstance(expr, ast.BoolOp)
                else [expr.body, expr.orelse]
            )
            for option in options:
                found = self.expr_type(fn, option)
                if found is not None:
                    return found
            return None
        if isinstance(expr, ast.Attribute):
            base = self.expr_type(fn, expr.value)
            if base is not None:
                return self.attr_type(base, expr.attr)
            return None
        if isinstance(expr, ast.Subscript):
            return self._elem_type(fn, expr.value)
        if isinstance(expr, ast.Call):
            for target in self._callee_symbols(fn, expr):
                if target in self.classes:
                    return target
                info = self.functions.get(target)
                if info is not None:
                    direct, _ = self._annotation_types(
                        info.module, info.node.returns
                    )
                    if direct is not None:
                        return direct
            return None
        return None

    def _elem_type(self, fn: FunctionInfo, expr: ast.AST) -> str | None:
        """Element type of a container-valued expression."""
        if isinstance(expr, ast.Name):
            return fn.locals_elems.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self.expr_type(fn, expr.value)
            if base is not None:
                return self.attr_elem(base, expr.attr)
        return None

    # -- attribute type inference ------------------------------------------

    def _infer_attr_types(self) -> None:
        for info in self.classes.values():
            for stmt in info.node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    direct, elem = self._annotation_types(
                        info.module, stmt.annotation
                    )
                    if direct:
                        info.attr_types[stmt.target.id] = direct
                    if elem:
                        info.attr_elems[stmt.target.id] = elem
            for fqual in info.methods.values():
                self._infer_from_method(info, self.functions[fqual])

    def _infer_from_method(
        self, info: ClassInfo, fn: FunctionInfo
    ) -> None:
        self._seed_params(fn)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.AnnAssign):
                target = node.target
                if self._is_self_attr(target):
                    direct, elem = self._annotation_types(
                        fn.module, node.annotation
                    )
                    attr = target.attr  # type: ignore[union-attr]
                    if direct:
                        info.attr_types.setdefault(attr, direct)
                    if elem:
                        info.attr_elems.setdefault(attr, elem)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._infer_assign(info, fn, target, node.value)

    def _infer_assign(
        self,
        info: ClassInfo,
        fn: FunctionInfo,
        target: ast.AST,
        value: ast.AST,
    ) -> None:
        if self._is_self_attr(target):
            attr = target.attr  # type: ignore[union-attr]
            direct = self.expr_type(fn, value)
            if direct is not None:
                info.attr_types.setdefault(attr, direct)
            elem = self._value_elem_type(fn, value)
            if elem is not None:
                info.attr_elems.setdefault(attr, elem)
        elif (
            isinstance(target, ast.Subscript)
            and self._is_self_attr(target.value)
        ):
            attr = target.value.attr  # type: ignore[union-attr]
            direct = self.expr_type(fn, value)
            if direct is not None:
                info.attr_elems.setdefault(attr, direct)

    def _value_elem_type(
        self, fn: FunctionInfo, value: ast.AST
    ) -> str | None:
        """Element type of a literal list/set or comprehension value."""
        if isinstance(value, (ast.List, ast.Set, ast.Tuple)):
            for item in value.elts:
                found = self.expr_type(fn, item)
                if found is not None:
                    return found
        if isinstance(value, (ast.ListComp, ast.SetComp)):
            return self.expr_type(fn, value.elt)
        return None

    @staticmethod
    def _is_self_attr(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    def _seed_params(self, fn: FunctionInfo) -> None:
        if fn.locals_types:
            return
        if fn.cls is not None:
            fn.locals_types["self"] = fn.cls
        args = fn.node.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        ]:
            direct, elem = self._annotation_types(
                fn.module, arg.annotation
            )
            if direct:
                fn.locals_types.setdefault(arg.arg, direct)
            if elem:
                fn.locals_elems.setdefault(arg.arg, elem)

    # -- call graph --------------------------------------------------------

    def _build_edges(self) -> None:
        for fn in self.functions.values():
            self._infer_locals(fn)
        for fn in self.functions.values():
            for call, deferred in _iter_calls(fn.node):
                self._edges_for_call(fn, call, deferred)
        for edge in self.edges:
            self._out.setdefault(edge.caller, []).append(edge)
            self._in.setdefault(edge.callee, []).append(edge)
            if edge.kind == "call":
                self._site_calls.setdefault(
                    (edge.caller, edge.line), set()
                ).add(edge.callee)

    def _infer_locals(self, fn: FunctionInfo) -> None:
        self._seed_params(fn)
        for node in ast.walk(fn.node):
            targets: list[ast.AST] = []
            value: ast.AST | None = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                direct, elem = self._annotation_types(
                    fn.module, node.annotation
                )
                if direct:
                    fn.locals_types.setdefault(node.target.id, direct)
                if elem:
                    fn.locals_elems.setdefault(node.target.id, elem)
                continue
            elif isinstance(node, ast.With):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        found = self.expr_type(fn, item.context_expr)
                        if found:
                            fn.locals_types.setdefault(
                                item.optional_vars.id, found
                            )
                continue
            elif isinstance(node, ast.For) and isinstance(
                node.target, ast.Name
            ):
                found = self._elem_type(fn, node.iter)
                if found:
                    fn.locals_types.setdefault(node.target.id, found)
                continue
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name) or value is None:
                    continue
                direct = self.expr_type(fn, value)
                if direct:
                    fn.locals_types.setdefault(target.id, direct)
                elem = self._value_elem_type(fn, value)
                if elem:
                    fn.locals_elems.setdefault(target.id, elem)

    def _callee_symbols(
        self, fn: FunctionInfo, call: ast.Call
    ) -> list[str]:
        """Project symbols (classes or functions) a call may target."""
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self.resolve(fn.module, func.id)
            return [resolved] if resolved else []
        if isinstance(func, ast.Attribute):
            name = _dotted(func)
            if name is not None:
                resolved = self.resolve(fn.module, name)
                if resolved is not None:
                    return [resolved]
            receiver = self.expr_type(fn, func.value)
            if receiver is not None:
                return self.resolve_method(receiver, func.attr)
        return []

    def _edges_for_call(
        self, fn: FunctionInfo, call: ast.Call, deferred: bool
    ) -> None:
        kind = "spawn" if deferred else "call"
        line = call.lineno
        for target in self._callee_symbols(fn, call):
            if target in self.classes:
                for init in self.resolve_method(
                    target, "__init__", virtual=False
                ):
                    self._add_edge(fn, init, kind, line)
            elif target in self.functions:
                self._add_edge(fn, target, kind, line)
        # Spawn hand-offs: executor.submit(f, ...) and Thread(target=f).
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "submit"
            and call.args
        ):
            for arg in call.args:
                for target in self._funcref_symbols(fn, arg):
                    self._add_edge(fn, target, "spawn", line)
        for keyword in call.keywords:
            if keyword.arg == "target":
                for target in self._funcref_symbols(fn, keyword.value):
                    self._add_edge(fn, target, "spawn", line)

    def _funcref_symbols(
        self, fn: FunctionInfo, node: ast.AST
    ) -> list[str]:
        """Functions a bare reference (not a call) may denote."""
        if isinstance(node, ast.Name):
            resolved = self.resolve(fn.module, node.id)
            if resolved in self.functions:
                return [resolved]
            return []
        if isinstance(node, ast.Attribute):
            receiver = self.expr_type(fn, node.value)
            if receiver is not None:
                return self.resolve_method(receiver, node.attr)
        return []

    def _add_edge(
        self, fn: FunctionInfo, callee: str, kind: str, line: int
    ) -> None:
        self.edges.append(
            CallEdge(fn.qualname, callee, kind, fn.path, line)
        )

    # -- graph queries -----------------------------------------------------

    def callees_at(self, function: str, line: int) -> set[str]:
        """Synchronous callees resolved for a call site."""
        return self._site_calls.get((function, line), set())

    def reverse_reachable(
        self, targets: Iterable[str], *, spawn: bool = True
    ) -> set[str]:
        """Functions from which some target is reachable."""
        seen = set(targets)
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            for edge in self._in.get(current, ()):
                if edge.kind == "spawn" and not spawn:
                    continue
                if edge.caller not in seen:
                    seen.add(edge.caller)
                    frontier.append(edge.caller)
        return seen

    def find_path(
        self,
        start: str,
        targets: set[str],
        *,
        avoid: frozenset[str] = frozenset(),
        spawn: bool = True,
    ) -> list[CallEdge] | None:
        """A breadth-first edge path from ``start`` into ``targets``.

        Nodes in ``avoid`` are never traversed *through* (a target in
        ``avoid`` is still unreachable).  Returns ``None`` when every
        path is blocked.
        """
        if start in targets:
            return []
        parents: dict[str, CallEdge] = {}
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop(0)
            for edge in self._out.get(current, ()):
                if edge.kind == "spawn" and not spawn:
                    continue
                nxt = edge.callee
                if nxt in seen or nxt in avoid:
                    continue
                parents[nxt] = edge
                if nxt in targets:
                    path = [edge]
                    while path[0].caller != start:
                        path.insert(0, parents[path[0].caller])
                    return path
                seen.add(nxt)
                frontier.append(nxt)
        return None


def _iter_calls(
    root: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[tuple[ast.Call, bool]]:
    """Yield ``(call, deferred)`` for every call under ``root``.

    ``deferred`` is true for calls written inside nested function
    definitions or lambdas: they execute later (often on another
    thread), so lock-stack reasoning must not treat them as running at
    the enclosing call site.
    """

    def visit(node: ast.AST, deferred: bool) -> Iterator[tuple[ast.Call, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child, deferred
            nested = deferred or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            yield from visit(child, nested)

    yield from visit(root, False)
