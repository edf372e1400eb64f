"""DL01 — deadline propagation over the whole-program call graph.

Every RPC in the cluster carries a :class:`repro.net.frame.Deadline`;
the invariant is that a blocking socket operation can never run with an
*unbounded* budget, and that the request plane lets callers bound it.
Two checks, both over the turbscan call graph:

1. **Unbudgeted path**: from any service entry point (public methods of
   ``Mediator``/``WebService``/``NodeServer``/``AsyncHttpFrontend``)
   there must be *no* call path to a raw socket operation that avoids
   every *deadline origin* — a function that constructs a ``Deadline``,
   reads a configured timeout attribute or constant, or arms a socket
   with a constant ``settimeout``.  A function that merely *receives* a
   deadline parameter threads a budget but does not originate one, so
   it does not break a path.
2. **Caller budget**: request-plane entry points (public ``Mediator``
   methods and ``WebService.handle``) that can reach a socket must
   accept a caller-controllable deadline — a ``timeout``/``deadline``
   parameter or a budget derived from the request — rather than relying
   solely on transport-level defaults.

Both checks resolve virtual calls (``self.transport`` dispatches to the
TCP transport even when the in-process one is the annotated type) and
follow spawn edges, so work handed to a thread pool is still on the
path.
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, dotted_name
from repro.lint.diagnostics import Diagnostic
from repro.lint.program import FunctionInfo, Program

#: Socket methods that block unconditionally.
_SINK_ATTRS = {"sendall", "sendmsg", "sendto", "recv_into", "recvfrom"}
#: Socket methods that block but have generic names; only counted when
#: the receiver expression looks socket-like.
_SINK_ATTRS_GUARDED = {"recv", "accept", "connect"}
_SOCKETISH = ("sock", "listener")

#: Name fragments that mark a parameter/attribute as budget-carrying.
_BUDGET_FRAGMENTS = ("timeout", "deadline")

#: Classes whose public methods are service entry points, by bare name
#: (matched inside ``repro.cluster.``/``repro.net.`` modules).
_ENTRY_CLASSES = {
    "Mediator",
    "WebService",
    "NodeServer",
    "AsyncHttpFrontend",
}

#: Awaited stream/socket coroutines that block on a peer.  Inside
#: ``repro.net.`` every such await must sit under an asyncio deadline —
#: an ``asyncio.wait_for(...)`` wrapper or an ``async with
#: asyncio.timeout(...)`` / ``timeout_at(...)`` block — because an
#: event loop has no per-socket ``settimeout``: an unbounded await on a
#: half-dead peer parks the coroutine (and its keep-alive slot)
#: forever.
_AIO_SINK_ATTRS = {
    "read",
    "readline",
    "readexactly",
    "readuntil",
    "drain",
    "wait_closed",
    "open_connection",
    "accept",
    "sock_recv",
    "sock_sendall",
}

#: Call names that arm an asyncio deadline over their operand/body.
_AIO_DEADLINE_CALLS = {"wait_for", "timeout", "timeout_at"}
#: Entry classes subject to the caller-budget check (request plane).
_BUDGET_CLASSES = {"Mediator", "WebService"}


def socket_sink_functions(program: Program) -> set[str]:
    """Functions performing raw (blocking) socket operations."""
    sinks: set[str] = set()
    for fn in program.functions.values():
        if not fn.module.startswith("repro."):
            continue
        if any(True for _ in _raw_socket_calls(fn)):
            sinks.add(fn.qualname)
    return sinks


def _raw_socket_calls(fn: FunctionInfo) -> list[ast.Call]:
    """Raw socket-op call nodes inside one function body."""
    calls = []
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        dotted = dotted_name(node.func)
        if dotted and dotted.endswith("create_connection"):
            calls.append(node)
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        if attr in _SINK_ATTRS:
            calls.append(node)
        elif attr in _SINK_ATTRS_GUARDED:
            receiver = (dotted_name(node.func.value) or "").lower()
            if any(hint in receiver for hint in _SOCKETISH):
                calls.append(node)
    return calls


def deadline_params(fn: FunctionInfo) -> set[str]:
    """Parameter names of ``fn`` that carry a deadline/timeout budget."""
    names: set[str] = set()
    args = fn.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        lowered = arg.arg.lower()
        if any(frag in lowered for frag in _BUDGET_FRAGMENTS):
            names.add(arg.arg)
        elif arg.annotation is not None and "Deadline" in ast.dump(
            arg.annotation
        ):
            names.add(arg.arg)
    return names


def is_deadline_origin(fn: FunctionInfo) -> bool:
    """Whether ``fn`` *originates* a budget (rather than threading one).

    True when the body constructs a ``Deadline``, reads a timeout-named
    attribute/constant or request key, or arms a socket with a constant
    ``settimeout``.  Reads of the function's own deadline parameters do
    not count: those thread the caller's budget.
    """
    params = deadline_params(fn)
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func) or ""
            if "Deadline" in dotted:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "settimeout"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value is not None
            ):
                return True
        elif isinstance(node, ast.Attribute):
            if _budget_named(node.attr):
                return True
        elif isinstance(node, ast.Name):
            if node.id not in params and _budget_named(node.id):
                return True
        elif isinstance(node, ast.Constant) and isinstance(
            node.value, str
        ):
            if _budget_named(node.value):
                return True
    return False


def _budget_named(name: str) -> bool:
    lowered = name.lower()
    return any(frag in lowered for frag in _BUDGET_FRAGMENTS)


class DeadlinePropagation(Checker):
    """Socket ops must be reachable only through deadline origins."""

    code = "DL01"
    description = (
        "every call path from a service entry point to a blocking "
        "socket op must thread or originate a Deadline"
    )
    whole_program = True

    def check_program(self, program: Program) -> list[Diagnostic]:
        """Run both deadline checks over the project call graph."""
        diags = self._check_async_deadlines(program)
        sinks = socket_sink_functions(program)
        if not sinks:
            return diags
        origins = {
            fn.qualname
            for fn in program.functions.values()
            if is_deadline_origin(fn)
        }
        entries = self._entry_points(program)
        reaches_sink = program.reverse_reachable(sinks)
        for entry, budget_plane in entries:
            fn = program.functions[entry]
            if fn.qualname in sinks:
                continue
            if fn.qualname not in reaches_sink:
                continue
            diags.extend(
                self._check_unbudgeted_path(program, fn, sinks, origins)
            )
            if budget_plane:
                diags.extend(self._check_caller_budget(fn, origins))
        return diags

    def _check_async_deadlines(
        self, program: Program
    ) -> list[Diagnostic]:
        """Awaited socket ops in ``repro.net.`` must carry deadlines.

        The threaded checks above reason over the call graph because a
        thread's budget travels through function calls; an ``await``'s
        budget is *lexical* (the enclosing ``wait_for``/``timeout``
        block), so this check is purely syntactic per coroutine.
        """
        diags: list[Diagnostic] = []
        for fn in program.functions.values():
            if not fn.module.startswith("repro.net."):
                continue
            if not isinstance(fn.node, ast.AsyncFunctionDef):
                continue
            source = program.sources.get(fn.module)
            if source is None:
                continue
            parents = source.parents()
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Await):
                    continue
                call = node.value
                if not isinstance(call, ast.Call) or not isinstance(
                    call.func, ast.Attribute
                ):
                    continue
                if call.func.attr not in _AIO_SINK_ATTRS:
                    continue
                if _await_has_deadline(node, parents):
                    continue
                diags.append(
                    Diagnostic(
                        self.code,
                        f"awaited socket operation .{call.func.attr}() "
                        "carries no deadline origin — wrap it in "
                        "asyncio.wait_for(...) or run it inside an "
                        "async with asyncio.timeout(...) block",
                        fn.path,
                        call.lineno,
                        call.col_offset,
                    )
                )
        return diags

    def _entry_points(
        self, program: Program
    ) -> list[tuple[str, bool]]:
        """``(function qualname, is request plane)`` service entries."""
        entries: list[tuple[str, bool]] = []
        for info in program.classes.values():
            if not info.module.startswith(("repro.cluster.", "repro.net.")):
                continue
            if info.name not in _ENTRY_CLASSES:
                continue
            for name, fqual in sorted(info.methods.items()):
                if not name.startswith("_"):
                    entries.append(
                        (fqual, info.name in _BUDGET_CLASSES)
                    )
        return entries

    def _check_unbudgeted_path(
        self,
        program: Program,
        fn: FunctionInfo,
        sinks: set[str],
        origins: set[str],
    ) -> list[Diagnostic]:
        if fn.qualname in origins:
            return []
        path = program.find_path(
            fn.qualname, sinks, avoid=frozenset(origins)
        )
        if path is None:
            return []
        rendered = " -> ".join(
            [_short(fn.qualname)] + [_short(edge.callee) for edge in path]
        )
        return [
            Diagnostic(
                self.code,
                f"call path {rendered} reaches a blocking socket op "
                "without passing any deadline origin — the operation "
                "can block forever",
                fn.path,
                fn.node.lineno,
            )
        ]

    def _check_caller_budget(
        self, fn: FunctionInfo, origins: set[str]
    ) -> list[Diagnostic]:
        if deadline_params(fn) or fn.qualname in origins:
            return []
        return [
            Diagnostic(
                self.code,
                f"entry point {_short(fn.qualname)}() can reach blocking "
                "socket ops but accepts no timeout/deadline — callers "
                "cannot bound the request; thread a deadline parameter "
                "through to the transport",
                fn.path,
                fn.node.lineno,
            )
        ]


def _short(qualname: str) -> str:
    """``Class.method`` (or ``module.func``) tail of a qualname."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qualname


def _await_has_deadline(
    node: ast.Await, parents: dict[ast.AST, ast.AST]
) -> bool:
    """Whether an awaited call sits under an asyncio deadline.

    Climbs the ancestor chain looking for an ``async with
    asyncio.timeout(...)`` / ``timeout_at(...)`` block or an enclosing
    ``wait_for(...)`` call; stops at the nearest function boundary —
    a deadline armed in the *calling* coroutine does not bound this
    await.
    """
    current = parents.get(node)
    while current is not None:
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return False
        if isinstance(current, ast.AsyncWith):
            for item in current.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    dotted = dotted_name(expr.func) or ""
                    if dotted.rsplit(".", 1)[-1] in _AIO_DEADLINE_CALLS:
                        return True
        if isinstance(current, ast.Call):
            dotted = dotted_name(current.func) or ""
            if dotted.rsplit(".", 1)[-1] in _AIO_DEADLINE_CALLS:
                return True
        current = parents.get(current)
    return False
