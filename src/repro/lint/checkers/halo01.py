"""HALO01 — stencil/halo consistency.

Threshold queries over derived fields evaluate finite-difference
stencils near block boundaries, so every data block is fetched with a
halo wide enough for the stencil (paper §3: "the evaluation of the
derived fields near the border of the data cube requires data from
adjacent data cubes").  A halo narrower than the stencil half-width
reads garbage; a hard-coded width silently breaks when the FD order
changes.  Three structural rules keep the contract visible in the AST:

* H1 — a ``*COEFFICIENTS`` table maps FD order ``n`` to exactly
  ``n // 2`` one-sided coefficients (order must be even and positive);
* H2 — the ``margin`` argument of the interior operators must derive
  from ``kernel_half_width(...)`` (directly, via a local binding, via a
  pass-through parameter, or arithmetic over those) — never a numeric
  literal;
* H3 — a :class:`~repro.fields.derived.DerivedField` registered with
  ``differential=True`` must have a norm function that applies a
  stencil operator, and vice versa (wrong flags under- or over-fetch
  the halo).
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, dotted_name, module_in
from repro.lint.diagnostics import Diagnostic, SourceFile

#: Interior stencil operators and the positional index of ``margin``.
INTERIOR_OPS = {
    "Derivatives": 3,
    "curl_interior": 3,
    "gradient_tensor_interior": 3,
    "derivative_interior": 4,
}
#: Operators whose margin may be omitted (they default it safely).
MARGIN_OPTIONAL = {"Derivatives", "derivative_interior"}
#: What applies a stencil (H3): the above, or the ``Derivatives`` a norm is handed.
STENCIL_OPS = {*INTERIOR_OPS, "derivatives_of"}
#: The half-width, and ``DerivedField.halo(order)``: a whole number of them.
HALF_WIDTH_FNS = {"kernel_half_width", "halo"}


def _calls_half_width(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            dotted = dotted_name(sub.func)
            if dotted is not None and dotted.split(".")[-1] in HALF_WIDTH_FNS:
                return True
    return False


class HaloConsistency(Checker):
    """Halo margins and coefficient tables agree with the FD order."""

    code = "HALO01"
    description = (
        "stencil coefficient tables, halo margins and DerivedField "
        "differential flags must agree with kernel_half_width"
    )

    def applies(self, module: str) -> bool:
        return module_in(module, "repro.")

    def check(self, source: SourceFile) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        diags.extend(self._check_coefficient_tables(source))
        diags.extend(self._check_margins(source))
        diags.extend(self._check_derived_fields(source))
        return diags

    # -- H1: coefficient tables -----------------------------------------------

    def _check_coefficient_tables(
        self, source: SourceFile
    ) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        for stmt in source.tree.body:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id.endswith("COEFFICIENTS")
                and isinstance(stmt.value, ast.Dict)
            ):
                continue
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if not (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, int)
                ):
                    continue
                order = key.value
                if order <= 0 or order % 2:
                    diags.append(
                        self.report(
                            source,
                            key,
                            f"FD order {order} must be a positive even "
                            "integer (central differences)",
                        )
                    )
                    continue
                if isinstance(value, (ast.Tuple, ast.List)) and len(
                    value.elts
                ) != order // 2:
                    diags.append(
                        self.report(
                            source,
                            value,
                            f"order-{order} stencil must list exactly "
                            f"{order // 2} one-sided coefficients "
                            f"(found {len(value.elts)}) — the halo "
                            "half-width is order // 2",
                        )
                    )
        return diags

    # -- H2: margins derive from kernel_half_width ----------------------------

    def _check_margins(self, source: SourceFile) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            op = dotted.split(".")[-1]
            if op not in INTERIOR_OPS:
                continue
            margin = self._margin_argument(node, INTERIOR_OPS[op])
            if margin is None:
                if op not in MARGIN_OPTIONAL:
                    diags.append(
                        self.report(
                            source,
                            node,
                            f"{op}() called without an explicit margin — "
                            "pass kernel_half_width(order) so the halo "
                            "tracks the stencil",
                        )
                    )
                continue
            if not self._margin_allowed(source, node, margin):
                what = (
                    f"hard-coded halo margin {margin.value!r}"
                    if isinstance(margin, ast.Constant)
                    else "halo margin not derived from kernel_half_width"
                )
                diags.append(
                    self.report(
                        source,
                        margin,
                        f"{what} in {op}() — derive it from "
                        "kernel_half_width(order) so the halo tracks the "
                        "stencil order",
                    )
                )
        return diags

    def _margin_argument(
        self, call: ast.Call, positional: int
    ) -> ast.expr | None:
        for keyword in call.keywords:
            if keyword.arg == "margin":
                return keyword.value
        if len(call.args) > positional:
            return call.args[positional]
        return None

    def _margin_allowed(
        self, source: SourceFile, call: ast.Call, margin: ast.expr
    ) -> bool:
        if margin is None or isinstance(margin, ast.Constant):
            return False
        if _calls_half_width(margin):
            return True
        allowed = self._allowed_names(source, call)
        for sub in ast.walk(margin):
            if isinstance(sub, ast.Name) and sub.id in allowed:
                return True
        return False

    def _allowed_names(self, source: SourceFile, call: ast.Call) -> set[str]:
        """Names bound from kernel_half_width, or enclosing parameters."""
        allowed: set[str] = set()
        for scope in source.enclosing(
            call, ast.FunctionDef, ast.AsyncFunctionDef
        ):
            args = scope.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                allowed.add(arg.arg)
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and _calls_half_width(
                    node.value
                ):
                    allowed.update(
                        t.id
                        for t in node.targets
                        if isinstance(t, ast.Name)
                    )
                elif isinstance(node, ast.AnnAssign):
                    if node.value is not None and _calls_half_width(
                        node.value
                    ):
                        if isinstance(node.target, ast.Name):
                            allowed.add(node.target.id)
        return allowed

    # -- H3: DerivedField differential flag matches the norm ------------------

    def _check_derived_fields(self, source: SourceFile) -> list[Diagnostic]:
        module_defs: dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in source.tree.body
            if isinstance(stmt, ast.FunctionDef)
        }
        diags: list[Diagnostic] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or dotted.split(".")[-1] != "DerivedField":
                continue
            differential = self._argument(node, "differential", 3)
            norm = self._argument(node, "norm", 5)
            if not (
                isinstance(differential, ast.Constant)
                and isinstance(differential.value, bool)
                and isinstance(norm, ast.Name)
                and norm.id in module_defs
            ):
                continue  # dynamically built (expression compiler) — skip
            uses_stencil = self._uses_stencil(module_defs[norm.id])
            if differential.value and not uses_stencil:
                diags.append(
                    self.report(
                        source,
                        node,
                        f"DerivedField registered with differential=True "
                        f"but norm {norm.id!r} applies no stencil operator "
                        "— the engine would fetch a halo it never uses",
                    )
                )
            elif not differential.value and uses_stencil:
                diags.append(
                    self.report(
                        source,
                        node,
                        f"DerivedField registered with differential=False "
                        f"but norm {norm.id!r} applies a stencil operator "
                        "— blocks would be fetched without the halo the "
                        "stencil needs",
                    )
                )
        return diags

    def _argument(
        self, call: ast.Call, name: str, positional: int
    ) -> ast.expr | None:
        for keyword in call.keywords:
            if keyword.arg == name:
                return keyword.value
        if len(call.args) > positional:
            return call.args[positional]
        return None

    def _uses_stencil(self, fn: ast.FunctionDef) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if (
                    dotted is not None
                    and dotted.split(".")[-1] in STENCIL_OPS
                ):
                    return True
        return False
