"""A declarative expression language for derived fields.

The paper's future work (§7) calls for "declarative and graphical user
interfaces that will allow users to combine existing building blocks and
perform computations that have not been explicitly implemented" —
because the production stored procedure needed hand-written code per
derived field.  This module supplies that capability: an expression such
as ::

    norm(curl(velocity))            # the vorticity norm
    abs(q(velocity))                # |Q|-criterion
    norm(curl(magnetic))            # electric current
    abs(div(velocity))              # compressibility check
    norm(curl(velocity)) * 0.5      # scaled quantities

compiles into a :class:`~repro.fields.derived.DerivedField` that the
threshold engine evaluates like any built-in — with the kernel halo
*inferred* from the nesting depth of differential operators and the
per-point compute cost estimated from the operators used.

Grammar::

    expr    := sum
    sum     := product (('+' | '-') product)*
    product := atom (('*' ) atom)*
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Functions: ``curl`` (vector->vector), ``div`` (vector->scalar), ``grad``
(scalar->vector), ``q``/``r`` (vector->scalar invariants), ``norm``
(vector->scalar), ``abs`` (scalar->scalar).  An expression must reference
exactly one raw stored field and must produce a scalar (the thresholdable
norm); arithmetic requires scalar operands (or literals).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.fields.derived import Block, DerivedField, source_array, trim_halo
from repro.fields.finite_difference import Derivatives, kernel_half_width
from repro.fields.operators import (
    curl_interior,
    q_criterion_from_gradient,
    r_invariant_from_gradient,
    vector_norm,
)


class ExpressionError(ValueError):
    """Malformed or ill-typed field expression."""


# -- AST -------------------------------------------------------------------

VECTOR, SCALAR = "vector", "scalar"


@dataclass(frozen=True)
class _Node:
    """One AST node.

    ``kind`` is ``field``, ``number``, ``call`` or an operator symbol;
    ``children`` are operand nodes; ``value`` the field name / literal /
    function name.
    """

    kind: str
    value: object = None
    children: tuple["_Node", ...] = ()


_FUNCTIONS: dict[str, dict] = {
    # name: input type, output type, derivative depth, unit cost
    "curl": {"in": VECTOR, "out": VECTOR, "depth": 1, "units": 1.0},
    "div": {"in": VECTOR, "out": SCALAR, "depth": 1, "units": 0.6},
    "grad": {"in": SCALAR, "out": VECTOR, "depth": 1, "units": 0.6},
    "q": {"in": VECTOR, "out": SCALAR, "depth": 1, "units": 1.8},
    "r": {"in": VECTOR, "out": SCALAR, "depth": 1, "units": 2.4},
    "norm": {"in": VECTOR, "out": SCALAR, "depth": 0, "units": 0.05},
    "abs": {"in": SCALAR, "out": SCALAR, "depth": 0, "units": 0.02},
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d+|\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*,]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens, pos = [], 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExpressionError(f"cannot parse expression near {text[pos:]!r}")
        pos = match.end()
        for kind in ("number", "ident", "op"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]) -> None:
        self._tokens = tokens
        self._pos = 0

    def parse(self) -> _Node:
        node = self._sum()
        if self._pos != len(self._tokens):
            raise ExpressionError(
                f"unexpected token {self._tokens[self._pos][1]!r}"
            )
        return node

    def _peek(self) -> tuple[str, str] | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _accept(self, kind: str, value: str | None = None):
        token = self._peek()
        if token and token[0] == kind and (value is None or token[1] == value):
            self._pos += 1
            return token
        return None

    def _expect(self, kind: str, value: str | None = None):
        token = self._accept(kind, value)
        if token is None:
            want = value or kind
            got = self._peek()
            raise ExpressionError(
                f"expected {want!r}, found {got[1] if got else 'end'!r}"
            )
        return token

    def _sum(self) -> _Node:
        node = self._product()
        while True:
            if self._accept("op", "+"):
                node = _Node("+", children=(node, self._product()))
            elif self._accept("op", "-"):
                node = _Node("-", children=(node, self._product()))
            else:
                return node

    def _product(self) -> _Node:
        node = self._atom()
        while self._accept("op", "*"):
            node = _Node("*", children=(node, self._atom()))
        return node

    def _atom(self) -> _Node:
        if self._accept("op", "("):
            node = self._sum()
            self._expect("op", ")")
            return node
        token = self._accept("number")
        if token:
            return _Node("number", float(token[1]))
        token = self._expect("ident")
        name = token[1]
        if self._accept("op", "("):
            argument = self._sum()
            self._expect("op", ")")
            if name not in _FUNCTIONS:
                raise ExpressionError(
                    f"unknown function {name!r}; known: {sorted(_FUNCTIONS)}"
                )
            return _Node("call", name, (argument,))
        return _Node("field", name)


# -- analysis ------------------------------------------------------------------


@dataclass(frozen=True)
class FieldExpression:
    """A compiled derived-field expression.

    Attributes:
        text: the source expression.
        source: the single raw field referenced.
        source_components: its component count.
        depth: nesting depth of differential operators (halo = depth *
            kernel half-width of the FD order).
        units_per_point: estimated compute cost per grid point.
    """

    text: str
    root: _Node
    source: str
    source_components: int
    depth: int
    units_per_point: float

    def as_derived_field(self, name: str) -> DerivedField:
        """Wrap as a :class:`DerivedField` registrable in a registry."""
        root, depth = self.root, self.depth

        def norm(block: Block, spacing: float, order: int) -> np.ndarray:
            margin = depth * kernel_half_width(order)
            array = source_array(block, margin)
            value, remaining = _evaluate(root, array, spacing, order, margin)
            out = trim_halo(value, remaining)[..., 0]  # scalars carry a trailing axis
            return np.abs(out.astype(np.float64))

        return DerivedField(
            name=name,
            source=self.source,
            source_components=self.source_components,
            differential=depth > 0,
            units_per_point=self.units_per_point,
            norm=norm,
            halo_depth=max(depth, 1),
        )


def compile_expression(
    text: str, raw_fields: dict[str, int] | None = None
) -> FieldExpression:
    """Parse, type-check and cost a field expression.

    Args:
        text: the expression source.
        raw_fields: name -> component count of the raw stored fields
            available (defaults to velocity/magnetic = 3, pressure = 1).

    Raises:
        ExpressionError: syntax errors, unknown names, type errors,
            multiple raw fields, or a non-scalar result.
    """
    if raw_fields is None:
        raw_fields = {"velocity": 3, "magnetic": 3, "pressure": 1}
    root = _Parser(_tokenize(text)).parse()

    sources: set[str] = set()
    units = [0.0]

    def check(node: _Node) -> str:
        if node.kind == "number":
            return "number"
        if node.kind == "field":
            if node.value not in raw_fields:
                raise ExpressionError(
                    f"unknown raw field {node.value!r}; "
                    f"known: {sorted(raw_fields)}"
                )
            sources.add(node.value)
            return VECTOR if raw_fields[node.value] == 3 else SCALAR
        if node.kind == "call":
            spec = _FUNCTIONS[node.value]
            argument = check(node.children[0])
            if argument != spec["in"]:
                raise ExpressionError(
                    f"{node.value}() expects a {spec['in']}, got {argument}"
                )
            units[0] += spec["units"]
            return spec["out"]
        # arithmetic
        left = check(node.children[0])
        right = check(node.children[1])
        for operand in (left, right):
            if operand == VECTOR:
                raise ExpressionError(
                    f"operator {node.kind!r} requires scalar operands"
                )
        units[0] += 0.02
        if left == right == "number":
            return "number"
        return SCALAR

    result = check(root)
    if result == "number":
        raise ExpressionError("expression is a constant, not a field")
    if result != SCALAR:
        raise ExpressionError(
            "a thresholdable expression must produce a scalar "
            "(wrap vectors in norm(...))"
        )
    if len(sources) != 1:
        raise ExpressionError(
            f"expression must reference exactly one raw field, got "
            f"{sorted(sources) or 'none'}"
        )

    def depth_of(node: _Node) -> int:
        child_depth = max((depth_of(c) for c in node.children), default=0)
        if node.kind == "call":
            return child_depth + _FUNCTIONS[node.value]["depth"]
        return child_depth

    source = sources.pop()
    return FieldExpression(
        text=text,
        root=root,
        source=source,
        source_components=raw_fields[source],
        depth=depth_of(root),
        units_per_point=max(units[0], 0.02),
    )


# -- evaluation -------------------------------------------------------------------


def _evaluate(
    node: _Node, block: np.ndarray, spacing: float, order: int, margin: int
):
    """Evaluate ``node`` on a block carrying ``margin`` halo cells.

    Returns ``(array, remaining_margin)``; differential operators shrink
    the array and consume ``kernel_half_width(order)`` margin each.
    """
    half = kernel_half_width(order)
    if node.kind == "number":
        return float(node.value), margin
    if node.kind == "field":
        return block, margin
    if node.kind == "call":
        value, m = _evaluate(node.children[0], block, spacing, order, margin)
        name = node.value
        if name == "curl":
            return curl_interior(value, spacing, order, half), m - half
        if name == "norm":
            return vector_norm(np.moveaxis(value, 3, 0))[..., None], m
        if name == "abs":
            return np.abs(value), m
        stencil = Derivatives(value, spacing, order, half)
        if name == "div":
            out = stencil.take(0, 0) + stencil.take(1, 1) + stencil.take(2, 2)
        elif name == "grad":  # the parent node reads a (..., 3) vector
            return np.stack([stencil.take(0, a) for a in range(3)], axis=-1), m - half
        else:
            out = (q_criterion_from_gradient if name == "q" else r_invariant_from_gradient)(stencil)
        return out[..., None], m - half

    left, lm = _evaluate(node.children[0], block, spacing, order, margin)
    right, rm = _evaluate(node.children[1], block, spacing, order, margin)
    if isinstance(left, float) or isinstance(right, float):
        m = rm if isinstance(left, float) else lm
        a, b = left, right
    else:  # trim both operands to the smaller margin
        m = min(lm, rm)
        a, b = trim_halo(left, lm - m), trim_halo(right, rm - m)
    if node.kind == "+":
        return a + b, m
    if node.kind == "-":
        return a - b, m
    return a * b, m
