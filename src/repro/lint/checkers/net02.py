"""NET02 — wire throughput: no full-payload concatenation on the hot path.

The data plane's whole performance story rests on payloads staying a
*list of buffers* from the codec down to the socket: ``send_frame``
takes a sequence of parts and hands them to vectored I/O
(``socket.sendmsg``), and the receive side reads straight into
preallocated buffers.  Rebuilding a contiguous payload anywhere in
between silently reintroduces the O(payload) copy the fast path exists
to avoid — a 16 MiB point-set transfer would be memcpy'd once per such
site, and the copies dominate wall time long before the NIC does.

Three habits reintroduce the copy:

* ``b"".join(parts)`` (any ``bytes``-literal ``.join``) — materialises
  every part into one new buffer;
* ``payload = header + body`` / ``payload += chunk`` on wire-facing
  names — bytes ``+`` always copies both operands;
* ``bytes(payload)`` / ``payload.tobytes()`` on a wire-facing name —
  the transport hands out zero-copy views of the receive buffer, and
  materialising one copies the whole payload right where the view was
  supposed to save it.  Consumers
  that must outlive the view copy only what they keep, under a
  non-wire name.

The checker is scoped to ``repro.net.``.  Control-plane sites inside
the scope (tiny handshake or halo messages) carry an explicit
``# turblint: disable=NET02`` with a justification.
"""

from __future__ import annotations

import ast

from repro.lint.base import Checker, module_in
from repro.lint.diagnostics import Diagnostic, SourceFile

#: Identifiers that name wire-facing byte buffers.  Exact final-segment
#: matches only, so ``header_len + blob_len`` arithmetic stays legal.
_WIRE_NAMES = frozenset(
    {
        "payload",
        "payloads",
        "body",
        "frame",
        "frames",
        "blob",
        "blobs",
        "wire",
        "buf",
        "buffer",
        "message",
        "chunk",
        "chunks",
    }
)


class NetZeroCopy(Checker):
    """Wire payloads stay buffer lists; no hot-path concatenation."""

    code = "NET02"
    description = (
        "no full-payload concatenation in repro.net: no bytes-literal "
        ".join() and no +/+= on wire-facing buffer names — keep parts "
        "as a buffer list down to the vectored send"
    )

    def applies(self, module: str) -> bool:
        return module_in(module, "repro.net.")

    def check(self, source: SourceFile) -> list[Diagnostic]:
        diags: list[Diagnostic] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call) and self._is_bytes_join(node):
                diags.append(
                    self.report(
                        source,
                        node,
                        "bytes .join() materialises one contiguous "
                        "payload — pass the part list to the vectored "
                        "writer instead (send_frame takes a sequence "
                        "of buffers)",
                    )
                )
            elif isinstance(node, ast.Call):
                name = self._full_copy(node)
                if name is not None:
                    diags.append(
                        self.report(
                            source,
                            node,
                            f"materialising {name} with bytes()/"
                            ".tobytes() copies the whole payload out of "
                            "its zero-copy view of the receive buffer — "
                            "keep the view, or copy only what outlives "
                            "it under a non-wire name",
                        )
                    )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Add
            ):
                name = self._wire_name(node.target)
                if name is not None:
                    diags.append(
                        self.report(
                            source,
                            node,
                            f"{name} += copies the whole accumulated "
                            "payload each iteration — append parts to "
                            "a list (or extend a bytearray of "
                            "compressed chunks under a non-wire name)",
                        )
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                name = self._wire_name(node.left) or self._wire_name(
                    node.right
                )
                if name is not None:
                    diags.append(
                        self.report(
                            source,
                            node,
                            f"concatenating {name} with + copies both "
                            "operands — emit them as separate parts of "
                            "the frame's buffer list",
                        )
                    )
        return diags

    @classmethod
    def _full_copy(cls, node: ast.Call) -> str | None:
        """The wire name a call copies wholesale, if any.

        Matches ``bytes(<wire name>)`` and ``<wire name>.tobytes()``;
        slices (``bytes(view[:n])``) stay legal — bounded probes and
        header peeks are not full-payload copies.
        """
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id == "bytes"
            and len(node.args) == 1
            and not node.keywords
        ):
            return cls._wire_name(node.args[0])
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "tobytes"
            and not node.args
            and not node.keywords
        ):
            return cls._wire_name(func.value)
        return None

    @staticmethod
    def _is_bytes_join(node: ast.Call) -> bool:
        """Whether the call is ``<bytes literal>.join(...)``."""
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and isinstance(node.func.value, ast.Constant)
            and isinstance(node.func.value.value, bytes)
        )

    @staticmethod
    def _wire_name(node: ast.AST) -> str | None:
        """The node's wire-facing identifier, if it has one.

        Matches the *final* segment of a name or attribute chain
        (``payload``, ``self.payload``) against the wire vocabulary.
        """
        if isinstance(node, ast.Name) and node.id in _WIRE_NAMES:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in _WIRE_NAMES:
            return node.attr
        return None
