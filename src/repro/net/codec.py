"""Message codec: a JSON control header plus raw column blobs.

A REQUEST/RESPONSE frame payload is one *message*::

    u32   header length
    ...   UTF-8 JSON header (method, query parameters, ledger, flags)
    u16   blob count
    u32   blob i length      } repeated
    ...   blob i bytes       }

The blobs are the columnar point-set encodings of
:mod:`repro.core.pointset` (``pack_u64`` zindexes, ``pack_f64`` values)
carried *verbatim*: a node packs its result columns once and the
mediator unpacks them straight into the gather's ``merge_sorted_runs``
— no per-point re-encoding anywhere on the wire path.

The domain helpers below translate the result dataclasses the
in-process engine already uses to and from wire messages, so
``TcpTransport`` and the node server share one vocabulary and the
in-process and TCP clusters return point-for-point identical results.
A query crosses as its own record (:func:`repro.core.query.to_record`,
read back by :func:`repro.core.query.parse`), not through this module.

Encoding is zero-copy on the hot path: :func:`encode_message_parts`
returns the message as a *list* of buffers (length prefixes, header
bytes, blobs) for the frame layer's vectored send, and
:func:`decode_message` hands blobs back as ``memoryview`` slices of the
frame's receive buffer — ``numpy.frombuffer`` reads them directly, so a
16 MiB column crosses the codec without being copied.
"""

from __future__ import annotations

import json
import struct
from typing import Mapping, Sequence

import numpy as np

from repro.core.pdf import NodePdfResult
from repro.core.threshold import NodeThresholdResult, RenderedPart
from repro.core.topk import NodeTopKResult
from repro.core.pointset import pack_f64, pack_i64, pack_u64, unpack_f64, unpack_i64, unpack_u64
from repro.costmodel import Category, CostLedger
from repro.grid import Box
from repro.grid.atoms import ATOM_VOLUME
from repro.morton import MortonRange
from repro.net.errors import ProtocolError
from repro.net.frame import Buffer
from repro.obs.tracing import SpanContext
from repro.simulation.ingest import AtomRun

_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")

#: JSON-header key carrying trace context on requests and the captured
#: remote spans (plus server clock stamps) on responses.
TRACE_HEADER_KEY = "trace"

#: Ceiling on blobs per message (a batch of 64 queries ships 128).
MAX_BLOBS = 4096

# -- message layer ----------------------------------------------------------


def encode_message_parts(
    header: dict, blobs: Sequence[Buffer] = ()
) -> list[Buffer]:
    """Pack a message as a buffer list for the vectored frame sender.

    This is the hot-path encoder: blobs (and the packed prefixes) are
    returned as-is for ``send_frame`` to hand to ``sendmsg`` — nothing
    is joined or copied.
    """
    if len(blobs) > MAX_BLOBS:
        raise ProtocolError(f"{len(blobs)} blobs exceed the {MAX_BLOBS} cap")
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts: list[Buffer] = [_U32.pack(len(head)), head, _U16.pack(len(blobs))]
    for blob in blobs:
        parts.append(_U32.pack(len(blob)))
        if len(blob):
            parts.append(blob)
    return parts


def encode_message(header: dict, blobs: Sequence[Buffer] = ()) -> bytes:
    """Pack a JSON header and column blobs into one contiguous payload.

    Control-plane convenience (handshakes, tests, the HTTP front door);
    the data plane uses :func:`encode_message_parts` and never joins.
    """
    return b"".join(  # turblint: disable=NET02 - control plane only
        bytes(part) for part in encode_message_parts(header, blobs)
    )


def decode_message(payload: Buffer) -> tuple[dict, list[Buffer]]:
    """Unpack a frame payload into ``(header, blobs)``.

    Blobs are ``memoryview`` slices of ``payload`` — zero-copy; they
    stay valid as long as the payload buffer is alive, which the frame
    layer guarantees by allocating a fresh buffer per frame.

    Raises:
        ProtocolError: on truncated or trailing bytes, or a header that
            is not a JSON object.
    """
    view = memoryview(payload)

    def take(count: int) -> memoryview:
        nonlocal view
        if len(view) < count:
            raise ProtocolError(
                f"message truncated: wanted {count} bytes, {len(view)} left"
            )
        piece, view = view[:count], view[count:]
        return piece

    (head_len,) = _U32.unpack(take(4))
    try:
        header = json.loads(bytes(take(head_len)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable message header: {error}") from None
    if not isinstance(header, dict):
        raise ProtocolError("message header must be a JSON object")
    (nblobs,) = _U16.unpack(take(2))
    if nblobs > MAX_BLOBS:
        raise ProtocolError(f"{nblobs} blobs exceed the {MAX_BLOBS} cap")
    blobs: list[Buffer] = []
    for _ in range(nblobs):
        (blob_len,) = _U32.unpack(take(4))
        blobs.append(take(blob_len))
    if len(view):
        raise ProtocolError(f"{len(view)} trailing bytes after message")
    return header, blobs


# -- ledgers ----------------------------------------------------------------


def ledger_to_wire(ledger: CostLedger) -> dict:
    """The ledger's category seconds and meters as a JSON-able dict."""
    return {"seconds": ledger.breakdown(), "meters": ledger.meters()}


def ledger_from_wire(record: dict) -> CostLedger:
    """Rebuild a :class:`CostLedger` from :func:`ledger_to_wire` output."""
    ledger = CostLedger(
        {Category(name): float(value)
         for name, value in record.get("seconds", {}).items()}
    )
    for name, amount in record.get("meters", {}).items():
        ledger.count(str(name), float(amount))
    return ledger


# -- geometry ----------------------------------------------------------------
# A node reads these back with repro.core.query.read_field ("list[Box]",
# "list[MortonRange]"), the checks it reads query records with.


def boxes_to_wire(boxes: Sequence[Box]) -> list[list[int]]:
    """A node's query pieces as corner-coordinate lists."""
    return [list(box.as_corners()) for box in boxes]


def ranges_to_wire(ranges: Sequence[MortonRange]) -> list[list[int]]:
    """Half-open Morton ranges as ``[start, stop]`` pairs."""
    return [[rng.start, rng.stop] for rng in ranges]


# -- node-part results ------------------------------------------------------


def _flags_to_wire(part: "NodeThresholdResult | RenderedPart") -> dict:
    return {
        "cache_hit": part.cache_hit,
        "boxes_evaluated": part.boxes_evaluated,
        "cache_stored": part.cache_stored,
    }


def _flags_from_wire(record: dict) -> tuple[bool, int, bool]:
    return (
        bool(record["cache_hit"]),
        int(record["boxes_evaluated"]),
        bool(record["cache_stored"]),
    )


def threshold_result_to_wire(
    result: "NodeThresholdResult | RenderedPart",
) -> tuple[dict, list[Buffer]]:
    """One node's threshold contribution as ``(header, blobs)``: its
    columns, or the point count and the JSON fragment it rendered."""
    header = {"ledger": ledger_to_wire(result.ledger), **_flags_to_wire(result)}
    if isinstance(result, RenderedPart):
        return {**header, "count": result.count}, [result.fragment]
    return header, [pack_u64(result.zindexes), pack_f64(result.values)]


def threshold_result_from_wire(
    header: dict, blobs: Sequence[Buffer]
) -> "NodeThresholdResult | RenderedPart":
    """Rebuild one node's threshold contribution from the wire."""
    ledger, flags = ledger_from_wire(header["ledger"]), _flags_from_wire(header)
    if "count" in header:
        if len(blobs) != 1:
            raise ProtocolError("a rendered part carries one JSON fragment")
        return RenderedPart(int(header["count"]), blobs[0], ledger, *flags)
    return NodeThresholdResult(*_point_columns(blobs, 0), ledger, *flags)


def batch_results_to_wire(
    results: Sequence[NodeThresholdResult],
) -> tuple[dict, list[bytes]]:
    """A node's per-query batch contributions (shared ledger, 2 blobs each)."""
    if not results:
        raise ProtocolError("a batch response needs at least one item")
    header = {
        "ledger": ledger_to_wire(results[0].ledger),
        "items": [_flags_to_wire(item) for item in results],
    }
    return header, [
        blob for item in results
        for blob in (pack_u64(item.zindexes), pack_f64(item.values))
    ]


def batch_results_from_wire(
    header: dict, blobs: Sequence[Buffer]
) -> list[NodeThresholdResult]:
    """Rebuild a node's batch contributions (one shared ledger)."""
    items = header["items"]
    if len(blobs) != 2 * len(items):
        raise ProtocolError(
            f"batch response carries {len(blobs)} blobs for {len(items)} items"
        )
    # One shared ledger instance, mirroring the contract of
    # repro.core.threshold.get_batch_on_node (the queries were answered
    # by one pass; costs are not separable).
    ledger = ledger_from_wire(header["ledger"])
    return [
        NodeThresholdResult(
            *_point_columns(blobs, 2 * i), ledger, *_flags_from_wire(item)
        )
        for i, item in enumerate(items)
    ]


def pdf_result_to_wire(result: NodePdfResult) -> tuple[dict, list[bytes]]:
    """One node's histogram contribution as ``(header, blobs)``."""
    header = {
        "ledger": ledger_to_wire(result.ledger),
        "cache_hit": result.cache_hit,
    }
    return header, [pack_i64(np.asarray(result.counts, dtype=np.int64))]


def pdf_result_from_wire(
    header: dict, blobs: Sequence[Buffer]
) -> NodePdfResult:
    """Rebuild one node's histogram contribution from the wire."""
    if len(blobs) != 1:
        raise ProtocolError(f"pdf response carries {len(blobs)} blobs, not 1")
    return NodePdfResult(
        unpack_i64(blobs[0]),
        ledger_from_wire(header["ledger"]),
        cache_hit=bool(header["cache_hit"]),
    )


def topk_result_to_wire(result: NodeTopKResult) -> tuple[dict, list[bytes]]:
    """One node's top-k contribution as ``(header, blobs)``."""
    header = {"ledger": ledger_to_wire(result.ledger)}
    return header, [pack_u64(result.zindexes), pack_f64(result.values)]


def topk_result_from_wire(
    header: dict, blobs: Sequence[Buffer]
) -> NodeTopKResult:
    """Rebuild one node's top-k contribution from the wire."""
    zindexes, values = _point_columns(blobs, 0)
    return NodeTopKResult(zindexes, values, ledger_from_wire(header["ledger"]))


def halo_atoms_to_wire(atoms: AtomRun) -> tuple[dict, list[Buffer]]:
    """A halo read's run as its two column blobs.

    Atom blobs of one (dataset, field) share a size, so the payload is
    the zindex column plus the tile column end to end in the same order.
    """
    sizes = set(map(len, atoms.tiles))
    if len(sizes) > 1:
        raise ProtocolError("halo atoms have unequal blob sizes")
    header = {"count": len(atoms), "atom_bytes": sizes.pop() if sizes else 0}
    return header, [pack_u64(atoms.zindexes), atoms.tile_bytes()]


def halo_atoms_from_wire(header: dict, blobs: Sequence[Buffer]) -> AtomRun:
    """The halo run of a reply: zero-copy views of its two blobs.

    The run is searched by bisection, so the zindex column is checked
    here: a reply that is not strictly increasing along the atom
    lattice would assemble the wrong tile without an error.
    """
    if len(blobs) != 2:
        raise ProtocolError(f"halo response carries {len(blobs)} blobs, not 2")
    zindexes = unpack_u64(blobs[0])
    count = int(header["count"])
    atom_bytes = int(header["atom_bytes"])
    body = np.frombuffer(blobs[1], dtype=np.uint8)
    if len(zindexes) != count or atom_bytes < 0 or len(body) != count * atom_bytes:
        raise ProtocolError("halo response columns disagree with its header")
    if (zindexes % ATOM_VOLUME).any() or not (zindexes[1:] > zindexes[:-1]).all():
        raise ProtocolError(
            "halo response zindexes are not strictly increasing atom corners"
        )
    return AtomRun(zindexes, body.reshape(count, atom_bytes))


def _point_columns(
    blobs: Sequence[Buffer], start: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode the ``(zindexes, values)`` column pair at ``blobs[start]``."""
    if len(blobs) < start + 2:
        raise ProtocolError("point-set response is missing its column blobs")
    zindexes = unpack_u64(blobs[start])
    values = unpack_f64(blobs[start + 1])
    if len(zindexes) != len(values):
        raise ProtocolError(
            f"column blobs misaligned: {len(zindexes)} zindexes vs "
            f"{len(values)} values"
        )
    return zindexes, values


# -- trace context -----------------------------------------------------------


def trace_context_to_wire(context: SpanContext) -> dict:
    """A span context as the request-header record under ``"trace"``."""
    return context.to_wire()


def trace_context_from_wire(header: Mapping) -> SpanContext | None:
    """The request's span context, or ``None`` when the caller sent
    none (untraced callers inject nothing, and malformed records are
    ignored rather than failing the request)."""
    return SpanContext.from_wire(header.get(TRACE_HEADER_KEY))


def trace_payload_to_wire(
    node_id: int, recv: float, send: float, spans: list[dict]
) -> dict:
    """The response-header record shipping captured spans back.

    ``recv``/``send`` are the server's own ``clock.now()`` stamps
    bracketing the request — the far side feeds them to the midpoint
    skew model to place these spans on its own timeline.
    """
    return {"node": node_id, "recv": recv, "send": send, "spans": spans}
