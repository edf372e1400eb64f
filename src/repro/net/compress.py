"""Negotiated per-frame compression for the wire data plane.

The 20-byte frame header carries a 16-bit flags field whose low byte is
the *codec id* of the payload.  Which codecs a connection may use is
agreed during the HELLO handshake — each side advertises the codec
names it supports, the server picks the first common preference, and
both ends build a :class:`FrameCodec` from the outcome (the primary
pick plus the full common set, so the per-frame probe may choose any
*shared* codec frame by frame).  A peer that advertises nothing (or an
empty list) simply gets uncompressed frames; the protocol never
*requires* compression.

Codec id table (the flags byte):

===  =============  ====================================================
id   name           payload encoding
===  =============  ====================================================
0    ``none``       raw bytes
1    ``zlib``       zlib stream (level from the config, default 1)
2    ``shuffle-zlib``  blocked byte-shuffle of 8-byte lanes, then zlib
===  =============  ====================================================

Id 3 was ``delta-zlib`` (a per-blob u64 delta under the shuffle).  It
is retired and never reused: a u64 delta helps the sorted Morton-key
column only, half of every point frame is ``float64`` values it cannot
touch, and on whole frames it never beat ``shuffle-zlib``.  A frame
carrying it is an unknown codec id like any other.

The pre-transform exploits the shape of simulation columns.  Pointset
payloads are dominated by little-endian ``uint64`` Morton keys and
``float64`` values; byte-shuffle groups the k-th byte of every word
together, turning slowly-varying high-order bytes into long runs that
zlib's LZ77 window actually catches.

Compression is applied per frame by :func:`repro.net.frame.send_frame`:
payloads below the configured threshold ship raw (small control frames
are latency-, not bandwidth-bound), a ~4 KiB probe picks the candidate
that shrinks the sample best (or none), and a compressed payload that
comes out *larger* than the input is discarded in favour of the raw
parts, so the flags field always describes what is actually on the
wire.  The bytes the ledger's ``wire_bytes`` meter sees are therefore
the compressed footprint, and the achieved ``raw/wire`` ratio is
reported through ``on_ratio`` into the ``net_compression_ratio``
histogram.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.net.errors import FrameError

#: Codec ids as they appear in the frame header's flags byte.
CODEC_NONE = 0
CODEC_ZLIB = 1
CODEC_SHUFFLE_ZLIB = 2

#: Wire codec name -> flags byte value.
CODEC_IDS = {
    "none": CODEC_NONE,
    "zlib": CODEC_ZLIB,
    "shuffle-zlib": CODEC_SHUFFLE_ZLIB,
}
#: Flags byte value -> wire codec name.
CODEC_NAMES = {value: name for name, value in CODEC_IDS.items()}

#: Ceiling on a decompressed payload, mirrored from the frame layer's
#: raw-payload ceiling (kept local to avoid a runtime import cycle).
MAX_DECOMPRESSED = 256 * 1024 * 1024

#: Bytes sampled from the largest payload part to decide whether the
#: frame is worth compressing at all, and with which candidate.
PROBE_BYTES = 4096
#: The sample must shrink below this fraction of its size, or the whole
#: frame ships raw without paying for a full compression pass.
PROBE_KEEP = 0.9


@dataclass(frozen=True)
class CompressionConfig:
    """What one endpoint supports and when it bothers compressing.

    Args:
        codecs: codec names this endpoint advertises, in preference
            order (the first name both peers share becomes the
            connection's *primary* codec; every shared name remains
            eligible for the per-frame probe).  ``()`` disables
            compression entirely.
        level: zlib effort; 1 favours throughput, which is the right
            trade for LAN-bound pointset columns.
        min_payload_bytes: frames smaller than this are never
            compressed — control messages are latency-bound and zlib
            headers would often *grow* them.
    """

    codecs: tuple[str, ...] = ("zlib", "shuffle-zlib")
    level: int = 1
    min_payload_bytes: int = 4096

    def __post_init__(self) -> None:
        for name in self.codecs:
            if name not in CODEC_IDS or name == "none":
                raise ValueError(f"unknown wire codec {name!r}")
        if not 0 <= self.level <= 9:
            raise ValueError(f"zlib level must be in [0, 9], got {self.level}")
        if self.min_payload_bytes < 0:
            raise ValueError("min_payload_bytes must be non-negative")


#: The stock configuration: zlib primary (wire-compatible with older
#: peers) plus the shuffle pre-transform for peers that know it.
DEFAULT_COMPRESSION = CompressionConfig()

#: A configuration that advertises nothing and never compresses.
NO_COMPRESSION = CompressionConfig(codecs=())


def negotiate(local: Sequence[str], remote: Sequence[str]) -> str:
    """The connection's primary codec: first local preference the
    remote side also advertised, or ``"none"`` when the sets are
    disjoint (including a peer that advertised no codecs at all)."""
    remote_set = set(remote)
    for name in local:
        if name in remote_set:
            return name
    return "none"


def shared_codecs(
    local: Sequence[str], remote: Sequence[str]
) -> tuple[str, ...]:
    """Every codec both peers advertised, in local preference order."""
    remote_set = set(remote)
    return tuple(name for name in local if name in remote_set)


#: Byte-shuffle block size.  Lanes are grouped *within* fixed blocks —
#: Blosc-style — so the transpose's working set stays cache-resident;
#: a whole-payload transpose costs over twice as much in strided
#: traffic and the per-block runs already exceed deflate's 32 KiB
#: window.  Part of the codec id 2 wire format: both peers must
#: agree on it, so changing it means a new codec id.
_SHUFFLE_BLOCK = 1 << 16


def _shuffle_lanes(flat: np.ndarray) -> np.ndarray:
    """Byte-shuffle: byte k of every 8-byte word becomes contiguous.

    Full :data:`_SHUFFLE_BLOCK` blocks are transposed lane-major per
    block; the remaining 8-aligned words are transposed as one final
    short block, and a ragged tail (there is none on pointset payloads,
    whose columns are all 8-byte words) rides along untouched.
    Invertible from the length alone.
    """
    nblocks, head = divmod(len(flat), _SHUFFLE_BLOCK)
    blocked = nblocks * _SHUFFLE_BLOCK
    head = blocked + (head // 8) * 8
    if head == 0:
        return flat
    out = np.empty_like(flat)
    if nblocks:
        out[:blocked] = (
            flat[:blocked]
            .reshape(nblocks, _SHUFFLE_BLOCK // 8, 8)
            .transpose(0, 2, 1)
            .reshape(blocked)
        )
    out[blocked:head] = flat[blocked:head].reshape(-1, 8).T.ravel()
    out[head:] = flat[head:]
    return out


def _unshuffle_lanes(flat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_shuffle_lanes`."""
    nblocks, head = divmod(len(flat), _SHUFFLE_BLOCK)
    blocked = nblocks * _SHUFFLE_BLOCK
    head = blocked + (head // 8) * 8
    if head == 0:
        return flat
    out = np.empty_like(flat)
    if nblocks:
        out[:blocked] = (
            flat[:blocked]
            .reshape(nblocks, 8, _SHUFFLE_BLOCK // 8)
            .transpose(0, 2, 1)
            .reshape(blocked)
        )
    out[blocked:head] = flat[blocked:head].reshape(8, -1).T.ravel()
    out[head:] = flat[head:]
    return out


def _stack_parts(
    parts: "Sequence[bytes | bytearray | memoryview]", total: int
) -> np.ndarray:
    """Gather payload parts into one contiguous scratch array.

    This is the one deliberate copy a pre-transform codec pays; it is a
    straight memcpy and the transform needs contiguous words anyway.
    """
    stacked = np.empty(total, dtype=np.uint8)
    offset = 0
    for part in parts:
        view = memoryview(part).cast("B")
        stacked[offset : offset + len(view)] = np.frombuffer(
            view, dtype=np.uint8
        )
        offset += len(view)
    return stacked


class FrameCodec:
    """One connection's negotiated compressor/decompressor.

    Built after the handshake and handed to every
    :func:`~repro.net.frame.send_frame` / ``recv_frame`` on that
    connection.  ``codec`` is the primary negotiated name; ``allowed``
    is the full set both peers share, from which the per-frame probe
    may pick whichever candidate shrinks the sample best.  Thread-safe
    by construction: encoding and decoding allocate per-call state, and
    the counters are only advanced under the GIL with plain integer
    adds.
    """

    def __init__(
        self,
        config: CompressionConfig,
        codec: str = "none",
        on_ratio: Callable[[float], None] | None = None,
        allowed: Sequence[str] | None = None,
    ) -> None:
        if codec != "none" and codec not in config.codecs:
            raise ValueError(
                f"negotiated codec {codec!r} is not among the supported "
                f"codecs {config.codecs!r}"
            )
        if allowed is None:
            allowed = (codec,) if codec != "none" else ()
        for name in allowed:
            if name not in config.codecs:
                raise ValueError(
                    f"allowed codec {name!r} is not among the supported "
                    f"codecs {config.codecs!r}"
                )
        self.config = config
        self.codec = codec
        self.allowed = tuple(allowed)
        self.on_ratio = on_ratio
        self.frames_compressed = 0
        self.raw_bytes = 0
        self.wire_bytes = 0

    def encode(
        self, parts: "Sequence[bytes | bytearray | memoryview]", total: int
    ) -> "tuple[int, Sequence[bytes | bytearray | memoryview], int]":
        """Maybe-compress a payload given as parts.

        Returns ``(codec_id, wire_parts, wire_length)``; the id is what
        the sender puts in the frame flags.  Payloads under the
        threshold, or that no allowed candidate manages to shrink, ship
        raw with id 0.
        """
        if self.codec == "none" or total < self.config.min_payload_bytes:
            return CODEC_NONE, parts, total
        winner = self._probe(parts)
        if winner is None:
            return CODEC_NONE, parts, total
        squeezed = self._squeeze(winner, parts, total)
        if len(squeezed) >= total:
            return CODEC_NONE, parts, total
        self.frames_compressed += 1
        self.raw_bytes += total
        self.wire_bytes += len(squeezed)
        if self.on_ratio is not None and len(squeezed):
            self.on_ratio(total / len(squeezed))
        return CODEC_IDS[winner], [squeezed], len(squeezed)

    def _squeeze(
        self,
        name: str,
        parts: "Sequence[bytes | bytearray | memoryview]",
        total: int,
    ) -> "bytes | bytearray":
        """The full encoding pass for one codec candidate."""
        if name == "zlib":
            compressor = zlib.compressobj(self.config.level)
            squeezed = bytearray()
            for part in parts:
                squeezed += compressor.compress(part)
            squeezed += compressor.flush()
            return squeezed
        if name == "shuffle-zlib":
            lanes = _shuffle_lanes(_stack_parts(parts, total))
            return zlib.compress(lanes, self.config.level)
        raise FrameError(f"unknown wire codec {name!r}")  # pragma: no cover

    def _probe(
        self, parts: "Sequence[bytes | bytearray | memoryview]"
    ) -> "str | None":
        """The allowed candidate that best shrinks a cheap sample.

        Compressing incompressible data (random-looking float columns,
        already-compressed blobs) costs a full zlib pass only to ship
        the raw parts anyway.  Each candidate's pre-transform is applied
        to a ``PROBE_BYTES`` sample of the *largest* part — the data
        blob dominates every large frame — and a candidate only stays
        in the running if the transformed sample compresses below
        ``PROBE_KEEP`` of its size; the best sample ratio wins the full
        pass.  Tens of microseconds instead of a wasted full encode.
        """
        largest = max(parts, key=len, default=b"")
        view = memoryview(largest)
        if view.itemsize != 1:
            view = view.cast("B")
        sample = bytes(view[:PROBE_BYTES])
        if not sample:
            return None
        flat = np.frombuffer(sample, dtype=np.uint8)
        best: str | None = None
        best_size = PROBE_KEEP * len(sample)
        for name in self.allowed:
            trial: "bytes | np.ndarray" = (
                _shuffle_lanes(flat) if name == "shuffle-zlib" else sample
            )
            size = len(zlib.compress(trial, 1))
            if size < best_size:
                best, best_size = name, size
        return best

    def decode(
        self, codec_id: int, payload: "bytes | memoryview"
    ) -> "bytes | memoryview":
        """Undo a frame's codec according to its flags byte.

        Raises:
            FrameError: unknown codec id, a codec this endpoint never
                advertised, corrupt or truncated compressed bytes, or a
                payload that inflates past :data:`MAX_DECOMPRESSED`.
        """
        if codec_id == CODEC_NONE:
            return payload
        name = CODEC_NAMES.get(codec_id)
        if name is None:
            raise FrameError(f"unknown frame codec id {codec_id}")
        if name not in self.config.codecs:
            raise FrameError(
                f"peer sent a {name}-compressed frame this endpoint "
                f"never advertised"
            )
        # Inflate against the ceiling, never past it: the payload comes
        # from a peer, and a few hundred KiB of zeros deflate from GiBs.
        inflater = zlib.decompressobj()
        try:
            plain = inflater.decompress(payload, MAX_DECOMPRESSED + 1)
        except zlib.error as error:
            raise FrameError(
                f"corrupt {name}-compressed frame payload: {error}"
            ) from None
        if len(plain) > MAX_DECOMPRESSED or inflater.unconsumed_tail:
            raise FrameError(
                f"frame decompresses to more than the "
                f"{MAX_DECOMPRESSED}-byte ceiling"
            )
        if not inflater.eof:
            raise FrameError(
                f"corrupt {name}-compressed frame payload: the stream "
                f"ends before its end marker"
            )
        raw: "bytes | memoryview"
        if name == "shuffle-zlib":
            raw = memoryview(
                _unshuffle_lanes(np.frombuffer(plain, dtype=np.uint8))
            ).cast("B")
        else:
            raw = plain
        self.raw_bytes += len(raw)
        self.wire_bytes += len(payload)
        if self.on_ratio is not None and len(payload):
            self.on_ratio(len(raw) / len(payload))
        return raw
