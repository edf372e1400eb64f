"""Codec-layer tests: the shuffle pre-transform, probe edges, negotiation."""

import tracemalloc
import zlib

import numpy as np
import pytest

from repro.net import compress
from repro.net.compress import (
    CODEC_IDS,
    CODEC_NONE,
    CODEC_SHUFFLE_ZLIB,
    CODEC_ZLIB,
    CompressionConfig,
    FrameCodec,
    _SHUFFLE_BLOCK,
    _shuffle_lanes,
    _unshuffle_lanes,
    negotiate,
    shared_codecs,
)
from repro.net.errors import FrameError


def _round_trip(codec_name: str, parts: list[bytes]) -> None:
    """Encode with one codec forced, decode, compare byte-for-byte."""
    config = CompressionConfig(codecs=(codec_name,), min_payload_bytes=0)
    tx = FrameCodec(config, codec=codec_name, allowed=(codec_name,))
    rx = FrameCodec(config, codec=codec_name, allowed=(codec_name,))
    total = sum(len(part) for part in parts)
    codec_id, wire_parts, wire_total = tx.encode(parts, total)
    joined = b"".join(bytes(part) for part in wire_parts)
    assert wire_total == len(joined)
    if codec_id == CODEC_NONE:
        assert joined == b"".join(parts)
        return
    assert bytes(rx.decode(codec_id, joined)) == b"".join(parts)


# -- pre-transform round trips ---------------------------------------------------


@pytest.mark.parametrize(
    "nbytes",
    [
        0,
        1,
        7,
        8,
        16,
        _SHUFFLE_BLOCK - 8,
        _SHUFFLE_BLOCK,
        _SHUFFLE_BLOCK + 8,
        _SHUFFLE_BLOCK + 13,
        3 * _SHUFFLE_BLOCK + 40,
    ],
)
def test_shuffle_inverts_at_every_block_edge(nbytes):
    """Blocked shuffle round-trips across block/word/ragged boundaries."""
    rng = np.random.default_rng(nbytes)
    flat = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
    shuffled = _shuffle_lanes(flat)
    assert np.array_equal(_unshuffle_lanes(shuffled), flat)


def test_shuffle_groups_lanes():
    """Byte k of every word lands in the k-th lane within a block."""
    words = np.arange(_SHUFFLE_BLOCK // 8, dtype=np.uint64)
    flat = words.view(np.uint8)
    shuffled = _shuffle_lanes(flat)
    lane = _SHUFFLE_BLOCK // 8
    assert np.array_equal(shuffled[:lane], flat[0::8])
    assert np.array_equal(shuffled[7 * lane :], flat[7::8])


@pytest.mark.parametrize("codec_name", ["zlib", "shuffle-zlib"])
def test_codec_round_trips_pointset_columns(codec_name):
    """Sorted keys + float values survive each codec."""
    rng = np.random.default_rng(7)
    zindexes = np.cumsum(
        rng.integers(1, 64, size=50_000, dtype=np.uint64)
    )
    values = rng.normal(size=50_000)
    _round_trip(codec_name, [zindexes.tobytes(), values.tobytes()])


@pytest.mark.parametrize("codec_name", ["zlib", "shuffle-zlib"])
def test_codec_round_trips_ragged_parts(codec_name):
    """Empty, short and 8-misaligned parts survive each codec."""
    rng = np.random.default_rng(13)
    parts = [
        b"",
        b"abc",
        rng.integers(0, 256, size=63, dtype=np.uint8).tobytes(),
        np.arange(4096, dtype=np.uint64).tobytes(),
        b"x" * 8191,
    ]
    _round_trip(codec_name, parts)


# -- encode/probe edge cases -----------------------------------------------------


def test_payload_exactly_at_threshold_is_eligible():
    """``min_payload_bytes`` is inclusive: a payload of exactly that
    size goes through the probe and compresses."""
    payload = b"abcdefgh" * 512  # 4096 bytes, highly compressible
    config = CompressionConfig(codecs=("zlib",), min_payload_bytes=4096)
    tx = FrameCodec(config, codec="zlib")
    codec_id, parts, total = tx.encode([payload], len(payload))
    assert codec_id == CODEC_ZLIB
    assert total < len(payload)
    # One byte under the threshold ships raw without probing.
    short = payload[:-1]
    codec_id, parts, total = tx.encode([short], len(short))
    assert codec_id == CODEC_NONE
    assert total == len(short)


def test_incompressible_probe_sample_skips_a_compressible_body():
    """The probe judges the frame by its first 4 KiB: when that sample
    is incompressible the frame ships raw even though the rest of the
    body would have compressed — the documented cheap-probe trade."""
    rng = np.random.default_rng(5)
    noise = rng.integers(0, 256, size=8192, dtype=np.uint8).tobytes()
    body = noise + b"\x00" * (1 << 20)
    config = CompressionConfig(codecs=("zlib",), min_payload_bytes=64)
    tx = FrameCodec(config, codec="zlib")
    codec_id, parts, total = tx.encode([body], len(body))
    assert codec_id == CODEC_NONE
    assert total == len(body)
    assert tx.frames_compressed == 0
    # The same body with the compressible bytes up front compresses.
    codec_id, _, total = tx.encode([body[::-1]], len(body))
    assert codec_id == CODEC_ZLIB
    assert total < len(body)


def test_default_probe_picks_shuffle_for_a_point_frame():
    """A point frame is two differently-typed columns — sorted Morton
    keys, then float values.  The probe samples the keys (the largest
    part, first on a tie) and must pick the transform that serves both
    columns, on every link the default configuration negotiates."""
    rng = np.random.default_rng(11)
    keys = np.sort(rng.choice(1 << 18, size=25_000, replace=False)).astype("<u8")
    values = rng.normal(1.0, 0.3, size=25_000)
    parts = [keys.tobytes(), values.tobytes()]
    config = CompressionConfig()
    tx = FrameCodec(config, codec="zlib", allowed=config.codecs)
    raw_total = sum(len(part) for part in parts)
    codec_id, wire_parts, total = tx.encode(parts, raw_total)
    assert codec_id == CODEC_SHUFFLE_ZLIB
    assert total < raw_total
    rx = FrameCodec(config, codec="zlib", allowed=config.codecs)
    assert bytes(rx.decode(codec_id, bytes(wire_parts[0]))) == b"".join(parts)


def test_unknown_codec_id_is_a_frame_error():
    config = CompressionConfig()
    rx = FrameCodec(config, codec="zlib")
    with pytest.raises(FrameError, match="unknown frame codec id 200"):
        rx.decode(200, b"anything")


def test_unadvertised_codec_id_is_a_frame_error():
    """A peer must not use a codec this endpoint never advertised."""
    config = CompressionConfig(codecs=("zlib",))
    rx = FrameCodec(config, codec="zlib")
    with pytest.raises(FrameError, match="never advertised"):
        rx.decode(CODEC_SHUFFLE_ZLIB, b"anything")


def test_corrupt_compressed_payload_is_a_frame_error():
    config = CompressionConfig()
    rx = FrameCodec(config, codec="zlib")
    with pytest.raises(FrameError, match="corrupt"):
        rx.decode(CODEC_SHUFFLE_ZLIB, b"not a zlib stream")


def test_truncated_compressed_payload_is_a_frame_error():
    config = CompressionConfig()
    rx = FrameCodec(config, codec="zlib")
    whole = zlib.compress(b"abcdefgh" * 4096, 1)
    with pytest.raises(FrameError, match="corrupt"):
        rx.decode(CODEC_ZLIB, whole[:-8])


def test_inflate_is_bounded_by_the_ceiling_not_by_the_peer(monkeypatch):
    """A frame that would inflate far past ``MAX_DECOMPRESSED`` is
    refused after allocating about the ceiling, not the peer's figure."""
    monkeypatch.setattr(compress, "MAX_DECOMPRESSED", 1 << 20)
    bomb = zlib.compress(bytes(64 << 20), 1)
    rx = FrameCodec(CompressionConfig(), codec="zlib")
    tracemalloc.start()
    try:
        with pytest.raises(FrameError, match="ceiling"):
            rx.decode(CODEC_ZLIB, bomb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    # A payload of exactly the ceiling still decodes.
    exact = bytes(1 << 20)
    assert rx.decode(CODEC_ZLIB, zlib.compress(exact, 1)) == exact


# -- negotiation -----------------------------------------------------------------


def test_negotiate_prefers_local_order():
    assert negotiate(("zlib", "shuffle-zlib"), ("shuffle-zlib", "zlib")) == "zlib"
    assert negotiate((), ("zlib",)) == "none"
    assert negotiate(("zlib",), ()) == "none"


def test_peers_sharing_only_the_shuffle_codec():
    """A modern peer meeting a shuffle-only peer negotiates shuffle as
    primary and probes nothing else."""
    modern = CompressionConfig()
    local = modern.codecs
    remote = ("shuffle-zlib",)
    assert negotiate(local, remote) == "shuffle-zlib"
    allowed = shared_codecs(local, remote)
    assert allowed == ("shuffle-zlib",)
    tx = FrameCodec(modern, codec="shuffle-zlib", allowed=allowed)
    payload = np.arange(50_000, dtype=np.uint64).tobytes()
    codec_id, parts, total = tx.encode([payload], len(payload))
    assert codec_id == CODEC_SHUFFLE_ZLIB
    assert total < len(payload)
    rx = FrameCodec(modern, codec="shuffle-zlib", allowed=allowed)
    assert bytes(rx.decode(codec_id, b"".join(bytes(p) for p in parts))) == payload


def test_shared_codecs_keeps_local_preference_order():
    # A name this build does not know (an older peer's ``delta-zlib``)
    # is dropped by the intersection, not an error.
    assert shared_codecs(
        ("zlib", "shuffle-zlib"),
        ("delta-zlib", "shuffle-zlib", "zlib"),
    ) == ("zlib", "shuffle-zlib")


def test_codec_ids_are_stable():
    """The flags-byte table is wire format — ids must never move, and
    the retired id 3 (``delta-zlib``) is never handed out again."""
    assert CODEC_IDS == {"none": 0, "zlib": 1, "shuffle-zlib": 2}
    rx = FrameCodec(CompressionConfig(), codec="zlib")
    with pytest.raises(FrameError, match="unknown frame codec id 3"):
        rx.decode(3, b"anything")
