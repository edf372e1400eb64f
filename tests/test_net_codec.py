"""Wire-layer tests: framing, the message codec, and domain round-trips."""

import random
import socket
import struct
import threading

import numpy as np
import pytest

from repro.core.pointset import pack_u64
from repro.core.query import read_field
from repro.core.threshold import NodeThresholdResult
from repro.costmodel import Category, CostLedger
from repro.grid import Box
from repro.morton import MortonRange
from repro.net import codec
from repro.net.compress import CompressionConfig, FrameCodec
from repro.net.errors import (
    ConnectionLostError,
    DeadlineExceededError,
    FrameError,
    ProtocolError,
)
from repro.net.frame import (
    Deadline,
    FrameType,
    HEADER,
    MAGIC,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
)
from repro.simulation.ingest import AtomRun


def _pair():
    left, right = socket.socketpair()
    left.settimeout(5.0)
    right.settimeout(5.0)
    return left, right


# -- framing --------------------------------------------------------------------


def test_frame_round_trip_every_type():
    left, right = _pair()
    try:
        for frame_type in FrameType:
            payload = bytes([int(frame_type)]) * 37
            sent = send_frame(
                left, frame_type, 42 + frame_type, payload, Deadline.after(5)
            )
            assert sent == HEADER.size + len(payload)
            frame = recv_frame(right, Deadline.after(5))
            assert frame.frame_type == frame_type
            assert frame.request_id == 42 + frame_type
            assert frame.payload == payload
            assert frame.wire_bytes == sent
    finally:
        left.close()
        right.close()


def test_frame_round_trip_large_payload():
    """Payloads far past 64 KiB survive chunked sends and reads."""
    rng = random.Random(7)
    payload = rng.randbytes(3 * 1024 * 1024 + 17)
    left, right = _pair()
    received = {}

    def reader():
        received["frame"] = recv_frame(right, Deadline.after(30))

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        send_frame(left, FrameType.RESPONSE, 9, payload, Deadline.after(30))
        thread.join(timeout=30)
        frame = received["frame"]
        assert frame.frame_type == FrameType.RESPONSE
        assert frame.request_id == 9
        assert frame.payload == payload
    finally:
        left.close()
        right.close()


def test_truncated_payload_is_a_frame_error():
    """EOF mid-payload is truncation, not a clean close."""
    left, right = _pair()
    try:
        header = HEADER.pack(MAGIC, PROTOCOL_VERSION, 6, 0, 1, 100)
        left.sendall(header + b"only-some-bytes")
        left.close()
        with pytest.raises(FrameError, match="truncated"):
            recv_frame(right, Deadline.after(5))
    finally:
        right.close()


def test_truncated_header_is_a_frame_error():
    left, right = _pair()
    try:
        left.sendall(HEADER.pack(MAGIC, PROTOCOL_VERSION, 6, 0, 1, 0)[:7])
        left.close()
        with pytest.raises(FrameError, match="truncated"):
            recv_frame(right, Deadline.after(5))
    finally:
        right.close()


@pytest.mark.parametrize(
    "header_bytes, match",
    [
        # Explicit ids: generated ones would spell out the packed bytes,
        # PROTOCOL_VERSION among them, and change with every version.
        pytest.param(
            HEADER.pack(b"HTTP", PROTOCOL_VERSION, 6, 0, 1, 0), "magic",
            id="magic",
        ),
        pytest.param(
            HEADER.pack(MAGIC, 99, 6, 0, 1, 0), "protocol 99",
            id="version_99",
        ),
        pytest.param(
            HEADER.pack(MAGIC, PROTOCOL_VERSION, 6, 7, 1, 0), "flags",
            id="flags_7",
        ),
        pytest.param(
            HEADER.pack(MAGIC, PROTOCOL_VERSION, 250, 0, 1, 0), "frame type",
            id="frame_type_250",
        ),
        # Protocol 3 answers every request with one RESPONSE: the
        # streamed-chunk type and the shared-memory flag of protocol 2
        # are gone.
        pytest.param(
            HEADER.pack(MAGIC, PROTOCOL_VERSION, 8, 0, 1, 0), "frame type 8",
            id="frame_type_8",
        ),
        pytest.param(
            HEADER.pack(MAGIC, PROTOCOL_VERSION, 6, 0x100, 1, 0),
            "flags 0x100",
            id="flags_0x100",
        ),
        pytest.param(
            HEADER.pack(MAGIC, PROTOCOL_VERSION, 6, 0, 1, 2**31), "ceiling",
            id="over_the_ceiling",
        ),
    ],
)
def test_garbage_headers_are_rejected(header_bytes, match):
    left, right = _pair()
    try:
        left.sendall(header_bytes)
        with pytest.raises(FrameError, match=match):
            recv_frame(right, Deadline.after(5))
    finally:
        left.close()
        right.close()


def test_clean_eof_before_any_byte():
    left, right = _pair()
    left.close()
    try:
        assert recv_frame(right, Deadline.after(5), eof_ok=True) is None
        with pytest.raises(ConnectionLostError):
            recv_frame(right, Deadline.after(5), eof_ok=False)
    finally:
        right.close()


def test_recv_respects_the_deadline():
    left, right = _pair()
    try:
        with pytest.raises(DeadlineExceededError):
            recv_frame(right, Deadline.after(0.05))
    finally:
        left.close()
        right.close()


def test_deadline_contract():
    with pytest.raises(ValueError):
        Deadline.after(0)
    with pytest.raises(ValueError):
        Deadline.after(-1)
    spent = Deadline(expires_at=0.0)
    with pytest.raises(DeadlineExceededError):
        spent.remaining()
    assert Deadline.after(60).remaining() > 59


def test_oversized_send_is_refused():
    left, right = _pair()
    try:
        with pytest.raises(FrameError, match="ceiling"):
            send_frame(
                left,
                FrameType.REQUEST,
                1,
                _FakeHugePayload(),
                Deadline.after(5),
            )
    finally:
        left.close()
        right.close()


class _FakeHugePayload(bytes):
    """A bytes stand-in reporting an over-ceiling length (no allocation)."""

    def __len__(self):
        return 256 * 1024 * 1024 + 1


def test_vectored_parts_send_matches_concatenation():
    """A list of buffer parts arrives as one contiguous payload."""
    parts = [b"head", bytearray(b"-mid-"), memoryview(b"tail" * 100), b""]
    flat = b"".join(bytes(p) for p in parts)
    left, right = _pair()
    try:
        sent = send_frame(left, FrameType.REQUEST, 3, parts, Deadline.after(5))
        assert sent == HEADER.size + len(flat)
        frame = recv_frame(right, Deadline.after(5))
        assert frame.payload == flat
        assert frame.request_id == 3
    finally:
        left.close()
        right.close()


def test_compressed_frame_round_trip():
    """zlib-negotiated frames shrink on the wire and decode intact."""
    config = CompressionConfig(codecs=("zlib",), min_payload_bytes=64)
    ratios = []
    tx = FrameCodec(config, codec="zlib", on_ratio=ratios.append)
    rx = FrameCodec(config, codec="zlib")
    payload = b"abcdefgh" * 8192  # highly compressible
    left, right = _pair()
    try:
        sent = send_frame(
            left, FrameType.RESPONSE, 11, payload, Deadline.after(5), codec=tx
        )
        assert sent < HEADER.size + len(payload)
        frame = recv_frame(right, Deadline.after(5), codec=rx)
        assert frame.payload == payload
        assert frame.wire_bytes == sent
        assert ratios and ratios[0] > 1.0
    finally:
        left.close()
        right.close()


def test_small_frames_skip_compression():
    """Payloads under the threshold ride the wire raw."""
    config = CompressionConfig(codecs=("zlib",), min_payload_bytes=4096)
    tx = FrameCodec(config, codec="zlib")
    payload = b"tiny" * 8
    left, right = _pair()
    try:
        sent = send_frame(
            left, FrameType.RESPONSE, 1, payload, Deadline.after(5), codec=tx
        )
        assert sent == HEADER.size + len(payload)
        # Raw frames need no codec on the receive side.
        frame = recv_frame(right, Deadline.after(5))
        assert frame.payload == payload
    finally:
        left.close()
        right.close()


# -- message codec ---------------------------------------------------------------


def test_message_round_trip_randomised():
    """Property-style: random headers and blob shapes survive the codec."""
    rng = random.Random(1234)
    for _ in range(50):
        header = {
            "method": rng.choice(["threshold", "pdf", "halo"]),
            "n": rng.randint(-(2**40), 2**40),
            "f": rng.random(),
            "flag": rng.random() < 0.5,
            "nest": {"list": [rng.randint(0, 9) for _ in range(rng.randint(0, 5))]},
            "none": None,
        }
        blobs = [
            rng.randbytes(rng.randint(0, 4096))
            for _ in range(rng.randint(0, 6))
        ]
        decoded_header, decoded_blobs = codec.decode_message(
            codec.encode_message(header, blobs)
        )
        assert decoded_header == header
        assert decoded_blobs == blobs


def test_message_round_trip_huge_blob():
    """A blob well past 64 KiB crosses the codec byte-for-byte."""
    blob = random.Random(5).randbytes(512 * 1024 + 3)
    header, blobs = codec.decode_message(
        codec.encode_message({"m": "x"}, [b"", blob])
    )
    assert blobs == [b"", blob]


@pytest.mark.parametrize(
    "payload",
    [
        b"",  # no header length
        struct.pack("<I", 100),  # header length with no header
        struct.pack("<I", 2) + b"{}",  # missing blob count
        struct.pack("<I", 2) + b"{}" + struct.pack("<H", 1),  # missing blob
        codec.encode_message({"a": 1}) + b"junk",  # trailing bytes
        struct.pack("<I", 4) + b"[1icaccount]"[:4] + struct.pack("<H", 0),
    ],
)
def test_garbage_messages_are_protocol_errors(payload):
    with pytest.raises(ProtocolError):
        codec.decode_message(payload)


def test_non_object_header_is_rejected():
    head = b"[1,2]"
    payload = struct.pack("<I", len(head)) + head + struct.pack("<H", 0)
    with pytest.raises(ProtocolError, match="JSON object"):
        codec.decode_message(payload)


def test_blob_cap_is_enforced():
    with pytest.raises(ProtocolError, match="cap"):
        codec.encode_message({}, [b""] * (codec.MAX_BLOBS + 1))


# -- domain round-trips ----------------------------------------------------------


def test_boxes_and_ranges_round_trip():
    boxes = [Box((0, 0, 0), (7, 7, 7)), Box((8, 0, 0), (15, 7, 7))]
    header = {"boxes": codec.boxes_to_wire(boxes)}
    assert read_field(header, "boxes", "list[Box]") == boxes
    ranges = [MortonRange(0, 100), MortonRange(4096, 8191)]
    header = {"ranges": codec.ranges_to_wire(ranges)}
    assert read_field(header, "ranges", "list[MortonRange]") == ranges


def test_threshold_result_round_trip_preserves_ledger():
    ledger = CostLedger()
    ledger.charge(Category.IO, 1.25)
    ledger.charge(Category.COMPUTE, 0.5)
    ledger.count("wire_bytes", 100.0)
    result = NodeThresholdResult(
        np.array([5, 9, 1 << 50], dtype=np.uint64),
        np.array([0.5, -1.5, 2.25], dtype=np.float64),
        ledger,
        cache_hit=True,
        boxes_evaluated=4,
        cache_stored=False,
    )
    rebuilt = codec.threshold_result_from_wire(
        *codec.threshold_result_to_wire(result)
    )
    assert np.array_equal(rebuilt.zindexes, result.zindexes)
    assert np.array_equal(rebuilt.values, result.values)
    assert rebuilt.cache_hit and not rebuilt.cache_stored
    assert rebuilt.boxes_evaluated == 4
    assert rebuilt.ledger.breakdown() == ledger.breakdown()
    assert rebuilt.ledger.meters() == ledger.meters()


def run_of(atoms: dict) -> AtomRun:
    zindexes = sorted(atoms)
    return AtomRun(np.array(zindexes, dtype=np.uint64), [atoms[z] for z in zindexes])


def test_halo_atoms_round_trip():
    rng = random.Random(99)
    atoms = {z: rng.randbytes(64) for z in (0, 512, 4096, 2**40)}
    header, blobs = codec.halo_atoms_to_wire(run_of(atoms))
    rebuilt = codec.halo_atoms_from_wire(header, blobs)
    assert rebuilt == atoms
    assert codec.halo_atoms_from_wire(*codec.halo_atoms_to_wire(run_of({}))) == {}
    # A run off the wire holds its tiles as a 2-D view of the body; shipped
    # again, the frame layer gets it flat (it advances by len(), which on a
    # 2-D view counts rows) and the peer the same bytes.
    left, right = _pair()
    try:
        parts = codec.encode_message_parts(*codec.halo_atoms_to_wire(rebuilt))
        send_frame(left, FrameType.RESPONSE, 4, parts, Deadline.after(5))
        reply = codec.decode_message(recv_frame(right, Deadline.after(5)).payload)
    finally:
        left.close()
        right.close()
    assert reply[0] == header
    assert codec.halo_atoms_from_wire(*reply) == atoms


def test_halo_atoms_unequal_sizes_are_rejected():
    with pytest.raises(ProtocolError, match="unequal"):
        codec.halo_atoms_to_wire(run_of({512: b"abc", 1024: b"toolong"}))


@pytest.mark.parametrize(
    "zindexes",
    [(512, 0), (0, 512, 512), (0, 7), (1024, 512, 2048)],
    ids=["unsorted", "repeated", "off-lattice", "dip"],
)
def test_a_halo_zindex_column_is_not_trusted(zindexes):
    # A run is searched by bisection: out of order, repeated or off the
    # atom lattice it would assemble the wrong tile without an error.
    header = {"count": len(zindexes), "atom_bytes": 4}
    blobs = [pack_u64(np.array(zindexes, np.uint64)), b"tile" * len(zindexes)]
    with pytest.raises(ProtocolError, match="strictly increasing atom corners"):
        codec.halo_atoms_from_wire(header, blobs)
    with pytest.raises(ProtocolError, match="disagree"):
        codec.halo_atoms_from_wire({**header, "atom_bytes": 5}, blobs)
    with pytest.raises(ProtocolError, match="disagree"):
        codec.halo_atoms_from_wire({"count": 0, "atom_bytes": -4}, [b"", b""])
