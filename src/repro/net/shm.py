"""Shared-memory payload ring for same-host peers.

When a client and a node server share a host, large streamed payloads
do not need to squeeze through the loopback TCP stack at all: the
client creates one :class:`ShmRing` per connection — a
``multiprocessing.shared_memory`` segment holding a small ack table
plus a few payload slots — and advertises it in the HELLO handshake
together with a :func:`host_token`.  A server on the same host attaches
an :class:`ShmWriter` to the ring and, for each PARTIAL frame whose
payload fits a free slot, copies the payload into the slot and sends
only a 20-byte *locator* over TCP (``FLAG_SHM`` in the frame flags);
the receiver maps the locator back to a zero-copy view of the slot.
Anything else — host mismatch, attach failure, no free slot, payload
too big — transparently falls back to the inline TCP path, so shared
memory is purely an optimisation and never a correctness dependency.

Slot reclamation is lock-free through a generation/ack protocol:

* the writer keeps a private generation counter per slot and bumps it
  when it claims the slot; the locator carries ``(slot, gen, length)``;
* the reader, once it has fully consumed a payload, writes ``gen`` into
  the slot's ack word *inside the segment*;
* the writer treats a slot as free exactly when its ack word equals the
  slot's current generation.

A torn ack write (the word is not written atomically on every
platform) can only ever produce a value *unequal* to the new
generation, so the writer may see a stale "busy" slot — and fall back
to TCP for one frame — but can never reuse a slot the reader still
reads.  The TCP locator frame itself is the happens-before edge for the
payload bytes: the writer finishes the slot copy before sending the
locator, and both sides cross a syscall in between.

Lifecycle: the *client* owns the segment — it creates it, advertises
it, and ``close()`` both unmaps and unlinks it when the connection goes
away (the test session's closing audit of ``/dev/shm`` fails on one
left behind).  The *server* only attaches; its ``close()`` unmaps
without unlinking.  Unlinking while the server still holds a mapping is
safe (POSIX keeps the mapping alive), so neither side ever waits on the
other to tear down.
"""

from __future__ import annotations

import socket
import struct
import uuid
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.net.errors import FrameError

if TYPE_CHECKING:
    from repro.net.frame import Buffer

#: Wire layout of a payload locator: slot index, slot generation,
#: payload byte length.
LOCATOR = struct.Struct("<IQQ")

#: Default slots per ring.  Streams release each slot as soon as the
#: chunk is merged, so a handful of slots keeps the writer ahead of the
#: reader without reserving much memory; enough of them that a 16 MiB
#: stream (four 4 MiB chunks) never stalls on slot reclamation even
#: when reader and writer threads interleave badly on few cores.
DEFAULT_SLOTS = 8

#: Default slot capacity: one stream chunk's packed columns (256Ki
#: points x 16 bytes) plus generous headroom for the message header and
#: blob length prefixes.
DEFAULT_SLOT_BYTES = 256 * 1024 * 16 + 64 * 1024

#: Bytes per ack word in the segment's ack table.
_ACK_BYTES = 8

#: Segment names created by rings in *this* process.  When a writer in
#: the same process attaches one (in-thread test clusters), it must not
#: untrack it: the tracker deduplicates the double registration, so a
#: second unregister would make the owner's unlink complain.
_OWNED_NAMES: set[str] = set()


def host_token() -> str:
    """An identity string two endpoints compare to detect a shared host.

    Hostname alone collides across containers; the MAC-derived node id
    alone collides across network namespaces.  The pair is a practical
    same-host witness, and an attach that fails anyway (say, separate
    ``/dev/shm`` mounts behind identical tokens) is reported to the
    client as a declined grant, falling back to TCP.
    """
    return f"{socket.gethostname()}:{uuid.getnode():012x}"


def _untrack(name: str) -> None:
    """Detach a segment from this process's resource tracker.

    ``SharedMemory(name=...)`` registers the segment with the resource
    tracker even when merely *attaching* (bpo-39959 on this Python), so
    an attaching process's exit would unlink a segment it never owned.
    """
    if name in _OWNED_NAMES:
        return
    try:
        resource_tracker.unregister(f"/{name.lstrip('/')}", "shared_memory")
    except (KeyError, ValueError, OSError):  # pragma: no cover - platform
        pass  # tracker registries differ across platforms/Pythons


class ShmRing:
    """The reader/owner side of a payload ring (one per connection).

    Args:
        slots: payload slots in the ring.
        slot_bytes: capacity of each slot.

    Raises:
        ValueError: non-positive geometry.
        OSError: the segment could not be created (no shared memory on
            this platform / mount) — callers treat this as "no shm".
    """

    def __init__(
        self,
        slots: int = DEFAULT_SLOTS,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> None:
        if slots < 1 or slot_bytes < 1:
            raise ValueError("ring geometry must be positive")
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._segment = shared_memory.SharedMemory(
            create=True, size=slots * _ACK_BYTES + slots * slot_bytes
        )
        self._acks = np.frombuffer(
            self._segment.buf, dtype=np.uint64, count=slots
        )
        self._acks[:] = 0
        _OWNED_NAMES.add(self._segment.name)
        self._closed = False
        #: Payload bytes served out of the ring (metrics, not the wire).
        self.bytes_via_ring = 0
        self.frames_via_ring = 0

    @property
    def name(self) -> str:
        """The segment name the HELLO advertisement carries."""
        return self._segment.name

    def grant(self) -> dict:
        """The ring's wire description for the HELLO ``"shm"`` record."""
        return {
            "host": host_token(),
            "name": self.name,
            "slots": self.slots,
            "slot_bytes": self.slot_bytes,
        }

    def view(self, slot: int, gen: int, length: int) -> "Buffer":
        """A zero-copy view of a located payload.

        Raises:
            FrameError: locator outside the ring's geometry.
        """
        if self._closed:
            raise FrameError("shared-memory ring is closed")
        if not 0 <= slot < self.slots or not 0 <= length <= self.slot_bytes:
            raise FrameError(
                f"shm locator (slot {slot}, {length} bytes) outside ring "
                f"of {self.slots} x {self.slot_bytes} bytes"
            )
        start = self.slots * _ACK_BYTES + slot * self.slot_bytes
        self.bytes_via_ring += length
        self.frames_via_ring += 1
        return self._segment.buf[start : start + length]

    def release(self, slot: int, gen: int) -> None:
        """Hand a consumed slot back to the writer (ack = generation)."""
        if self._closed or not 0 <= slot < self.slots:
            return
        self._acks[slot] = np.uint64(gen & 0xFFFFFFFFFFFFFFFF)

    def close(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        # Drop the numpy view first: SharedMemory.close() refuses to
        # unmap while exported buffer views are alive.
        self._acks = np.empty(0, dtype=np.uint64)
        try:
            self._segment.close()
        except (OSError, BufferError):  # pragma: no cover - straggling view
            pass  # the mapping falls with the last view at GC
        try:
            self._segment.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - races
            pass
        _OWNED_NAMES.discard(self._segment.name)

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ShmWriter:
    """The writer side of a peer's ring (the node server's half).

    Attaches to a client-owned segment by name.  ``claim`` hands out a
    writable slot view or ``None`` when every slot is still unacked —
    the caller then ships that one frame inline over TCP.

    Raises:
        ValueError: geometry disagrees with the advertised segment size.
        OSError / FileNotFoundError: the segment cannot be attached
            (not actually the same host) — callers decline the grant.
    """

    def __init__(self, name: str, slots: int, slot_bytes: int) -> None:
        if slots < 1 or slot_bytes < 1:
            raise ValueError("ring geometry must be positive")
        self._segment = shared_memory.SharedMemory(name=name)
        _untrack(name)
        needed = slots * _ACK_BYTES + slots * slot_bytes
        if self._segment.size < needed:
            self._segment.close()
            raise ValueError(
                f"segment {name!r} holds {self._segment.size} bytes, "
                f"ring geometry needs {needed}"
            )
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._acks = np.frombuffer(
            self._segment.buf, dtype=np.uint64, count=slots
        )
        self._gens = [0] * slots
        self._closed = False

    def claim(self, nbytes: int) -> "tuple[int, int, Buffer] | None":
        """A free slot as ``(slot, gen, writable view)``, else ``None``.

        ``None`` means the payload does not fit a slot or the reader
        has not released one yet; the caller falls back to inline TCP.
        """
        if self._closed or nbytes > self.slot_bytes:
            return None
        for slot in range(self.slots):
            if int(self._acks[slot]) == self._gens[slot]:
                gen = (self._gens[slot] + 1) & 0xFFFFFFFFFFFFFFFF
                self._gens[slot] = gen
                start = self.slots * _ACK_BYTES + slot * self.slot_bytes
                return slot, gen, self._segment.buf[start : start + nbytes]
        return None

    def close(self) -> None:
        """Unmap the segment without unlinking it (the reader owns it)."""
        if self._closed:
            return
        self._closed = True
        self._acks = np.empty(0, dtype=np.uint64)
        try:
            self._segment.close()
        except (OSError, BufferError):  # pragma: no cover - straggling view
            pass

    def __enter__(self) -> "ShmWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
