"""Single-producer/single-consumer ring buffers over POSIX shared memory.

The pipe transport pays for every hot-path byte twice: once to pickle it
into the pipe and once for the kernel to copy it out again.  A
:class:`ShmRing` removes the second copy — the producer writes a frame
into a ``multiprocessing.shared_memory`` segment exactly once and the
consumer reads it in place.  Under ``transport="shm"`` a
:class:`~repro.parallel.channel.Channel` keeps the *control* plane on
the pipe (its doorbells, small replies, credits), which preserves the
pipe's FIFO ordering guarantees — and with them the supervised
executor's epoch/seq accounting — while the *data* plane rides the ring.

Layout and invariants
---------------------
One segment per ring per direction::

    [ write_pos: u64 | read_pos: u64 | data: capacity bytes ... ]

Both cursors are **monotone logical byte offsets** (they never wrap; the
physical offset is ``pos % capacity``), each written by exactly one side:
``write_pos`` by the producer, ``read_pos`` by the consumer.  A frame is
the shared ``<QII`` frame of :mod:`repro.parallel.channel` (seq, payload
length, CRC-32, then the payload), split across the physical wrap when
needed.  The producer publishes
``write_pos`` only **after** the complete frame is in place, so a torn
write — a producer dying mid-frame — is never observable as data, only
as an unadvanced cursor (the crash-mid-ring-write fault tests pin this).
The consumer has :func:`~repro.parallel.channel.read_frame` check the
frame's sequence number against the doorbell and its CRC against the
payload — and refuses a length beyond what was published — before
advancing ``read_pos``.

Lifecycle: the parent side ``create()``\\ s and later ``unlink()``\\ s
every segment (on *every* unwind path — constructor failure, dead
worker, ``close()`` after failure); workers ``attach()`` and only ever
``close()`` their mapping.  The ``resource_tracker`` registers even the
workers' non-owning attachments (bpo-39959), but worker processes share
the parent's tracker daemon, so the duplicate registration collapses in
its name set and the parent's single ``unlink`` retires it — and if the
whole tree dies without unwinding, the tracker reaps the segment.
"""

from __future__ import annotations

import itertools
import os
import struct
import time
from multiprocessing import shared_memory
from typing import Callable, Optional, Tuple

from .channel import FRAME, frame_header, read_frame

__all__ = [
    "DEFAULT_RING_BYTES",
    "RingAborted",
    "RingError",
    "RingIntegrityError",
    "RingTimeout",
    "ShmRing",
]

#: Default data capacity of one ring.  Large enough that a production
#: batch frame (~batch_size tuples, columnar-encoded) fits many times
#: over; oversized frames transparently fall back to the pipe.
DEFAULT_RING_BYTES = 1 << 20

#: Smallest permitted capacity — below this even a header-only frame
#: could not make progress.  Tests use small-but-valid capacities to
#: force wraparound on every few frames.
MIN_RING_BYTES = 64

#: Cursor block at the head of the segment: write_pos then read_pos.
_CURSORS = struct.Struct("<QQ")
_HEADER_BYTES = _CURSORS.size

#: Spin granularity of the blocking waits.  Short enough that a granted
#: credit or freed slot is noticed promptly, long enough not to burn a
#: core while a peer is busy.
_POLL_S = 0.0005

#: Deterministic segment names (no wall clock, no randomness — the
#: determinism lint rule holds for this module too): pid + process-local
#: counter, with a ``FileExistsError`` retry for the pathological case
#: of a recycled pid colliding with a leaked segment.
_NAME_COUNTER = itertools.count()

#: A picklable ``(name, capacity)`` handle that crosses the fork/spawn
#: boundary in the worker ``Process`` args.
RingDescriptor = Tuple[str, int]


class RingError(OSError):
    """Base class of ring transport failures.

    An :class:`OSError`, like a broken pipe or a torn socket frame: the
    code above a :class:`~repro.parallel.channel.Channel` handles a
    failed carrier the same way whichever carrier it was.
    """


class RingTimeout(RingError):
    """A blocking ring operation exceeded its deadline."""


class RingAborted(RingError):
    """A blocking ring operation observed the peer's death."""


class RingIntegrityError(RingError):
    """A frame failed its sequence or CRC check — torn or corrupt data."""


class ShmRing:
    """One SPSC byte ring over a shared-memory segment.

    Exactly one process writes (:meth:`write_frame`) and exactly one
    reads (:meth:`read_frame`); the executor arms two rings per shard,
    one per direction, so the invariant holds by construction.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, capacity: int, owner: bool
    ) -> None:
        self._shm = shm
        self._capacity = capacity
        self._owner = owner
        self._closed = False
        self._unlinked = False
        # Local mirrors of the cursors this side owns; peers are read
        # fresh from the segment on every wait check.
        self._write_pos = self._peer_write_pos()
        self._read_pos = self._peer_read_pos()
        self._next_seq = 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_BYTES) -> "ShmRing":
        """Create and own a fresh zeroed ring segment (parent side)."""
        if capacity < MIN_RING_BYTES:
            raise ValueError(
                f"ring capacity must be >= {MIN_RING_BYTES}, got {capacity}"
            )
        while True:
            name = f"repro-ring-{os.getpid()}-{next(_NAME_COUNTER)}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=_HEADER_BYTES + capacity
                )
                break
            except FileExistsError:  # pid recycling over a leaked segment
                continue
        _CURSORS.pack_into(shm.buf, 0, 0, 0)
        return cls(shm, capacity, owner=True)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ShmRing":
        """Attach to an existing ring by descriptor (worker side)."""
        # The attachment registers with the resource tracker as if it
        # owned the segment (bpo-39959); workers share the parent's
        # tracker daemon, so the duplicate collapses in its name set and
        # the parent's unlink retires it — no unregister dance needed
        # (a child-side unregister would steal the parent's entry and
        # make the later unlink complain).
        shm = shared_memory.SharedMemory(name=name)
        if shm.size < _HEADER_BYTES + capacity:
            shm.close()
            raise ValueError(
                f"segment {name!r} holds {shm.size} bytes, ring needs "
                f"{_HEADER_BYTES + capacity}"
            )
        return cls(shm, capacity, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def descriptor(self) -> RingDescriptor:
        """The picklable ``(name, capacity)`` handle workers attach by."""
        return (self._shm.name, self._capacity)

    def close(self) -> None:
        """Drop this side's mapping.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (owner side).  Idempotent,
        tolerant of the segment already being gone."""
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already removed
            pass

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------

    def fits(self, payload_len: int) -> bool:
        """Whether a payload of this size can *ever* ride this ring."""
        return FRAME.size + payload_len <= self._capacity

    def write_frame(
        self,
        payload: bytes,
        *,
        should_abort: Optional[Callable[[], bool]] = None,
        timeout_s: Optional[float] = None,
    ) -> int:
        """Write one frame, blocking until the ring has room.

        Returns the frame's sequence number (what the doorbell message
        carries).  ``should_abort`` is polled while waiting — the parent
        passes a worker-death probe so a dead consumer surfaces as
        :class:`RingAborted` instead of an indefinite stall.
        """
        total = FRAME.size + len(payload)
        if total > self._capacity:
            raise ValueError(
                f"frame of {total} bytes exceeds ring capacity {self._capacity}"
            )
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        while self._capacity - (self._write_pos - self._peer_read_pos()) < total:
            self._wait(should_abort, deadline, "free ring space")
        seq = self._next_seq
        self._copy_in(self._write_pos, frame_header(seq, payload))
        self._copy_in(self._write_pos + FRAME.size, payload)
        # Publish *after* the full frame is in place: a crash anywhere
        # above leaves the cursor unmoved and the torn bytes invisible.
        self._write_pos += total
        struct.pack_into("<Q", self._shm.buf, 0, self._write_pos)
        self._next_seq = seq + 1
        return seq

    def read_frame(
        self,
        expected_seq: int,
        *,
        should_abort: Optional[Callable[[], bool]] = None,
        timeout_s: Optional[float] = None,
    ) -> bytes:
        """Read the next frame, verifying its sequence number and CRC."""
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        while self._peer_write_pos() <= self._read_pos:
            self._wait(should_abort, deadline, f"frame {expected_seq}")
        published = self._peer_write_pos()
        pos = self._read_pos

        def take(n: int) -> bytes:
            nonlocal pos
            if pos + n > published:
                raise RingIntegrityError(
                    f"ring frame claims {n} more bytes, only "
                    f"{published - pos} published"
                )
            pos += n
            return self._copy_out(pos - n, n)

        payload = read_frame(take, expected_seq, RingIntegrityError)
        # Consumed only once both checks passed.
        self._read_pos = pos
        struct.pack_into("<Q", self._shm.buf, 8, pos)
        return payload

    def torn_write(self, payload: bytes) -> None:
        """Test hook: leave the torn state of a crash mid-write.

        Writes the frame header and *half* the payload without ever
        publishing the write cursor — exactly what a producer dying
        between :meth:`write_frame`'s copies leaves behind.  A correct
        consumer must never observe it as data.
        """
        self._copy_in(self._write_pos, frame_header(self._next_seq, payload))
        self._copy_in(self._write_pos + FRAME.size, payload[: len(payload) // 2])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _peer_write_pos(self) -> int:
        return int(struct.unpack_from("<Q", self._shm.buf, 0)[0])

    def _peer_read_pos(self) -> int:
        return int(struct.unpack_from("<Q", self._shm.buf, 8)[0])

    def _wait(
        self,
        should_abort: Optional[Callable[[], bool]],
        deadline: Optional[float],
        waiting_for: str,
    ) -> None:
        if should_abort is not None and should_abort():
            raise RingAborted(f"ring peer died while awaiting {waiting_for}")
        if deadline is not None and time.perf_counter() > deadline:
            raise RingTimeout(f"ring timed out awaiting {waiting_for}")
        time.sleep(_POLL_S)

    def _copy_in(self, pos: int, data: bytes) -> None:
        buf = self._shm.buf
        offset = pos % self._capacity
        first = min(len(data), self._capacity - offset)
        start = _HEADER_BYTES + offset
        buf[start : start + first] = data[:first]
        if first < len(data):
            buf[_HEADER_BYTES : _HEADER_BYTES + len(data) - first] = data[first:]

    def _copy_out(self, pos: int, length: int) -> bytes:
        buf = self._shm.buf
        offset = pos % self._capacity
        first = min(length, self._capacity - offset)
        start = _HEADER_BYTES + offset
        chunk = bytes(buf[start : start + first])
        if first < length:
            chunk += bytes(buf[_HEADER_BYTES : _HEADER_BYTES + length - first])
        return chunk
