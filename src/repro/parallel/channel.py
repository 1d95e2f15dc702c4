"""The wire: one frame, one channel, under every worker conversation.

Every conversation between the executor and a shard worker process —
over a pipe, a shared-memory ring or a socket — is a stream of pickled
``(tag, payload)`` messages.  How a message becomes bytes on a carrier
is decided here and nowhere else:

* **The frame.**  ``<QII`` — sequence number, payload length, CRC-32 of
  the payload — followed by the payload.  :func:`frame_header` builds
  it and :func:`read_frame` is the one reader: it holds the only
  sequence and CRC checks of the parallel and distributed layers.  The
  two carriers that cannot trust their medium —
  :class:`~repro.parallel.shm.ShmRing` (a producer can die mid-write)
  and :class:`~repro.distributed.runtime.SocketConnection` (a TCP peer
  can be anyone) — frame through these functions; a pipe is
  message-framed by the kernel and needs neither.
* **The channel.**  :class:`Channel` owns one pipe-shaped connection
  plus, under the shm transport, one ring per direction.  ``send``
  pickles each message exactly once; a ``bulky`` one is written into
  the outbound ring and only a *doorbell* — the frame's bare sequence
  number — crosses the connection, and ``recv`` resolves a doorbell
  back into the framed message.  Doorbells are private to the channel:
  protocol messages are tuples, so a bare ``int`` on the connection can
  only be one, and no ``MSG_*`` tag is spent on them.  The doorbell
  travels the same connection as every inline message, so FIFO ordering
  — and with it the supervisor's epoch/seq accounting — does not depend
  on which carrier the bytes took.

Failures of any carrier surface as :class:`OSError` (or
:class:`EOFError` for a clean peer shutdown), the pipe's own error
surface: the ring's errors and the socket's integrity error subclass
it, so one ``except`` above the channel covers a broken pipe, a dead
ring peer and a torn frame alike.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, Type

from ..core.blocks import PICKLE_PROTOCOL

if TYPE_CHECKING:
    from .shm import ShmRing

__all__ = ["FRAME", "Carrier", "Channel", "frame_header", "read_frame"]

#: Per-frame header: sequence number, payload length, CRC-32 of payload.
FRAME = struct.Struct("<QII")

#: Largest single read :func:`read_frame` asks its carrier for.  The
#: length field of a header is unverified input — on a socket, 16 bytes
#: from any peer — so the payload is received in bounded pieces and the
#: receiver's memory follows the bytes that actually arrived, not the
#: number the header claims.
READ_CHUNK_BYTES = 1 << 18

#: Backstop on resolving a doorbell.  The sender publishes the frame
#: before it rings, so the read never truly waits; this bounds a torn
#: state, it is not a liveness mechanism.
RING_READ_BACKSTOP_S = 60.0


def frame_header(seq: int, payload: bytes) -> bytes:
    """The ``<QII`` header that precedes ``payload`` as frame ``seq``."""
    return FRAME.pack(seq, len(payload), zlib.crc32(payload))


def read_frame(
    read: Callable[[int], bytes], expected_seq: int, error: Type[Exception]
) -> bytes:
    """Read one frame through ``read(n)`` and verify it.

    ``read`` returns exactly ``n`` bytes or raises (``EOFError`` at a
    closed socket, the ring's own error past the published cursor).  A
    sequence number other than ``expected_seq`` — a dropped, duplicated
    or reordered frame — and a payload that fails its CRC raise
    ``error``, the carrier's integrity error type.
    """
    seq, length, crc = FRAME.unpack(read(FRAME.size))
    if seq != expected_seq:
        raise error(f"frame sequence {seq} != expected {expected_seq}")
    chunks = []
    while length:
        chunks.append(read(min(length, READ_CHUNK_BYTES)))
        length -= len(chunks[-1])
    payload = b"".join(chunks)
    if zlib.crc32(payload) != crc:
        raise error(f"frame {seq} failed its CRC check")
    return payload


class Carrier(Protocol):
    """What a channel needs of its connection: a ``multiprocessing``
    pipe end, or a :class:`~repro.distributed.runtime.SocketConnection`."""

    def send_bytes(self, __buf: bytes) -> None: ...

    def recv(self) -> Any: ...

    def poll(self, __timeout: float) -> bool: ...

    def close(self) -> None: ...


class Channel:
    """One end of a worker conversation.

    ``send_ring`` / ``recv_ring`` are this end's outbound and inbound
    :class:`~repro.parallel.shm.ShmRing` (shm transport only).  They
    are plain attributes so that a side creating or attaching them one
    at a time can hang each on the channel the moment it exists —
    :meth:`close` then releases whatever was armed, on every unwind
    path.  ``peer_dead`` is polled while a ring write waits for space
    (the parent's worker-death probe); ``ring_timeout_s`` bounds that
    wait (the worker's backstop against a wedged parent).
    ``on_ring_write(ring, frame)`` is the fault injector's hook, called
    between pickling and the ring write.
    """

    def __init__(
        self,
        connection: Carrier,
        send_ring: Optional[ShmRing] = None,
        recv_ring: Optional[ShmRing] = None,
        *,
        peer_dead: Optional[Callable[[], bool]] = None,
        ring_timeout_s: Optional[float] = None,
    ) -> None:
        self.connection = connection
        self.send_ring = send_ring
        self.recv_ring = recv_ring
        self.peer_dead = peer_dead
        self.ring_timeout_s = ring_timeout_s
        self.on_ring_write: Optional[Callable[[ShmRing, bytes], None]] = None

    def send(self, message: object, bulky: bool = False) -> None:
        """Ship one message, serialized exactly once (protocol 5).

        A ``bulky`` message rides the outbound ring when one is armed
        and can ever hold it; otherwise — and for every small message —
        it travels the connection whole.
        """
        data = pickle.dumps(message, protocol=PICKLE_PROTOCOL)
        ring = self.send_ring
        if bulky and ring is not None and ring.fits(len(data)):
            if self.on_ring_write is not None:
                self.on_ring_write(ring, data)
            seq = ring.write_frame(
                data, should_abort=self.peer_dead, timeout_s=self.ring_timeout_s
            )
            data = pickle.dumps(seq, protocol=PICKLE_PROTOCOL)
        self.connection.send_bytes(data)

    def recv(self) -> Any:
        """The next message, with a doorbell resolved into its frame."""
        message = self.connection.recv()
        if type(message) is int:
            if self.recv_ring is None:
                raise OSError("ring doorbell without an attached ring")
            message = pickle.loads(
                self.recv_ring.read_frame(message, timeout_s=RING_READ_BACKSTOP_S)
            )
        return message

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether :meth:`recv` would find something within ``timeout``."""
        return self.connection.poll(timeout)

    def close(self) -> None:
        """Close the connection; close and (owner side) unlink the rings.

        Idempotent, and part of every unwind path so no ``/dev/shm``
        segment outlives its incarnation.
        """
        try:
            self.connection.close()
        except OSError:  # pragma: no cover - already closed
            pass
        for ring in (self.send_ring, self.recv_ring):
            if ring is not None:
                ring.close()
                ring.unlink()
