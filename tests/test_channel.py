"""Tests for the wire layer: the shared frame and :class:`Channel`.

The frame half pins the one reader every framed carrier uses (sequence
and CRC verdicts raised as the carrier's own error type, payloads
reassembled from bounded reads).  The channel half pins what the
executor and the shard worker rely on without ever seeing it: a bulky message rides the ring behind a doorbell that is not
a protocol message, everything else stays inline, each message is
pickled once, and ``close`` leaves no ``/dev/shm`` segment behind.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.parallel.channel import (
    FRAME,
    READ_CHUNK_BYTES,
    Channel,
    frame_header,
    read_frame,
)
from repro.parallel.shm import MIN_RING_BYTES, RingAborted, ShmRing


def _reader(data):
    """``read(n)`` over a byte string, recording the sizes asked for."""
    asked = []
    at = 0

    def read(n):
        nonlocal at
        asked.append(n)
        if at + n > len(data):
            raise EOFError("short")
        at += n
        return data[at - n : at]

    return read, asked


class Torn(OSError):
    pass


def test_frame_roundtrip_and_empty_payload():
    for seq, payload in ((1, b"alpha"), (2, b"")):
        read, _ = _reader(frame_header(seq, payload) + payload)
        assert read_frame(read, seq, Torn) == payload


def test_frame_reader_raises_the_carriers_error_type():
    payload = b"payload-bytes"
    read, _ = _reader(frame_header(3, payload) + payload)
    with pytest.raises(Torn, match="sequence 3 != expected 4"):
        read_frame(read, 4, Torn)
    tampered = bytes([payload[0] ^ 0xFF]) + payload[1:]
    read, _ = _reader(frame_header(3, payload) + tampered)
    with pytest.raises(Torn, match="frame 3 failed its CRC"):
        read_frame(read, 3, Torn)


def test_frame_reader_never_asks_for_more_than_a_chunk():
    payload = bytes(range(251)) * ((2 * READ_CHUNK_BYTES + 5) // 251 + 1)
    read, asked = _reader(frame_header(1, payload) + payload)
    assert read_frame(read, 1, Torn) == payload
    assert asked[0] == FRAME.size
    assert max(asked) <= READ_CHUNK_BYTES
    assert sum(asked[1:]) == len(payload)


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------


def _segments():
    return {n for n in os.listdir("/dev/shm") if n.startswith("repro-ring")}


@pytest.fixture()
def pair():
    """A parent/worker channel pair over a pipe and two small rings."""
    before = _segments()
    left, right = multiprocessing.Pipe(duplex=True)
    out_ring, back_ring = ShmRing.create(4096), ShmRing.create(4096)
    parent = Channel(left, send_ring=out_ring, recv_ring=back_ring)
    worker = Channel(
        right,
        send_ring=ShmRing.attach(*back_ring.descriptor),
        recv_ring=ShmRing.attach(*out_ring.descriptor),
    )
    yield parent, worker
    worker.close()
    parent.close()
    assert _segments() == before, "a channel's close must unlink its rings"


def test_bulky_rides_the_ring_behind_a_private_doorbell(pair):
    parent, worker = pair
    parent.send(("batch", [1, 2, 3]), bulky=True)
    # What crossed the pipe is the frame's bare sequence number — not a
    # (tag, payload) protocol message.
    assert worker.connection.recv() == 1
    assert pickle.loads(worker.recv_ring.read_frame(1)) == ("batch", [1, 2, 3])


def test_recv_resolves_doorbells_in_pipe_order(pair):
    parent, worker = pair
    parent.send(("batch", "first"), bulky=True)
    parent.send(("ping", 7))
    parent.send(("batch", "second"), bulky=True)
    assert worker.poll(1.0)
    assert [worker.recv() for _ in range(3)] == [
        ("batch", "first"), ("ping", 7), ("batch", "second"),
    ]
    worker.send(("ok", "outcome"), bulky=True)
    assert parent.recv() == ("ok", "outcome")


def test_small_oversized_and_ringless_messages_stay_inline(pair):
    parent, worker = pair
    parent.send(("ping", 1))  # not bulky
    parent.send(("batch", b"x" * 8192), bulky=True)  # can never fit 4 KiB
    assert worker.connection.recv() == ("ping", 1)
    assert worker.connection.recv() == ("batch", b"x" * 8192)
    left, right = multiprocessing.Pipe(duplex=True)
    plain, peer = Channel(left), Channel(right)
    try:
        plain.send(("batch", "no ring armed"), bulky=True)
        assert peer.recv() == ("batch", "no ring armed")
    finally:
        plain.close()
        peer.close()


def test_doorbell_without_a_ring_is_an_oserror():
    left, right = multiprocessing.Pipe(duplex=True)
    sender, receiver = Channel(left), Channel(right)
    try:
        left.send(5)
        with pytest.raises(OSError, match="doorbell"):
            receiver.recv()
    finally:
        sender.close()
        receiver.close()


class _CountsPickling:
    pickled = 0

    def __reduce__(self):
        type(self).pickled += 1
        return (_CountsPickling, ())


def test_each_message_is_pickled_once_on_either_route(pair):
    parent, worker = pair
    _CountsPickling.pickled = 0
    parent.send(("batch", _CountsPickling()), bulky=True)
    parent.send(("batch", _CountsPickling()))
    assert _CountsPickling.pickled == 2
    worker.recv(), worker.recv()


def test_ring_write_hook_sits_between_pickling_and_the_write(pair):
    parent, worker = pair
    seen = []

    def hook(ring, frame):
        # The frame is final, and nothing has been published yet.
        seen.append((ring is parent.send_ring, pickle.loads(frame)))
        assert ring._peer_write_pos() == 0

    parent.on_ring_write = hook
    parent.send(("ping", 1))  # inline: the hook counts ring writes only
    parent.send(("state", ["s"]), bulky=True)
    assert seen == [(True, ("state", ["s"]))]
    assert [worker.recv(), worker.recv()] == [("ping", 1), ("state", ["s"])]


def test_full_ring_write_aborts_when_the_peer_is_dead():
    left, right = multiprocessing.Pipe(duplex=True)
    ring = ShmRing.create(MIN_RING_BYTES)
    channel = Channel(left, send_ring=ring, peer_dead=lambda: True)
    try:
        channel.send(b"x" * 8, bulky=True)  # fits; nobody ever reads it
        with pytest.raises(RingAborted) as excinfo:
            channel.send(b"y" * 8, bulky=True)
        assert isinstance(excinfo.value, OSError)
    finally:
        channel.close()
        channel.close()  # idempotent
        right.close()
    assert ring.name not in _segments()
