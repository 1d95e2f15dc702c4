"""Tests for the shared-memory ring transport (ISSUE 9).

Two layers.  The :class:`ShmRing` unit/property layer pins the SPSC
frame protocol itself: roundtrips across physical wraparound, sequence
and CRC verification, torn writes staying invisible until publication,
bounded-time timeouts and peer-death aborts, and idempotent lifecycle.
The integration layer proves the load-bearing property of
``transport="shm"``: the canonical result sequence and summed
``JoinStatistics`` are byte-identical to the pipe transports at shards
1/2/4, over both window stores, static and rebalanced — the ring is a
pure carrier, invisible in every observable.  An autouse fixture scans
``/dev/shm`` around every test: no segment may outlive its test on any
path.
"""

import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    TRANSPORT_BLOCKS,
    TRANSPORT_SHM,
    TieredStoreConfig,
    equi_join_chain,
    run_partitioned,
    seconds,
)
from repro.parallel.shm import (
    MIN_RING_BYTES,
    RingAborted,
    RingIntegrityError,
    RingTimeout,
    ShmRing,
)
from repro.workloads import fixed_k_config, interleaved_dataset
from repro.workloads.soak import canonical_results

# ---------------------------------------------------------------------------
# leak guard: every test must retire its segments on every path
# ---------------------------------------------------------------------------


def _ring_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro-ring")}
    except FileNotFoundError:  # non-tmpfs platform: nothing to scan
        return set()


@pytest.fixture(autouse=True)
def no_ring_leaks():
    before = _ring_segments()
    yield
    leaked = _ring_segments() - before
    assert not leaked, f"shared-memory segments leaked: {sorted(leaked)}"


# ---------------------------------------------------------------------------
# ShmRing unit tests
# ---------------------------------------------------------------------------


@pytest.fixture()
def ring():
    r = ShmRing.create(MIN_RING_BYTES)
    yield r
    r.close()
    r.unlink()


def test_roundtrip_preserves_bytes_and_sequences(ring):
    assert ring.write_frame(b"alpha") == 1
    assert ring.write_frame(b"") == 2
    assert ring.read_frame(1) == b"alpha"
    assert ring.read_frame(2) == b""


def test_wraparound_split_frames_survive(ring):
    # MIN_RING_BYTES capacity with 16-byte frame headers: every few
    # frames one straddles the physical end of the segment.
    payloads = [bytes([i]) * (7 + (i * 11) % 37) for i in range(64)]
    for i, payload in enumerate(payloads):
        ring.write_frame(payload)
        assert ring.read_frame(i + 1) == payload


def test_fits_is_exact_and_oversized_write_raises(ring):
    largest = MIN_RING_BYTES - 16  # capacity minus the frame header
    assert ring.fits(largest)
    assert not ring.fits(largest + 1)
    with pytest.raises(ValueError, match="exceeds ring capacity"):
        ring.write_frame(b"x" * (largest + 1))
    ring.write_frame(b"x" * largest)
    assert ring.read_frame(1) == b"x" * largest


def test_sequence_mismatch_is_an_integrity_error(ring):
    ring.write_frame(b"frame")
    with pytest.raises(RingIntegrityError, match="sequence 1 != expected 7"):
        ring.read_frame(7)


def test_corrupted_payload_fails_crc(ring):
    ring.write_frame(b"payload-bytes")
    # Flip one payload byte behind the producer's back: header is 16
    # bytes of cursors, then the 16-byte frame header, then payload.
    ring._shm.buf[16 + 16] ^= 0xFF
    with pytest.raises(RingIntegrityError, match="CRC"):
        ring.read_frame(1)


def test_torn_write_is_invisible_until_published(ring):
    # A producer dying mid-copy leaves header+half-payload but no cursor
    # advance: the consumer sees an empty ring, and the next *complete*
    # write overwrites the wreckage.
    ring.torn_write(b"doomed-payload")
    with pytest.raises(RingTimeout):
        ring.read_frame(1, timeout_s=0.05)
    ring.write_frame(b"good")
    assert ring.read_frame(1) == b"good"


def test_empty_read_times_out_and_full_write_times_out(ring):
    with pytest.raises(RingTimeout, match="frame 1"):
        ring.read_frame(1, timeout_s=0.05)
    ring.write_frame(b"y" * (MIN_RING_BYTES - 16))  # ring now full
    with pytest.raises(RingTimeout, match="free ring space"):
        ring.write_frame(b"z", timeout_s=0.05)


def test_should_abort_surfaces_as_ring_aborted(ring):
    with pytest.raises(RingAborted, match="peer died"):
        ring.read_frame(1, should_abort=lambda: True)
    ring.write_frame(b"y" * (MIN_RING_BYTES - 16))
    with pytest.raises(RingAborted):
        ring.write_frame(b"z", should_abort=lambda: True)


def test_lifecycle_is_idempotent_and_attach_validates_size():
    ring = ShmRing.create(MIN_RING_BYTES)
    peer = ShmRing.attach(*ring.descriptor)
    with pytest.raises(ValueError, match="ring needs"):
        ShmRing.attach(ring.name, MIN_RING_BYTES * 64)
    peer.close()
    peer.close()  # idempotent
    peer.unlink()  # non-owner: must be a no-op, not an unlink
    assert ring.name in _ring_segments()
    ring.close()
    ring.unlink()
    ring.unlink()  # idempotent
    assert ring.name not in _ring_segments()


def test_create_rejects_sub_minimum_capacity():
    with pytest.raises(ValueError, match="capacity must be >="):
        ShmRing.create(MIN_RING_BYTES - 1)


def test_attach_side_writes_are_visible_to_creator():
    ring = ShmRing.create(MIN_RING_BYTES)
    try:
        peer = ShmRing.attach(*ring.descriptor)
        try:
            peer.write_frame(b"from-the-peer")
            assert ring.read_frame(1) == b"from-the-peer"
        finally:
            peer.close()
    finally:
        ring.close()
        ring.unlink()


@settings(max_examples=25, deadline=None)
@given(
    payloads=st.lists(
        st.binary(min_size=0, max_size=MIN_RING_BYTES - 16),
        min_size=1,
        max_size=30,
    )
)
def test_spsc_stream_is_lossless_across_wraparound(payloads):
    """Property: a concurrent producer/consumer pair moves any frame
    sequence through a minimum-size ring byte-for-byte, in order."""
    ring = ShmRing.create(MIN_RING_BYTES)
    peer = ShmRing.attach(*ring.descriptor)
    received = []
    try:
        def consume():
            for i in range(len(payloads)):
                received.append(peer.read_frame(i + 1, timeout_s=10.0))

        consumer = threading.Thread(target=consume)
        consumer.start()
        for payload in payloads:
            ring.write_frame(payload, timeout_s=10.0)
        consumer.join(timeout=10.0)
        assert not consumer.is_alive()
        assert received == payloads
    finally:
        peer.close()
        ring.close()
        ring.unlink()


# ---------------------------------------------------------------------------
# transport identity: shm vs pipe, shards x stores, static + rebalanced
# ---------------------------------------------------------------------------


def _lossless_config(dataset, store=None):
    return fixed_k_config(
        dataset.max_delay(), [seconds(1)] * 3, equi_join_chain("a1", 3), True,
        store,
    )


@pytest.fixture(scope="module")
def dataset():
    return interleaved_dataset("shm-7", 900, 9, 300, 48, 7, zipf=1.1)


@pytest.fixture(scope="module")
def pipe_reference(dataset):
    """Block-transport process run per store — the identity baseline."""
    cache = {}

    def _get(store=None):
        key = "tiered" if store is not None else "memory"
        if key not in cache:
            config = _lossless_config(dataset, _store(store))
            outputs, _ = run_partitioned(
                dataset, config, 2, executor="process",
                transport=TRANSPORT_BLOCKS, chunk_size=64,
            )
            cache[key] = canonical_results(outputs)
        return cache[key]

    return _get


def _store(kind):
    return TieredStoreConfig(hot_budget=64) if kind == "tiered" else None


@pytest.mark.parametrize("store", [None, "tiered"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_shm_matches_pipe_across_shards_and_stores(
    dataset, pipe_reference, shards, store
):
    ref = pipe_reference(store)
    outputs, _ = run_partitioned(
        dataset, _lossless_config(dataset, _store(store)), shards,
        executor="process", transport=TRANSPORT_SHM, chunk_size=64,
    )
    assert canonical_results(outputs) == ref


def test_shm_identity_survives_rebalancing(dataset, pipe_reference):
    outputs, _ = run_partitioned(
        dataset, _lossless_config(dataset), 2,
        executor="process", transport=TRANSPORT_SHM, chunk_size=64,
        rebalance=True, rebalance_interval=256, slots_per_shard=4,
        rebalance_threshold=1.05,
    )
    assert canonical_results(outputs) == pipe_reference(None)


def test_shm_identity_with_credit_window(dataset, pipe_reference):
    outputs, _ = run_partitioned(
        dataset, _lossless_config(dataset), 2,
        executor="process", transport=TRANSPORT_SHM, chunk_size=64,
        credit_window=1,
    )
    assert canonical_results(outputs) == pipe_reference(None)


def test_oversized_frames_fall_back_to_the_pipe(dataset, pipe_reference):
    # A ring too small for any realistic batch frame: every bulky
    # message takes the pipe fallback; outputs must not change.
    outputs, _ = run_partitioned(
        dataset, _lossless_config(dataset), 2,
        executor="process", transport=TRANSPORT_SHM, chunk_size=64,
        ring_bytes=MIN_RING_BYTES,
    )
    assert canonical_results(outputs) == pipe_reference(None)
