"""Tests for pipelined asynchronous ingestion (ISSUE 9).

The load-bearing property is *feed transparency*: driving a
:class:`PartitionedPipeline` through a :class:`PipelinedIngest` feeder
thread produces the byte-identical canonical result sequence and summed
``JoinStatistics`` of the synchronous drive — for any chunking, any
executor, with credit windows armed, and across flush/close/migration
barriers landing mid-feed.  A hypothesis op-sequence layer drives
random submit/drain/flush interleavings against the synchronous
reference; a stub-pipeline layer pins the concurrency contract itself
(bounded-queue backpressure, error propagation, close-during-feed)
without multiprocessing in the loop.
"""

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    PartitionedPipeline,
    PipelinedIngest,
    TRANSPORT_SHM,
    equi_join_chain,
    run_partitioned,
    seconds,
)
from repro.workloads import fixed_k_config, interleaved_dataset
from repro.workloads.soak import canonical_results

# ---------------------------------------------------------------------------
# shared workload
# ---------------------------------------------------------------------------


def _lossless_config(dataset):
    return fixed_k_config(
        dataset.max_delay(), [seconds(1)] * 3, equi_join_chain("a1", 3), True
    )


@pytest.fixture(scope="module")
def dataset():
    return interleaved_dataset("ingest-11", 900, 9, 300, 48, 11, zipf=1.1)


@pytest.fixture(scope="module")
def reference(dataset):
    outputs, _ = run_partitioned(
        dataset, _lossless_config(dataset), 2, executor="serial",
        chunk_size=64,
    )
    return canonical_results(outputs)


# ---------------------------------------------------------------------------
# feed transparency: pipelined == synchronous, all executors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(executor="serial"),
        dict(executor="process"),
        dict(executor="process", transport=TRANSPORT_SHM),
        dict(executor="process", transport=TRANSPORT_SHM, credit_window=2),
    ],
    ids=["serial", "process-pipe", "process-shm", "process-shm-credit"],
)
def test_pipelined_matches_synchronous(dataset, reference, kwargs):
    outputs, _ = run_partitioned(
        dataset, _lossless_config(dataset), 2, chunk_size=64,
        pipelined=True, **kwargs,
    )
    assert canonical_results(outputs) == reference


def test_pipelined_identity_at_shard_counts(dataset, reference):
    for shards in (1, 2, 4):
        outputs, _ = run_partitioned(
            dataset, _lossless_config(dataset), shards, chunk_size=64,
            pipelined=True, executor="process", transport=TRANSPORT_SHM,
            credit_window=2,
        )
        assert canonical_results(outputs) == reference, f"shards={shards}"


def test_single_slot_queue_and_credit_starvation(dataset, reference):
    """The tightest bounds everywhere — one queue slot, one credit —
    still drain the full stream (backpressure, never deadlock/loss)."""
    outputs, _ = run_partitioned(
        dataset, _lossless_config(dataset), 2, chunk_size=64,
        pipelined=True, max_pending_batches=1,
        executor="process", transport=TRANSPORT_SHM, credit_window=1,
    )
    assert canonical_results(outputs) == reference


def test_migration_barrier_during_feed(dataset, reference):
    """Rebalance barriers run on the feeder thread between batches —
    identity holds with migrations landing mid-feed."""
    pipeline = PartitionedPipeline(
        _lossless_config(dataset), 2, executor="process",
        transport=TRANSPORT_SHM, rebalance=True, rebalance_interval=256,
        slots_per_shard=4, rebalance_threshold=1.05,
    )
    chunk, outputs = [], []
    with pipeline:
        with PipelinedIngest(pipeline) as feeder:
            for t in dataset.arrivals():
                chunk.append(t)
                if len(chunk) >= 64:
                    feeder.submit(chunk)
                    chunk = []
            if chunk:
                feeder.submit(chunk)
            outputs = feeder.flush()
    assert pipeline.rebalances >= 1, "no migration happened; tune the test"
    assert canonical_results(outputs) == reference


# ---------------------------------------------------------------------------
# hypothesis: random op sequences against the synchronous reference
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    chunking=st.lists(st.integers(min_value=1, max_value=97), min_size=1,
                      max_size=8),
    drains=st.sets(st.integers(min_value=0, max_value=7)),
    pending=st.integers(min_value=1, max_value=4),
)
def test_op_sequences_preserve_identity(chunking, drains, pending):
    """Any submit-size schedule with drains sprinkled between submits
    yields the synchronous outputs (serial executor: cheap, exact)."""
    dataset = interleaved_dataset("ingest-13", 240, 9, 300, 48, 13, zipf=1.1)
    config = _lossless_config(dataset)
    ref, _ = run_partitioned(dataset, config, 2, executor="serial")
    pipeline = PartitionedPipeline(_lossless_config(dataset), 2)
    tuples = list(dataset.arrivals())
    outputs = []
    with pipeline:
        with PipelinedIngest(pipeline, max_pending_batches=pending) as feeder:
            i = 0
            step = 0
            while i < len(tuples):
                size = chunking[step % len(chunking)]
                feeder.submit(tuples[i : i + size])
                i += size
                if step in drains:
                    feeder.drain()
                step += 1
            outputs = feeder.flush()
    assert canonical_results(outputs) == canonical_results(ref)


# ---------------------------------------------------------------------------
# concurrency contract, pinned on a stub pipeline (no multiprocessing)
# ---------------------------------------------------------------------------


class _StubConfig:
    collect_results = True


class _StubPipeline:
    """Just enough PartitionedPipeline surface for PipelinedIngest,
    with hooks to block or fail the feed deterministically."""

    def __init__(self, block_event=None, fail_on=None):
        self.config = _StubConfig()
        self.batches = []
        self.flushed = False
        self.closed = False
        self._block_event = block_event
        self._fail_on = fail_on

    def process_batch(self, batch):
        if self._block_event is not None:
            assert self._block_event.wait(timeout=10.0)
        if self._fail_on is not None and len(self.batches) + 1 == self._fail_on:
            raise ValueError("poisoned batch")
        self.batches.append(list(batch))
        return []

    def flush(self):
        self.flushed = True
        return []

    def close(self):
        self.closed = True


def test_submit_blocks_when_queue_is_full():
    gate = threading.Event()
    stub = _StubPipeline(block_event=gate)
    feeder = PipelinedIngest(stub, max_pending_batches=1)
    try:
        feeder.submit([1])  # consumed immediately, blocks in the stub
        feeder.submit([2])  # fills the single queue slot
        blocked_at = []

        def producer():
            feeder.submit([3])  # must block until the gate opens
            blocked_at.append(time.perf_counter())

        thread = threading.Thread(target=producer)
        thread.start()
        thread.join(timeout=0.2)
        assert thread.is_alive(), "submit returned despite a full queue"
        opened_at = time.perf_counter()
        gate.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert blocked_at[0] >= opened_at
        feeder.drain()
        assert stub.batches == [[1], [2], [3]]
    finally:
        gate.set()
        feeder.close()
    assert stub.closed


def test_feeder_error_propagates_and_keeps_draining():
    stub = _StubPipeline(fail_on=2)
    feeder = PipelinedIngest(stub, max_pending_batches=1)
    feeder.submit([1])
    feeder.submit([2])  # poisoned inside the feeder
    # The queue keeps draining after the failure, so these cannot
    # deadlock; one of them (or drain) surfaces the stored error.
    with pytest.raises(RuntimeError, match="feeder thread") as excinfo:
        for i in range(3, 20):
            feeder.submit([i])
        feeder.drain()
    assert isinstance(excinfo.value.__cause__, ValueError)
    with pytest.raises(RuntimeError, match="feeder thread"):
        feeder.flush()
    feeder.close()
    assert stub.batches == [[1]]  # nothing past the poison was fed


def test_close_during_feed_stops_cleanly():
    stub = _StubPipeline()
    feeder = PipelinedIngest(stub, max_pending_batches=2)
    feeder.submit([1])
    feeder.submit([2])
    feeder.close()
    assert stub.closed
    assert not stub.flushed
    with pytest.raises(RuntimeError, match="flushed/closed"):
        feeder.submit([3])
    feeder.close()  # idempotent


def test_flush_then_submit_raises_and_flush_reports_feed_order():
    stub = _StubPipeline()
    feeder = PipelinedIngest(stub)
    for i in range(5):
        feeder.submit([i])
    feeder.flush()
    assert stub.flushed
    assert stub.batches == [[0], [1], [2], [3], [4]]
    with pytest.raises(RuntimeError, match="flushed/closed"):
        feeder.submit([5])
    feeder.close()


def test_rejects_nonpositive_queue_bound():
    with pytest.raises(ValueError, match="max_pending_batches"):
        PipelinedIngest(_StubPipeline(), max_pending_batches=0)
