"""Tests for fault-tolerant shard execution (ISSUE 8).

The load-bearing property is *recovery transparency*: under lossless
disorder handling, a supervised run disturbed by worker crashes,
SIGKILLs, hangs, corrupted checkpoints or migration-barrier crashes
recovers to the byte-identical canonical result sequence and summed
``JoinStatistics`` of an undisturbed run — proven at shards 1/2/4, on
both transports, over both window stores.  Around it: hang *detection*
(typed :class:`ShardFailure` within the heartbeat timeout instead of a
deadlock), respawn-budget exhaustion failing the dead shard's slots
over to survivors, and the process executor with supervision not armed
surfacing dead workers as typed errors in ``submit``/``finish``/``close``.
"""

import time
from dataclasses import replace

import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    PartitionedPipeline,
    ProcessExecutor,
    ShardFailure,
    SupervisionConfig,
    TRANSPORT_BLOCKS,
    TRANSPORT_SHM,
    TieredStoreConfig,
    chaos_plan,
    equi_join_chain,
    replay,
    seconds,
)
from repro.core.blocks import ColdSegment, decode_state, unframe_checkpoint
from repro.faults import (
    FAULT_KINDS,
    KIND_CORRUPT_CHECKPOINT,
    KIND_CRASH_AFTER_BATCH,
    KIND_CRASH_BEFORE_BATCH,
    KIND_CRASH_MID_RING_WRITE,
    KIND_CRASH_ON_MIGRATE,
    KIND_HANG_BEFORE_BATCH,
    KIND_SIGKILL_BEFORE_BATCH,
    KIND_SLOW_RECV,
    KIND_STALL_RECV,
)
from repro.parallel.shard import (
    CheckpointRequest,
    FailoverState,
    checkpoint_shard_state,
)
from repro.workloads import fixed_k_config, interleaved_dataset
from repro.workloads.soak import canonical_results

# ---------------------------------------------------------------------------
# shared workload: small, skewed, disordered, lossless-recoverable
# ---------------------------------------------------------------------------


def _lossless_config(dataset, store=None):
    return fixed_k_config(
        dataset.max_delay(), [seconds(1)] * 3, equi_join_chain("a1", 3), True,
        store,
    )


def _drive(dataset, config, shards, **kwargs):
    """Feed per-tuple, flush; return (canonical seq, stats, pipeline).

    A count-only config (``collect_results=False``) yields the result
    *count* in place of the canonical sequence.
    """
    pipeline = PartitionedPipeline(config, shards, **kwargs)
    with pipeline:
        outputs = replay(pipeline, dataset.arrivals())
        stats = pipeline.join_statistics()
    if config.collect_results:
        outputs = canonical_results(outputs)
    return outputs, stats, pipeline


SUP = SupervisionConfig(
    heartbeat_interval=4,
    heartbeat_timeout_s=5.0,
    checkpoint_interval=8,
    max_respawns=4,
    backoff_base_s=0.01,
)


@pytest.fixture(scope="module")
def dataset():
    """Three interleaved streams with a Zipf join key and bounded delays."""
    return interleaved_dataset("sup-5", 1_200, 9, 300, 48, 5, zipf=1.1)


@pytest.fixture(scope="module")
def reference(dataset):
    """Serial single-shard canonical sequence + stats, per store."""
    cache = {}

    def _get(store=None):
        key = "tiered" if store is not None else "memory"
        if key not in cache:
            cache[key] = _drive(
                dataset, _lossless_config(dataset, store), 1
            )[:2]
        return cache[key]

    return _get


# ---------------------------------------------------------------------------
# recovery identity matrix: shards x transport x store
# ---------------------------------------------------------------------------


def _crash_plan(shards):
    """One crash and one SIGKILL, on distinct shards when possible."""
    return FaultPlan((
        FaultSpec(0, KIND_CRASH_AFTER_BATCH, at=3),
        FaultSpec(1 % shards, KIND_SIGKILL_BEFORE_BATCH, at=6),
    ))


@pytest.mark.parametrize("transport", [TRANSPORT_BLOCKS, TRANSPORT_SHM])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_crash_recovery_is_byte_identical(dataset, reference, shards,
                                          transport):
    ref_seq, ref_stats = reference()
    seq, stats, pipeline = _drive(
        dataset, _lossless_config(dataset), shards,
        executor="supervised", batch_size=16, transport=transport,
        supervision=SUP, fault_plan=_crash_plan(shards),
    )
    assert pipeline.executor.respawns >= 1, "fault plan never fired"
    assert seq == ref_seq
    assert stats == ref_stats


@pytest.mark.parametrize("shards", [2, 4])
def test_crash_recovery_identical_on_tiered_store(dataset, reference, shards):
    store = TieredStoreConfig(hot_budget=64)
    ref_seq, ref_stats = reference(store)
    seq, stats, pipeline = _drive(
        dataset, _lossless_config(dataset, store), shards,
        executor="supervised", batch_size=16,
        supervision=SUP, fault_plan=_crash_plan(shards),
    )
    assert pipeline.executor.respawns >= 1
    assert seq == ref_seq
    assert stats == ref_stats


def test_clean_supervised_run_checkpoints_and_matches(dataset, reference):
    ref_seq, ref_stats = reference()
    seq, stats, pipeline = _drive(
        dataset, _lossless_config(dataset), 2,
        executor="supervised", batch_size=16, supervision=SUP,
    )
    executor = pipeline.executor
    assert executor.respawns == 0
    assert executor.checkpoints_taken >= 1
    assert seq == ref_seq
    assert stats == ref_stats


def _interval_load(dataset, router, shard, width_ms):
    """Per stream: the most tuples ``shard`` is routed inside any
    ``width_ms``-wide timestamp span — what one of its window stores can
    gain between two state-size samples taken ``width_ms`` apart."""
    loads = []
    for stream in range(router.num_streams):
        stamps = sorted(
            t.ts for t in dataset.arrivals()
            if t.stream == stream and router.shard_of(t) == shard
        )
        best = low = 0
        for high, ts in enumerate(stamps):
            while stamps[low] <= ts - width_ms:
                low += 1
            best = max(best, high - low + 1)
        loads.append(best)
    return loads


@pytest.mark.parametrize("interval_ms", [1_000, 250])
def test_recovered_run_accounts_like_a_clean_run(dataset, interval_ms):
    """A respawn continues its shard's metrics; it is not one more shard.

    Incarnations of a shard are sequential: counters add, sampled peaks
    take the max, the K trajectory continues.  Merging them like
    concurrent shards would sum the peaks (+45 % resident objects on
    this run) and average a third K trajectory into "Avg. K".

    The record is one: the fields that are exact at any instant
    (``stream_evicted``, the ``join`` counters) are refreshed by every
    capture, so the checkpoint the respawn continues from holds them as
    of the checkpoint — not as of the last adaptation boundary before it
    — and the recovered totals equal the clean run's.  So does
    ``adaptations`` on this run: the respawned incarnation anchors its
    adaptation clock at its first replayed tuple instead of re-running
    every boundary since application time 0.

    The peak bound: state sizes are sampled at adaptation boundaries.  A
    recovered shard samples on the clean run's grid, except around the
    restore point: its clock is re-anchored there, not restored, so a
    late first replayed tuple can sample the boundary just before the
    checkpoint once more — at a state the clean run passes through
    *between* two of its samples; a store can exceed the earlier of
    them there by at most what it was handed in one interval.  So per
    stream: recovered <= clean + the respawned shard's one-interval
    load.  At the 1 s interval that load is about a whole 1 s window,
    which the summed peaks happen to fit under; at 250 ms it is a
    quarter of one and they exceed it 2x over.
    """
    config = replace(_lossless_config(dataset), interval_ms=interval_ms)
    plan = FaultPlan((
        FaultSpec(0, KIND_CRASH_BEFORE_BATCH, at=30),
        FaultSpec(1, KIND_CRASH_BEFORE_BATCH, at=45),  # past its last batch
    ))
    options = dict(executor="process", batch_size=16, supervision=SUP)
    clean_seq, clean_stats, clean = _drive(dataset, config, 2, **options)
    seq, stats, recovered = _drive(
        dataset, config, 2, fault_plan=plan, **options
    )
    assert clean.executor.respawns == 0
    assert recovered.executor.respawns == 1
    assert (seq, stats) == (clean_seq, clean_stats)
    ours, theirs = recovered.metrics, clean.metrics
    assert len(ours.shard_k_histories) == len(theirs.shard_k_histories) == 2
    assert ours.k_history == theirs.k_history
    assert ours.average_k_ms() == theirs.average_k_ms()
    for counter in (
        "tuples_processed", "results_produced",
        "latency_sum_ms", "latency_count", "latency_max_ms",
        "stream_evicted", "join", "adaptations",
    ):
        assert getattr(ours, counter) == getattr(theirs, counter), counter
    assert ours.join == stats
    step = _interval_load(dataset, recovered.router, 0, interval_ms)
    for peaks in ("stream_resident_objects", "stream_hot_objects"):
        for stream, peak in enumerate(getattr(ours, peaks)):
            assert peak <= getattr(theirs, peaks)[stream] + step[stream], peaks


# ---------------------------------------------------------------------------
# hang detection
# ---------------------------------------------------------------------------


def test_hang_is_detected_and_recovered(dataset, reference):
    ref_seq, ref_stats = reference()
    sup = SupervisionConfig(
        heartbeat_interval=4, heartbeat_timeout_s=1.0,
        checkpoint_interval=8, max_respawns=4, backoff_base_s=0.01,
    )
    plan = FaultPlan(
        (FaultSpec(0, KIND_HANG_BEFORE_BATCH, at=4, param=60.0),)
    )
    seq, stats, pipeline = _drive(
        dataset, _lossless_config(dataset), 2,
        executor="supervised", batch_size=16,
        supervision=sup, fault_plan=plan,
    )
    assert pipeline.executor.respawns >= 1
    assert seq == ref_seq
    assert stats == ref_stats


def test_hang_without_recovery_raises_within_timeout(dataset):
    sup = SupervisionConfig(
        heartbeat_interval=4, heartbeat_timeout_s=1.0,
        checkpoint_interval=8, recover=False,
    )
    plan = FaultPlan(
        (FaultSpec(0, KIND_HANG_BEFORE_BATCH, at=3, param=60.0),)
    )
    pipeline = PartitionedPipeline(
        _lossless_config(dataset), 2,
        executor="supervised", batch_size=16,
        supervision=sup, fault_plan=plan,
    )
    started = time.perf_counter()
    with pipeline:
        with pytest.raises(ShardFailure, match="shard 0") as excinfo:
            replay(pipeline, dataset.arrivals())
    elapsed = time.perf_counter() - started
    assert excinfo.value.shard == 0
    assert "unresponsive" in str(excinfo.value)
    # Detection is bounded by the heartbeat timeout, not the hang: the
    # worker sleeps 60s, the parent gives up after ~1s of silence.
    assert elapsed < 30.0


def test_crash_without_recovery_raises_typed_failure(dataset):
    sup = SupervisionConfig(
        heartbeat_interval=4, heartbeat_timeout_s=2.0,
        checkpoint_interval=8, recover=False,
    )
    plan = FaultPlan((FaultSpec(0, KIND_CRASH_BEFORE_BATCH, at=3),))
    pipeline = PartitionedPipeline(
        _lossless_config(dataset), 2,
        executor="supervised", batch_size=16,
        supervision=sup, fault_plan=plan,
    )
    with pipeline:
        with pytest.raises(ShardFailure, match="shard 0"):
            replay(pipeline, dataset.arrivals())


# ---------------------------------------------------------------------------
# corrupted checkpoints
# ---------------------------------------------------------------------------


def test_corrupt_checkpoint_rejected_then_recovered(dataset, reference):
    ref_seq, ref_stats = reference()
    plan = FaultPlan((FaultSpec(0, KIND_CORRUPT_CHECKPOINT, at=1),))
    seq, stats, pipeline = _drive(
        dataset, _lossless_config(dataset), 2,
        executor="supervised", batch_size=16,
        supervision=SUP, fault_plan=plan,
    )
    executor = pipeline.executor
    assert executor.checkpoints_rejected >= 1
    assert executor.respawns >= 1
    assert seq == ref_seq
    assert stats == ref_stats


# ---------------------------------------------------------------------------
# shared-memory transport faults (ISSUE 9)
# ---------------------------------------------------------------------------


def test_crash_mid_ring_write_replays_byte_identical(dataset, reference):
    """A worker dying *inside* a reply-ring write leaves a torn frame
    with an unpublished cursor: the parent must observe only a dead
    worker — never the torn bytes — and recovery must stay exact."""
    ref_seq, ref_stats = reference()
    plan = FaultPlan((FaultSpec(0, KIND_CRASH_MID_RING_WRITE, at=2),))
    seq, stats, pipeline = _drive(
        dataset, _lossless_config(dataset), 2,
        executor="supervised", batch_size=16, transport=TRANSPORT_SHM,
        supervision=SUP, fault_plan=plan,
    )
    assert pipeline.executor.respawns >= 1, "fault plan never fired"
    assert seq == ref_seq
    assert stats == ref_stats


def test_stall_recv_is_backpressure_not_a_failure(dataset, reference):
    """A worker freezing ring consumption long enough to exhaust a
    one-batch credit window must stall the feed — bounded, observable
    as elapsed time — and resume with byte-identical output and zero
    respawns; supervision must not mistake slowness for death."""
    ref_seq, ref_stats = reference()
    stall_s = 0.8
    plan = FaultPlan((FaultSpec(0, KIND_STALL_RECV, at=4, param=stall_s),))
    started = time.perf_counter()
    seq, stats, pipeline = _drive(
        dataset, _lossless_config(dataset), 2,
        executor="supervised", batch_size=16, transport=TRANSPORT_SHM,
        credit_window=1, supervision=SUP, fault_plan=plan,
    )
    elapsed = time.perf_counter() - started
    # The stalled shard stops granting credit, so the parent provably
    # waited out the stall (lower bound) without tripping supervision
    # or deadlocking (the run finished, upper bound enforced by the
    # suite completing at all).
    assert elapsed >= stall_s
    assert pipeline.executor.respawns == 0
    assert seq == ref_seq
    assert stats == ref_stats


# ---------------------------------------------------------------------------
# crash inside the migration barrier
# ---------------------------------------------------------------------------


def test_migration_crash_recovers_and_rebalances(dataset, reference):
    ref_seq, ref_stats = reference()
    rebalance_kwargs = dict(
        rebalance=True, rebalance_interval=256, slots_per_shard=4,
        rebalance_threshold=1.05,
    )
    plan = FaultPlan((
        FaultSpec(0, KIND_CRASH_ON_MIGRATE, at=1),
        FaultSpec(1, KIND_CRASH_ON_MIGRATE, at=1),
    ))
    seq, stats, pipeline = _drive(
        dataset, _lossless_config(dataset), 2,
        executor="supervised", batch_size=16,
        supervision=SUP, fault_plan=plan, **rebalance_kwargs,
    )
    assert pipeline.rebalances >= 1, "no migration happened; tune the test"
    assert pipeline.executor.respawns >= 1
    assert seq == ref_seq
    assert stats == ref_stats


# ---------------------------------------------------------------------------
# respawn-budget exhaustion -> failover to survivors
# ---------------------------------------------------------------------------


def _wide_k_config(dataset, store=None, collect=True):
    """Lossless config whose K covers the whole run's event span.

    Failover refeeds the dead shard's replay log to survivors whose
    event-time clocks have advanced past it; the refed tuples are only
    *not* stragglers when the disorder bound K absorbs the failover lag.
    A K spanning the run makes failover output-identical regardless of
    when the budget exhausts (the bounded-K degraded case is covered by
    ``test_budget_exhaustion_failover_degrades_gracefully``).
    """
    return fixed_k_config(
        20_000, [seconds(1)] * 3, equi_join_chain("a1", 3), collect, store
    )


def _failover_matches_single_shard(dataset, store, collect, at):
    """Crash shard 0 before every incarnation's ``at``-th batch until its
    budget is spent; the survivor must finish the run exactly (a
    count-only config compares counts)."""
    config = _wide_k_config(dataset, store, collect)
    ref_out, ref_stats = _drive(dataset, config, 1)[:2]
    sup = SupervisionConfig(
        heartbeat_interval=4, heartbeat_timeout_s=5.0,
        checkpoint_interval=8, max_respawns=2, backoff_base_s=0.01,
    )
    plan = FaultPlan(
        (FaultSpec(0, KIND_CRASH_BEFORE_BATCH, at=at, persistent=True),)
    )
    out, stats, pipeline = _drive(
        dataset, config, 2,
        executor="supervised", batch_size=16,
        supervision=sup, fault_plan=plan,
    )
    assert pipeline.executor.respawns == 2  # the full budget was spent
    assert pipeline.failovers == 1
    assert out == ref_out
    assert stats == ref_stats
    return pipeline


def test_budget_exhaustion_fails_over_to_survivor(dataset):
    """Dies before its first checkpoint: failover is all replay log."""
    _failover_matches_single_shard(dataset, store=None, collect=True, at=4)


# The cell above keeps its unparametrized id (this suite renames none);
# these are the store x collect_results cells, crashing *after* the
# first checkpoint (interval 8) so the failover carries a state block
# through the scratch pipeline, not only replay batches.
@pytest.mark.parametrize("collect", [True, False], ids=["collect", "count"])
@pytest.mark.parametrize(
    "store", [None, TieredStoreConfig(hot_budget=8)], ids=["memory", "tiered"]
)
def test_budget_exhaustion_fails_over_checkpointed_state(dataset, store, collect):
    pipeline = _failover_matches_single_shard(dataset, store, collect, at=12)
    assert pipeline.executor._shards[0].checkpoint is not None


def test_budget_exhaustion_failover_degrades_gracefully(dataset, reference):
    """Bounded K: failover keeps running and produces no bogus results.

    When the failover lag exceeds K, refed tuples are stragglers by the
    paper's own disorder semantics — results may be *lost*, never
    fabricated or duplicated, and the run completes instead of raising.
    """
    ref_seq, _ = reference()
    sup = SupervisionConfig(
        heartbeat_interval=4, heartbeat_timeout_s=5.0,
        checkpoint_interval=8, max_respawns=2, backoff_base_s=0.01,
    )
    plan = FaultPlan(
        (FaultSpec(0, KIND_CRASH_BEFORE_BATCH, at=4, persistent=True),)
    )
    seq, _, pipeline = _drive(
        dataset, _lossless_config(dataset), 2,
        executor="supervised", batch_size=16,
        supervision=sup, fault_plan=plan,
    )
    assert pipeline.failovers == 1
    reference_set = set(ref_seq)
    assert set(seq) <= reference_set  # subset: nothing fabricated
    assert len(seq) == len(set(seq))  # no duplicates either


def _tiered_shard_checkpoint(dataset, shards):
    """Run half the dataset through serial tiered shards; return the
    pipeline and shard 0's checkpoint block (frozen segments in it)."""
    store = TieredStoreConfig(hot_budget=8, bucket_span_ms=250)
    pipeline = PartitionedPipeline(_lossless_config(dataset, store), shards)
    for t in list(dataset.arrivals())[:600]:
        pipeline.process(t)
    frame, _ = checkpoint_shard_state(
        pipeline.executor.pipelines[0], 0, CheckpointRequest(0, 0)
    )
    block = unframe_checkpoint(frame)
    assert any(isinstance(item, ColdSegment) for item in block.window)
    return pipeline, block


def _segment_ids(window):
    return {
        (item.stream(), item.min_ts, item.max_ts, len(item))
        for item in window if isinstance(item, ColdSegment)
    }


@pytest.mark.parametrize("shards", [2, 3])
def test_failover_evacuates_through_the_migration_path(dataset, shards):
    """What failover ships is what the dead shard held, frozen where uniform.

    Drives ``_fail_over`` directly (serial shards, zero lag) with a
    checkpoint that holds cold segments — the process-level failover
    tests need a K wider than the run, under which windows stay empty.
    With one survivor every segment classifies uniformly and arrives
    still frozen; with two the mixed ones are thawed and split, and only
    the tuple count is conserved.
    """
    pipeline, block = _tiered_shard_checkpoint(dataset, shards)
    held_window, held_pending = decode_state(block)
    shipped = []
    adopt = pipeline.executor.adopt

    def recording_adopt(shard, state):
        shipped.append(state)
        return adopt(shard, state)

    pipeline.executor.adopt = recording_adopt
    pipeline._fail_over(ShardFailure(
        0, "respawn budget exhausted", recoverable=False,
        failover=FailoverState([block], []),
    ))
    assert pipeline.failovers == 1
    assert 0 not in pipeline.router.slot_table
    assert sorted(state.dest for state in shipped) == list(range(1, shards))
    windows, pendings = zip(*(decode_state(state) for state in shipped))

    def tuples(window):
        return sum(
            len(item) if isinstance(item, ColdSegment) else 1 for item in window
        )

    assert sum(map(tuples, windows)) == tuples(held_window)
    assert sum(map(len, pendings)) == len(held_pending)
    if shards == 2:
        assert _segment_ids(held_window) <= _segment_ids(windows[0])


def test_failover_refuses_state_no_survivor_owns(dataset):
    """Router drift is a failure, not a guess at a destination: shard
    1's state presented as dead shard 0's classifies to no survivor."""
    pipeline, _ = _tiered_shard_checkpoint(dataset, 2)
    frame, _ = checkpoint_shard_state(
        pipeline.executor.pipelines[1], 1, CheckpointRequest(0, 0)
    )
    drifted = FailoverState([unframe_checkpoint(frame)], [])
    with pytest.raises(ShardFailure, match="router drift") as raised:
        pipeline._fail_over(ShardFailure(
            0, "respawn budget exhausted", recoverable=False, failover=drifted,
        ))
    assert not raised.value.recoverable


def test_budget_exhaustion_single_shard_is_terminal(dataset):
    sup = SupervisionConfig(
        heartbeat_interval=4, heartbeat_timeout_s=5.0,
        checkpoint_interval=8, max_respawns=1, backoff_base_s=0.01,
    )
    plan = FaultPlan(
        (FaultSpec(0, KIND_CRASH_BEFORE_BATCH, at=3, persistent=True),)
    )
    pipeline = PartitionedPipeline(
        _lossless_config(dataset), 1,
        executor="supervised", batch_size=16,
        supervision=sup, fault_plan=plan,
    )
    with pipeline:
        with pytest.raises(ShardFailure, match="respawn budget exhausted"):
            replay(pipeline, dataset.arrivals())


# ---------------------------------------------------------------------------
# supervision not armed: dead workers surface as typed errors (no deadlock)
# ---------------------------------------------------------------------------


def _feed_some(pipeline, dataset, count):
    for i, t in enumerate(dataset.arrivals()):
        if i >= count:
            break
        pipeline.process(t)


def test_dead_worker_surfaces_in_finish(dataset):
    pipeline = PartitionedPipeline(
        _lossless_config(dataset), 2, executor="process", batch_size=16
    )
    with pipeline:
        _feed_some(pipeline, dataset, 64)
        victim = pipeline.executor._shards[0].process
        victim.kill()
        victim.join(10)
        with pytest.raises(ShardFailure, match="shard 0"):
            pipeline.flush()


def test_dead_worker_surfaces_in_submit(dataset):
    pipeline = PartitionedPipeline(
        _lossless_config(dataset), 2, executor="process", batch_size=16
    )
    with pipeline:
        victim = pipeline.executor._shards[0].process
        victim.kill()
        victim.join(10)
        with pytest.raises(ShardFailure, match="shard 0"):
            # Keep dispatching until the OS reports the peer gone; the
            # typed error must surface from the feed path, not hang.
            replay(pipeline, dataset.arrivals())


def test_close_unwinds_past_dead_worker(dataset):
    pipeline = PartitionedPipeline(
        _lossless_config(dataset), 3, executor="process", batch_size=16
    )
    executor = pipeline.executor
    _feed_some(pipeline, dataset, 48)
    workers = [state.process for state in executor._shards]
    workers[0].kill()
    workers[0].join(10)
    # MSG_ABORT to the dead shard 0 must not skip aborting + joining
    # shards 1 and 2.
    pipeline.close()
    assert all(not worker.is_alive() for worker in workers)


def test_shard_failure_is_runtime_error():
    failure = ShardFailure(3, "boom")
    assert isinstance(failure, RuntimeError)
    assert failure.shard == 3
    assert failure.recoverable
    assert "shard 3 worker failed: boom" in str(failure)


# ---------------------------------------------------------------------------
# fault-plan plumbing
# ---------------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(0, "no-such-kind", at=1)
    with pytest.raises(ValueError):
        FaultSpec(-1, KIND_CRASH_BEFORE_BATCH, at=1)
    with pytest.raises(ValueError):
        FaultSpec(0, KIND_CRASH_BEFORE_BATCH, at=0)


def test_respawn_plan_strips_one_shot_specs():
    plan = FaultPlan((
        FaultSpec(0, KIND_CRASH_BEFORE_BATCH, at=2),
        FaultSpec(0, KIND_SLOW_RECV, at=1, param=0.01, persistent=True),
        FaultSpec(1, KIND_CRASH_BEFORE_BATCH, at=2),
    ))
    respawned = plan.respawn_plan(0)
    assert [s.kind for s in respawned.for_shard(0)] == [KIND_SLOW_RECV]
    # Other shards' specs are untouched.
    assert len(respawned.for_shard(1)) == 1


def test_chaos_plan_is_deterministic():
    assert chaos_plan(7, 4) == chaos_plan(7, 4)
    assert chaos_plan(7, 4) != chaos_plan(8, 4)
    plan = chaos_plan(7, 4)
    kinds = {s.kind for s in plan.specs}
    assert KIND_SIGKILL_BEFORE_BATCH in kinds
    assert KIND_HANG_BEFORE_BATCH in kinds
    assert KIND_CRASH_ON_MIGRATE in kinds
    assert all(s.kind in FAULT_KINDS for s in plan.specs)
    assert all(0 <= s.shard < 4 for s in plan.specs)


def test_supervision_config_validation():
    with pytest.raises(ValueError):
        SupervisionConfig(heartbeat_interval=-1)
    with pytest.raises(ValueError):
        SupervisionConfig(heartbeat_timeout_s=0.0)
    with pytest.raises(ValueError):
        SupervisionConfig(checkpoint_interval=-1)
    with pytest.raises(ValueError):
        SupervisionConfig(max_respawns=-1)
    # 0 disables a cadence rather than being invalid.
    disabled = SupervisionConfig(heartbeat_interval=0, checkpoint_interval=0)
    assert disabled.heartbeat_interval == 0


def test_fault_plan_alone_arms_default_supervision(dataset):
    config = _lossless_config(dataset)
    executor = ProcessExecutor(
        config, 2, batch_size=16, fault_plan=FaultPlan(())
    )
    try:
        assert executor.supervised
        assert executor.supervision == SupervisionConfig()
    finally:
        executor.close()
