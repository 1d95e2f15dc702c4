"""The one process executor: armed or not, it is the same dispatch path.

Three contracts of the executor collapse (ISSUE 14):

* **Arguments are never silently dropped.**  ``supervision`` /
  ``fault_plan`` arm supervision on ``executor="process"`` (which is
  what makes ``"supervised"`` a synonym), are rejected by
  ``executor="serial"``, and ``transport`` / ``credit_window`` are
  validated under every executor before any worker exists.
* **Not armed is the armed path with nothing on.**  Byte-identical to
  the serial reference through rebalancing, ``grow()`` and ``shrink()``
  on the pipe and the shm carrier; byte-identical to an armed run with
  every cadence off; and it keeps no replay log, where an armed run's
  log stays bounded by the checkpoint cadence.
* **``retire_shard``** keeps working when supervision is not armed and
  keeps refusing when it is.
"""

import pytest

import repro.parallel.executors as executors_module
from repro import (
    TRANSPORT_BLOCKS,
    TRANSPORT_SHM,
    FaultPlan,
    FaultSpec,
    PartitionedPipeline,
    ProcessExecutor,
    SupervisionConfig,
    equi_join_chain,
    seconds,
)
from repro.faults import KIND_CRASH_AFTER_BATCH
from repro.workloads import fixed_k_config, interleaved_dataset
from repro.workloads.soak import canonical_results


def _config(dataset):
    return fixed_k_config(
        dataset.max_delay(), [seconds(1)] * 3, equi_join_chain("a1", 3), True
    )


def _drive(dataset, shards, grow_at=None, shrink_at=None, **kwargs):
    """Feed per tuple with optional resizes; return (canonical sequence,
    summed JoinStatistics, pipeline)."""
    pipeline = PartitionedPipeline(_config(dataset), shards, **kwargs)
    out = []
    with pipeline:
        for i, t in enumerate(dataset.arrivals()):
            if i == grow_at:
                out.extend(pipeline.grow())
            if i == shrink_at:
                out.extend(pipeline.shrink(0))
            out.extend(pipeline.process(t))
        out.extend(pipeline.flush())
        stats = pipeline.join_statistics()
    return canonical_results(out), stats, pipeline


ALL_OFF = SupervisionConfig(
    heartbeat_interval=0, checkpoint_interval=0, recover=False, failover=False
)
CRASH = FaultPlan((FaultSpec(0, KIND_CRASH_AFTER_BATCH, at=3),))


@pytest.fixture(scope="module")
def dataset():
    """Three interleaved streams with a Zipf join key and bounded delays."""
    return interleaved_dataset("exec-5", 1_500, 12, 300, 48, 5, zipf=1.2)


@pytest.fixture(scope="module")
def reference(dataset):
    """Serial single-shard canonical sequence + stats."""
    return _drive(dataset, 1)[:2]


# ---------------------------------------------------------------------------
# fault-tolerance arguments are honoured or refused, never dropped
# ---------------------------------------------------------------------------


def test_supervision_on_process_executor_arms_supervision(dataset, reference):
    sequence, stats, pipeline = _drive(
        dataset, 2, executor="process", batch_size=16,
        supervision=SupervisionConfig(max_respawns=1, backoff_base_s=0.01),
        fault_plan=CRASH,
    )
    assert pipeline.executor.supervised
    assert pipeline.executor.respawns >= 1, "the seeded crash never fired"
    assert (sequence, stats) == reference


def test_fault_plan_alone_fires_and_is_recovered(dataset, reference):
    sequence, stats, pipeline = _drive(
        dataset, 2, executor="process", batch_size=16, fault_plan=CRASH
    )
    assert pipeline.executor.respawns >= 1, "the seeded crash never fired"
    assert (sequence, stats) == reference


@pytest.mark.parametrize(
    "option",
    [{"supervision": SupervisionConfig()}, {"fault_plan": CRASH}],
    ids=["supervision", "fault_plan"],
)
def test_serial_executor_rejects_fault_tolerance_arguments(dataset, option):
    with pytest.raises(ValueError, match="'process' executor"):
        PartitionedPipeline(_config(dataset), 2, executor="serial", **option)


@pytest.mark.parametrize("executor", ["serial", "process", "supervised"])
@pytest.mark.parametrize(
    "option",
    [{"transport": "bogus"}, {"credit_window": -5}],
    ids=["transport", "credit_window"],
)
def test_carrier_options_validated_before_any_worker(
    dataset, monkeypatch, executor, option
):
    def no_worker(self, shard):
        raise AssertionError("a worker was started before validation")

    monkeypatch.setattr(executors_module.ProcessExecutor, "_spawn_worker", no_worker)
    with pytest.raises(ValueError, match=next(iter(option))):
        PartitionedPipeline(_config(dataset), 2, executor=executor, **option)


def test_supervised_is_a_synonym_not_a_class(dataset):
    with PartitionedPipeline(_config(dataset), 1, executor="supervised") as named:
        with PartitionedPipeline(
            _config(dataset), 1, executor="process", supervision=SupervisionConfig()
        ) as spelled:
            assert type(named.executor) is type(spelled.executor) is ProcessExecutor
            assert named.executor.supervision == spelled.executor.supervision
            assert named.executor.supervised and spelled.executor.supervised


# ---------------------------------------------------------------------------
# not armed == the serial reference == armed with everything off
# ---------------------------------------------------------------------------


ELASTIC = dict(
    rebalance=True, rebalance_interval=256, rebalance_threshold=1.05,
    slots_per_shard=6, grow_at=500, shrink_at=1_000,
)


@pytest.mark.parametrize("transport", [TRANSPORT_BLOCKS, TRANSPORT_SHM])
def test_unarmed_matches_serial_through_rebalance_grow_shrink(
    dataset, reference, transport
):
    serial_sequence, serial_stats, serial = _drive(dataset, 2, **ELASTIC)
    sequence, stats, pipeline = _drive(
        dataset, 2, executor="process", transport=transport, batch_size=32,
        **ELASTIC,
    )
    # Not vacuous: slots moved for all three reasons, on both sides alike.
    assert pipeline.rebalances == serial.rebalances > 0
    assert pipeline.resizes == serial.resizes == 2
    assert not pipeline.executor.supervised
    assert pipeline.executor.checkpoints_taken == 0
    assert (sequence, stats) == (serial_sequence, serial_stats) == reference


def test_armed_with_everything_off_matches_unarmed(dataset, reference):
    options = dict(
        executor="process", batch_size=16, rebalance=True,
        rebalance_interval=256, rebalance_threshold=1.05,
    )
    unarmed_sequence, unarmed_stats, unarmed = _drive(dataset, 2, **options)
    armed_sequence, armed_stats, armed = _drive(
        dataset, 2, supervision=ALL_OFF, **options
    )
    assert unarmed.rebalances == armed.rebalances > 0
    assert armed.executor.supervised and not unarmed.executor.supervised
    assert (armed_sequence, armed_stats) == (unarmed_sequence, unarmed_stats)
    assert (armed_sequence, armed_stats) == reference


# ---------------------------------------------------------------------------
# the replay log: none when not armed, bounded by the cadence when armed
# ---------------------------------------------------------------------------


def _replay_depths(dataset, **kwargs):
    """Depth of shard 0's replay log after every submitted batch."""
    executor = ProcessExecutor(_config(dataset), 1, batch_size=4, **kwargs)
    depths = []
    try:
        arrivals = list(dataset.arrivals())[:480]
        for start in range(0, len(arrivals), 4):
            executor.submit_batch(0, arrivals[start : start + 4])
            depths.append(len(executor._shards[0].replay))
        assert executor._shards[0].seq == len(depths) >= 100
        executor.finish()
    finally:
        executor.close()
    return depths, executor


def test_replay_log_stays_empty_when_not_armed(dataset):
    depths, executor = _replay_depths(dataset)
    assert set(depths) == {0}
    assert executor.checkpoints_taken == 0


def test_replay_log_is_bounded_by_the_checkpoint_interval(dataset):
    depths, executor = _replay_depths(
        dataset,
        supervision=SupervisionConfig(heartbeat_interval=0, checkpoint_interval=8),
    )
    assert max(depths) < 8
    assert executor.checkpoints_taken == len(depths) // 8


# ---------------------------------------------------------------------------
# voluntary retirement
# ---------------------------------------------------------------------------


def test_retire_shard_refused_while_armed(dataset):
    executor = ProcessExecutor(_config(dataset), 2, supervision=SupervisionConfig())
    try:
        with pytest.raises(RuntimeError, match="retire_shard"):
            executor.retire_shard(0)
        # Refused up front: the shard is still live and still finishes.
        assert [outcome.shard for outcome in executor.finish()] == [0, 1]
    finally:
        executor.close()
