"""Extension — fault tolerance: checkpoint overhead and bounded recovery.

Runs the shared heavy-probe scenario (``common.heavy_probe_dataset``,
small key domain, large windows — enough per-tuple work that transport
and checkpoint costs are measured against real join work) on the
supervised executor and gates two properties of the fault-tolerance
layer:

* **Checkpoint overhead.**  Periodic per-shard checkpoints (window +
  pending state shipped every ``CHECKPOINT_INTERVAL`` batches) must keep
  throughput at >= :data:`CHECKPOINT_RATIO_GATE` (0.85×) of the same
  supervised run with checkpointing disabled.  Fault tolerance that
  halves steady-state throughput is not a deployable default.
* **Bounded recovery.**  With a seeded mid-run crash
  (``crash-after-batch``), the recovered run must (a) produce the
  byte-identical result count — the front end is lossless fixed-K, so
  recovery transparency holds — and (b) replay at most
  ``CHECKPOINT_INTERVAL`` batches: the parent-side replay log is
  truncated at every admitted checkpoint, which is what bounds both
  recovery time and replay-log memory.

The printed report records, per cell: result count, wall time,
throughput, and the supervision counters (respawns, checkpoints,
replayed batches) — the numbers behind the docs/BENCHMARKS.md rows.
"""

from common import best_of, heavy_probe_config, heavy_probe_dataset, report

from repro import (
    FaultPlan,
    FaultSpec,
    PartitionedPipeline,
    SupervisionConfig,
    replay,
)
from repro.faults.plan import KIND_CRASH_AFTER_BATCH

#: Checkpoint-on throughput must stay at least this fraction of
#: checkpoint-off throughput.
CHECKPOINT_RATIO_GATE = 0.85

SHARDS = 2
#: Small IPC dispatch window so the run spans enough batches for several
#: checkpoint cycles per shard even at the CI smoke scale's 1200-tuple
#: floor (~600 tuples/shard -> ~18 batches).
BATCH_SIZE = 32
CHUNK = 128
CHECKPOINT_INTERVAL = 8
#: The seeded crash point: past the first checkpoint cycle, so recovery
#: restores real state and replays only the post-checkpoint suffix.
CRASH_AT_BATCH = 10


def _supervision(checkpoint_interval):
    return SupervisionConfig(
        heartbeat_interval=4,
        heartbeat_timeout_s=10.0,
        checkpoint_interval=checkpoint_interval,
        max_respawns=2,
        backoff_base_s=0.01,
    )


def _run(dataset, k_ms, checkpoint_interval, fault_plan=None):
    """One supervised run: (result count, supervision counters)."""
    with PartitionedPipeline(
        heavy_probe_config(k_ms),
        SHARDS,
        executor="supervised",
        batch_size=BATCH_SIZE,
        supervision=_supervision(checkpoint_interval),
        fault_plan=fault_plan,
    ) as pipeline:
        count = replay(pipeline, dataset.arrivals(), CHUNK)
        executor = pipeline.executor
        counters = dict(
            respawns=executor.respawns,
            checkpoints=executor.checkpoints_taken,
            replayed=executor.replayed_batches,
        )
    return count, counters


def _sweep():
    dataset = heavy_probe_dataset()
    k_ms = dataset.max_delay()
    tuples = len(dataset)
    # Seeded crash mid-run: restore from checkpoint + bounded replay.
    plan = FaultPlan((FaultSpec(0, KIND_CRASH_AFTER_BATCH, at=CRASH_AT_BATCH),))
    configurations = [
        # Supervised baseline, checkpointing off (interval 0 = disabled).
        ("checkpoint off", lambda: _run(dataset, k_ms, 0)),
        # Same run with periodic checkpoints.
        (
            f"checkpoint every {CHECKPOINT_INTERVAL}",
            lambda: _run(dataset, k_ms, CHECKPOINT_INTERVAL),
        ),
        ("crash + recover", lambda: _run(dataset, k_ms, CHECKPOINT_INTERVAL, plan)),
    ]
    values, walls = best_of(configurations)
    outcomes = {
        label: (count, walls[label], counters)
        for label, (count, counters) in values.items()
    }
    rows = [
        (
            label, count, f"{elapsed:.2f}", f"{tuples / elapsed:,.0f}",
            counters["respawns"], counters["checkpoints"], counters["replayed"],
        )
        for label, (count, elapsed, counters) in outcomes.items()
    ]
    report(
        "ext_fault_tolerance",
        "Extension — supervised executor: checkpoint overhead and "
        f"crash recovery (heavy probe, {tuples} tuples, {SHARDS} shards)",
        ["configuration", "results", "wall (s)", "tuples/s",
         "respawns", "checkpoints", "replayed"],
        rows,
    )
    return outcomes


def test_ext_fault_tolerance(benchmark):
    outcomes = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    off_count, off_elapsed, off_counters = outcomes["checkpoint off"]
    on_count, on_elapsed, on_counters = outcomes[
        f"checkpoint every {CHECKPOINT_INTERVAL}"
    ]
    crash_count, _, crash_counters = outcomes["crash + recover"]

    # The baseline really ran without checkpoints; the contrast cell
    # really took several.
    assert off_counters["checkpoints"] == 0
    assert on_counters["checkpoints"] >= 2

    # Identity: checkpointing and crash recovery never change the
    # output (lossless fixed-K front end — recovery transparency).
    assert on_count == off_count
    assert crash_count == off_count

    # Overhead gate: periodic state shipping costs at most 15%.
    off_rate = 1.0 / off_elapsed
    on_rate = 1.0 / on_elapsed
    assert on_rate >= CHECKPOINT_RATIO_GATE * off_rate, (
        f"checkpointing throughput ratio {on_rate / off_rate:.2f} below "
        f"{CHECKPOINT_RATIO_GATE}"
    )

    # Bounded recovery: exactly one respawn, and the replay log the
    # recovery drained was truncated at the last admitted checkpoint.
    assert crash_counters["respawns"] == 1
    assert 1 <= crash_counters["replayed"] <= CHECKPOINT_INTERVAL, (
        f"replayed {crash_counters['replayed']} batches; the replay log "
        f"must be bounded by the checkpoint interval {CHECKPOINT_INTERVAL}"
    )
