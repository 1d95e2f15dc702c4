"""Supervised shard execution: heartbeats, checkpoint/replay recovery.

Supervision is a policy of :class:`~repro.parallel.executors.ProcessExecutor`,
not a second executor: every run takes the same dispatch path, and arming
it (a :class:`SupervisionConfig` or a fault plan) switches on the loop
that makes a crashed, killed, or hung worker an *event*, not the end of
the run.  This module holds the policy's configuration and the
parent-side checkpoint record; the protocol it describes is implemented
by the executor:

* **Liveness** — every dispatch path runs through the polling
  ``receive`` step (channel EOF + ``Process.exitcode`` + timeout) and a
  configurable heartbeat cadence sends ``MSG_PING`` probes whose
  ``MSG_PONG`` echo, by pipe ordering, acknowledges every batch
  dispatched before it.  Crashes and hangs surface as a typed
  :class:`~repro.parallel.shard.ShardFailure` within the heartbeat
  timeout instead of deadlocking a blocking ``recv()``.

* **Checkpoint/replay recovery** — every ``checkpoint_interval``
  dispatched batches the parent requests a ``MSG_CHECKPOINT``: the
  worker snapshots its full state through the migration extraction path
  (tier-aware, observationally a no-op — see
  :func:`~repro.parallel.shard.checkpoint_shard_state`) into a
  CRC-checked :class:`~repro.core.blocks.CheckpointFrame`, and ships
  the *delta* of results since the previous checkpoint plus its
  cumulative accounting record (one
  :class:`~repro.core.pipeline.PipelineMetrics`, the MSWJ counters
  inside it).  The parent keeps, per shard: the last
  *accepted* checkpoint, a bounded replay log of everything dispatched
  after it (tuple batches and adopted state blocks, keyed by ``seq``),
  and the admitted output deltas.  On failure: kill the incarnation,
  back off exponentially, respawn on a **fresh pipe** under a new
  ``epoch``, restore the checkpoint via ``MSG_MIGRATE_IN``, replay the
  log in ``seq`` order, and confirm with a ping.  Each result reaches
  the parent exactly once — either inside an admitted checkpoint delta
  or inside the final outcome of the incarnation that survives — so a
  recovered run's output sequence *and* ``JoinStatistics`` are
  byte-identical to an undisturbed run's.

* **Epoch/seq dedup** — a checkpoint record is admitted only if its
  ``(epoch, seq)`` matches the request and its frame passes CRC.  A
  rejected record (stale epoch, corrupt frame) is treated as never
  having existed — including its output delta, which the replay of the
  covered batches regenerates under the next epoch — and immediately
  triggers recovery from the previous good checkpoint.

* **Graceful degradation** — when a shard exhausts its respawn budget,
  its :class:`~repro.parallel.shard.FailoverState` (the blocks a respawn
  would have restored, still encoded, + replay batches) travels up
  inside the terminal ``ShardFailure``; the partitioned pipeline adopts
  the blocks into a scratch pipeline and evacuates *that* to the
  surviving shards through the ordinary migration path
  (:func:`~repro.parallel.shard.extract_shard_state`) — failover has no
  repartitioning code of its own.

Design invariants worth knowing when editing:

* The replay log is **bounded** by the checkpoint cadence: admitting a
  checkpoint at ``seq`` trims every entry ``<= seq`` (the frame covers
  batches ``1..seq`` by pipe ordering).
* ``migrate``/``adopt`` barrier legs force a checkpoint right after
  they complete, so recovery never has to re-run a half-done barrier
  from the log: a crash *during* a migrate leg recovers to the
  pre-migrate state and re-extracts (deterministic — identical state
  blocks); a crash after the forced checkpoint needs no barrier replay
  at all.
* Raw tuple batches (not encoded blocks) go into the log: a respawned
  worker negotiates schemas from scratch, so replay re-encodes with the
  incarnation's fresh encoder.
* Worker ``("error", ...)`` replies are *non-recoverable*: the shard
  pipeline raised deterministically, and replaying the same input would
  raise the same way.
* **Not armed** is the same path with nothing switched on: no pings, no
  checkpoints, every failure terminal, untimed reply waits — and no
  replay logging, because with no checkpoint ever trimming it the log
  would grow with the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.blocks import CheckpointFrame
from ..core.pipeline import PipelineMetrics

#: Replay-log entry kinds (the payload is a raw tuple list or a
#: StateBlock respectively).
KIND_BATCH = "batch-entry"
KIND_ADOPT = "adopt-entry"


@dataclass(frozen=True)
class SupervisionConfig:
    """Supervision/recovery knobs of an armed
    :class:`~repro.parallel.executors.ProcessExecutor`.

    Intervals are counted in *dispatched batches per shard* — the unit
    the replay log is keyed in — not wall time: a stalled input stream
    should not burn heartbeats or churn checkpoints.
    """

    #: Dispatched batches between ``MSG_PING`` liveness probes
    #: (0 disables pings; checkpoints still act as liveness probes).
    heartbeat_interval: int = 16
    #: Seconds a worker gets to answer a synchronous request (ping,
    #: checkpoint, migrate) before it is declared hung.
    heartbeat_timeout_s: float = 10.0
    #: Dispatched batches between checkpoints (0 disables checkpointing;
    #: recovery then degrades to full-input replay being impossible —
    #: failures become terminal unless the failure precedes any batch).
    checkpoint_interval: int = 64
    #: Respawn budget per shard across the whole run.
    max_respawns: int = 3
    #: Base of the exponential backoff between respawns (doubles per
    #: consecutive respawn of the same shard).
    backoff_base_s: float = 0.05
    #: Master switch: ``False`` turns every failure terminal — the mode
    #: that proves a crash surfaces as a typed error within the
    #: heartbeat timeout instead of a deadlock.
    recover: bool = True
    #: Attach a :class:`~repro.parallel.shard.FailoverState` to the
    #: terminal failure of a budget-exhausted shard so the pipeline can
    #: fail its slots over to survivors instead of aborting.
    failover: bool = True

    def __post_init__(self) -> None:
        if self.heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be > 0")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")


@dataclass
class _Checkpoint:
    """Parent-side record of a shard's last *accepted* checkpoint."""

    epoch: int
    seq: int
    frame: CheckpointFrame
    #: The shard's absolute accounting as of this checkpoint: the
    #: incarnation's base continued by the record's cumulative capture.
    metrics: PipelineMetrics
