"""Hash-partitioned parallel execution of the quality-driven pipeline.

Scale-out layer over the single-operator framework: a
:class:`~repro.parallel.router.KeyRouter` hash-partitions the input by
equi-join key through a virtual-slot table, each shard runs a complete
:class:`~repro.core.pipeline.QualityDrivenPipeline`, two interchangeable
executors drive the shards — in-process serial (deterministic) or
per-shard worker processes with batched IPC — and an optional
:class:`~repro.parallel.rebalancer.Rebalancer` repairs load skew at
runtime by migrating slot state between shards.  Handing the process
executor a :class:`~repro.parallel.supervision.SupervisionConfig` arms
heartbeat supervision, periodic checkpoints and bounded-replay recovery
on its one dispatch path, so worker crashes and hangs surface as typed
:class:`~repro.parallel.shard.ShardFailure` (and, with recovery on,
heal byte-identically).  Ingestion can be pipelined off the caller's
thread (:class:`~repro.parallel.ingest.PipelinedIngest`) with
credit-based backpressure, and the process executor can carry its
block frames through per-shard shared-memory rings
(:data:`~repro.parallel.shard.TRANSPORT_SHM`,
:class:`~repro.parallel.shm.ShmRing`) or TCP sockets
(:data:`~repro.parallel.shard.TRANSPORT_SOCKET`) instead of the pipe.  See
:mod:`repro.parallel.pipeline` for the exactness semantics.
"""

from .executors import (
    DEFAULT_BATCH_SIZE,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
)
from .ingest import DEFAULT_MAX_PENDING, PipelinedIngest
from .pipeline import (
    DEFAULT_REBALANCE_INTERVAL,
    PartitionedPipeline,
    run_partitioned,
)
from .rebalancer import Rebalancer, load_imbalance
from .router import DEFAULT_SLOTS_PER_SHARD, KeyRouter, MigrationSpec, stable_hash
from .shard import (
    TRANSPORT_BLOCKS,
    TRANSPORT_SHM,
    TRANSPORT_SOCKET,
    TRANSPORTS,
    FailoverState,
    ShardFailure,
    ShardOutcome,
)
from .shm import (
    DEFAULT_RING_BYTES,
    RingAborted,
    RingError,
    RingIntegrityError,
    RingTimeout,
    ShmRing,
)
from .supervision import SupervisionConfig

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_REBALANCE_INTERVAL",
    "DEFAULT_RING_BYTES",
    "DEFAULT_SLOTS_PER_SHARD",
    "FailoverState",
    "KeyRouter",
    "MigrationSpec",
    "PartitionedPipeline",
    "PipelinedIngest",
    "ProcessExecutor",
    "Rebalancer",
    "RingAborted",
    "RingError",
    "RingIntegrityError",
    "RingTimeout",
    "SerialExecutor",
    "ShardExecutor",
    "ShardFailure",
    "ShardOutcome",
    "ShmRing",
    "SupervisionConfig",
    "TRANSPORT_BLOCKS",
    "TRANSPORT_SHM",
    "TRANSPORT_SOCKET",
    "TRANSPORTS",
    "load_imbalance",
    "run_partitioned",
    "stable_hash",
]
