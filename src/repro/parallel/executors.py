"""Shard executors: one submission interface, two execution strategies.

* :class:`SerialExecutor` — every shard pipeline lives in-process and is
  driven synchronously.  Deterministic and zero-overhead; the reference
  executor the invariance tests run against.
* :class:`ProcessExecutor` — one worker process per shard with batched
  tuple transfer: the parent buffers up to ``batch_size`` tuples per
  shard before each send, amortizing pickling and syscalls.  The wire
  format is always columnar :class:`~repro.core.blocks.TupleBlock`
  messages (one small flat object per message, schema negotiated once
  per shard and attribute set); ``transport`` only picks the carrier —
  the worker's pipe, per-shard shared-memory rings, or a TCP socket to a
  worker hosted by a :class:`~repro.distributed.runtime.NodeServer`.
  Results and metrics ride back once per shard at
  :meth:`~ShardExecutor.finish`, as a
  :class:`~repro.core.blocks.ResultBlock`.  Supervision (heartbeats,
  checkpoints, replay recovery — :mod:`repro.parallel.supervision`) is a
  policy of the same dispatch path, armed by passing a
  :class:`~repro.parallel.supervision.SupervisionConfig` or a fault
  plan; there is no second executor for it.

Both present the same lifecycle so
:class:`~repro.parallel.pipeline.PartitionedPipeline` treats them
uniformly: ``submit_batch(shard, batch)`` per routed burst in arrival
order, optional ``migrate``/``adopt`` barrier pairs when the rebalancer
moves slot state between shards, then ``finish()`` exactly once.

Window-store selection (:attr:`~repro.core.pipeline.PipelineConfig.store`)
rides inside the config both executors construct shard pipelines from —
a :class:`~repro.join.store.StoreSpec` is plain picklable data, so the
same spec reaches fork/spawn workers and in-process shards alike, and the
per-store state-size peaks each shard samples come back merged through
:meth:`~repro.core.pipeline.PipelineMetrics.merge` like every other
metric.  The migration barrier is store-agnostic too: tiered shards hand
cold segments over as already-encoded blocks inside the same
:class:`~repro.core.blocks.StateBlock` envelope.
"""

from __future__ import annotations

import multiprocessing
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..core.blocks import (
    BlockDecoder,
    BlockEncoder,
    CheckpointIntegrityError,
    StateBlock,
    unframe_checkpoint,
    verify_checkpoint,
)
from ..core.pipeline import (
    PipelineConfig,
    PipelineMetrics,
    QualityDrivenPipeline,
    empty_outputs,
)
from ..core.tuples import StreamTuple
from ..faults import FaultPlan
from .channel import Channel
from .router import MigrationSpec
from .shard import (
    MSG_ABORT,
    MSG_BATCH,
    MSG_CHECKPOINT,
    MSG_CREDIT,
    MSG_FLUSH,
    MSG_MIGRATE_IN,
    MSG_MIGRATE_OUT,
    MSG_PING,
    MSG_PONG,
    TRANSPORT_BLOCKS,
    TRANSPORT_SHM,
    TRANSPORT_SOCKET,
    TRANSPORTS,
    CheckpointRequest,
    FailoverState,
    Outputs,
    RingDescriptors,
    ShardFailure,
    ShardOutcome,
    adopt_shard_state,
    extract_shard_state,
    merge_outputs,
    shard_worker,
)
from .shm import DEFAULT_RING_BYTES, ShmRing
from .supervision import (
    KIND_ADOPT,
    KIND_BATCH,
    SupervisionConfig,
    _Checkpoint,
)

#: Tuples buffered per shard before one IPC dispatch.  Amortizes the
#: per-message pickling/pipe cost; raise it for throughput, lower it for
#: bounded parent-side buffering.
DEFAULT_BATCH_SIZE = 256

#: Parent-side poll interval while awaiting a worker reply.  Small
#: enough that death detection feels immediate; large enough that an
#: awaited multi-second drain doesn't spin.
POLL_INTERVAL_S = 0.05

#: What an executor that was handed neither a supervision config nor a
#: fault plan runs under: the supervised path with everything off.
_NOT_ARMED = SupervisionConfig(
    heartbeat_interval=0, checkpoint_interval=0, recover=False, failover=False
)


class ShardExecutor(ABC):
    """Owns N shard pipelines and feeds them routed tuples.

    ``submit_batch`` returns whatever results the shard makes available
    *immediately*: the serial executor returns them per call, the
    process executor returns an empty batch and delivers everything with
    the shard's :class:`~repro.parallel.shard.ShardOutcome` at
    :meth:`finish`.  Accumulating all ``submit_batch`` returns plus the
    outcome outputs therefore yields the same multiset under either
    executor.
    """

    def __init__(self, config: PipelineConfig, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.config = config
        self.num_shards = num_shards
        #: Tuples submitted per shard — the executor-side load counters
        #: (the router keeps the slot-grained ones the rebalancer plans
        #: from; these are the coarse cross-check and broadcast-mode
        #: fallback, where no routing counters exist).
        self.submitted: List[int] = [0] * num_shards
        #: Shards retired mid-stream by :meth:`retire_shard`, mapped to
        #: the outcome captured at retirement.  ``finish`` folds these
        #: back in at their shard index; no message ever targets a
        #: retired shard again (the router stopped pointing slots at it
        #: before retirement).
        self._retired: Dict[int, ShardOutcome] = {}

    def add_shard(self) -> int:
        """Grow the shard pool by one mid-stream; return the new shard id.

        Elastic-resize hook: executors that support node join extend
        their per-shard bookkeeping and start a fresh worker.  The new
        shard owns no slots until the caller migrates state to it and
        repoints the router — adding a worker is pure lifecycle until
        then.
        """
        raise RuntimeError(
            f"{type(self).__name__} does not support elastic resize"
        )

    def retire_shard(self, shard: int) -> None:
        """Flush ``shard`` early and drop it from the pool (node leave).

        The caller must have migrated every slot the shard owned to
        survivors first; retirement then flushes the (state-empty)
        pipeline, stashes its outcome for :meth:`finish`, and releases
        the worker.
        """
        raise RuntimeError(
            f"{type(self).__name__} does not support elastic resize"
        )

    def submit(self, shard: int, t: StreamTuple) -> Outputs:
        """Feed one tuple to ``shard``; return results available now."""
        return self.submit_batch(shard, (t,))

    @abstractmethod
    def submit_batch(self, shard: int, batch: Sequence[StreamTuple]) -> Outputs:
        """Feed a routed batch to ``shard`` in arrival order; return the
        results available now (one in-process batched call, or one send
        per accumulated IPC batch)."""

    def migrate(
        self, shard: int, spec: MigrationSpec
    ) -> Tuple[Outputs, List[StateBlock]]:
        """Source leg of the rebalancing barrier: drain ``shard`` to the
        spec's beacon and carve out the moved slots' state.

        Returns ``(outputs, states)`` — results the barrier drain makes
        available immediately (empty under the process executor, which
        defers all results to :meth:`finish`) and one
        :class:`~repro.core.blocks.StateBlock` per destination shard.
        Executors that do not implement the drain/handoff protocol keep
        this default, which refuses rebalancing.
        """
        raise RuntimeError(
            f"{type(self).__name__} does not support state migration"
        )

    def adopt(self, shard: int, state: StateBlock) -> Outputs:
        """Destination leg of the barrier: absorb migrated state into
        ``shard``; returns immediately-available results (serial only).
        """
        raise RuntimeError(
            f"{type(self).__name__} does not support state migration"
        )

    @abstractmethod
    def finish(self) -> List[ShardOutcome]:
        """Flush every shard; return per-shard outcomes (call once)."""

    def close(self) -> None:
        """Release shard resources without collecting outcomes.

        For abandoning a run mid-stream (error paths, context-manager
        exit before flush).  Idempotent; a no-op after :meth:`finish`.
        """


class SerialExecutor(ShardExecutor):
    """All shards in-process, driven synchronously — deterministic."""

    def __init__(self, config: PipelineConfig, num_shards: int) -> None:
        super().__init__(config, num_shards)
        self.pipelines = [
            QualityDrivenPipeline(config) for _ in range(num_shards)
        ]

    def submit_batch(self, shard: int, batch: Sequence[StreamTuple]) -> Outputs:
        self.submitted[shard] += len(batch)
        return self.pipelines[shard].process_batch(batch)

    def migrate(
        self, shard: int, spec: MigrationSpec
    ) -> Tuple[Outputs, List[StateBlock]]:
        """In-process barrier: drain + extract synchronously.  The
        blocks are encoded exactly as a worker's are — a state block has
        one form — so serial rebalancing exercises the codec too."""
        return extract_shard_state(self.pipelines[shard], shard, spec)

    def adopt(self, shard: int, state: StateBlock) -> Outputs:
        return adopt_shard_state(self.pipelines[shard], state)

    def add_shard(self) -> int:
        shard = self.num_shards
        self.num_shards += 1
        self.submitted.append(0)
        self.pipelines.append(QualityDrivenPipeline(self.config))
        return shard

    def _outcome(self, shard: int) -> ShardOutcome:
        pipeline = self.pipelines[shard]
        return ShardOutcome(shard, pipeline.flush(), pipeline.account())

    def retire_shard(self, shard: int) -> None:
        if shard in self._retired:
            raise RuntimeError(f"shard {shard} already retired")
        self._retired[shard] = self._outcome(shard)

    def finish(self) -> List[ShardOutcome]:
        return [
            self._retired[shard] if shard in self._retired else self._outcome(shard)
            for shard in range(self.num_shards)
        ]


def _start_method() -> str:
    """How local workers start: ``fork`` wherever the platform has it
    (see :class:`ProcessExecutor` on what that spares the config)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def check_process_options(
    transport: str, credit_window: Optional[int], nodes: Optional[Sequence]
) -> None:
    """Reject carrier / flow-control settings no process run accepts.

    One function so :class:`~repro.parallel.pipeline.PartitionedPipeline`
    can refuse them before it chooses (or starts) any executor, and the
    executor refuses the same things when constructed directly.
    """
    if transport not in TRANSPORTS:
        raise ValueError(
            f"transport must be one of {TRANSPORTS}, got {transport!r}"
        )
    if credit_window is not None and credit_window < 1:
        raise ValueError(f"credit_window must be >= 1, got {credit_window}")
    if transport == TRANSPORT_SOCKET:
        if not nodes:
            raise ValueError(
                "transport='socket' requires `nodes`: the (host, port) "
                "addresses of the NodeServer processes hosting the shards"
            )
    elif nodes is not None:
        raise ValueError("`nodes` is only meaningful with transport='socket'")


def _reap(process: Any, patience_s: float) -> None:
    """Give a worker ``patience_s`` to exit on its own, then make sure.

    The one place a worker process is waited for: after a flush reply
    (long patience — it is exiting), after an abort, and when a failed
    incarnation is retired (zero patience).
    """
    if process is None:
        return  # constructor unwind: the connection outlived a failed spawn
    process.join(timeout=patience_s)
    if process.is_alive():
        process.terminate()
        process.join(timeout=5)
        if process.is_alive():  # pragma: no cover - defensive
            process.kill()
            process.join(timeout=5)


def _exitcode(process: Any) -> Optional[int]:
    """A worker's exit code: ``None`` while it runs — and always for a
    worker hosted on a node, which has no local handle (its death
    surfaces through the connection's EOF / reset instead)."""
    return None if process is None else process.exitcode


def dead_worker(
    channel: Channel, process: Any, shard: int, cause: str
) -> ShardFailure:
    """Build the typed failure for a channel that broke under a send.

    A worker whose pipeline raised reports ``("error", text)`` and
    exits, closing its end; the *next* send then breaks.  Drain
    whatever the dead worker left buffered so that report — the real
    diagnosis — wins over the generic broken-pipe symptom.
    """
    try:
        while channel.poll(0):
            tag, payload = channel.recv()
            if tag == "error":
                return ShardFailure(shard, str(payload), recoverable=False)
    except (EOFError, OSError):
        pass
    return ShardFailure(
        shard, f"worker pipe closed (exit code {_exitcode(process)}): {cause}"
    )


def receive(
    channel: Channel, process: Any, shard: int, timeout: Optional[float]
) -> Tuple[Any, Any]:
    """Receive one worker message with death (and hang) detection.

    The one receive step under every wait — the executor's reply and
    credit waits.  Polls instead of
    blocking in ``recv()``: a dead worker surfaces as a typed
    :class:`ShardFailure` via EOF, a torn frame or its exitcode, and —
    when ``timeout`` is given — a worker that is alive but unresponsive
    surfaces as a failure too, instead of deadlocking the caller
    forever.  A message already buffered by a worker that exited
    afterwards is still delivered (writes complete before exit, so
    observing a non-``None`` exitcode means everything the worker ever
    sent is pollable).
    """
    waited = 0.0
    while True:
        try:
            ready = channel.poll(POLL_INTERVAL_S)
        except OSError as exc:
            # A SIGKILLed peer resets the pipe: poll() itself raises.
            raise ShardFailure(
                shard,
                f"worker pipe broken (exit code {_exitcode(process)}): {exc}",
            ) from None
        if ready:
            try:
                return channel.recv()
            except (EOFError, OSError) as exc:
                raise ShardFailure(
                    shard,
                    "worker died without reporting "
                    f"(exit code {_exitcode(process)}): {exc!r}",
                ) from None
        code = _exitcode(process)
        if code is not None:
            try:
                buffered = channel.poll(0)
            except OSError:
                buffered = False
            if not buffered:
                raise ShardFailure(
                    shard, f"worker exited with code {code} before replying"
                )
        waited += POLL_INTERVAL_S
        if timeout is not None and waited >= timeout:
            raise ShardFailure(
                shard,
                f"no reply within {timeout:.1f}s "
                "(worker alive but unresponsive)",
            )


@dataclass
class _Shard:
    """Everything the parent keeps about one shard worker.

    One record per shard — built by the same call in the constructor and
    in :meth:`ProcessExecutor.add_shard` — so a field added here cannot
    be forgotten in one of the two.
    """

    #: Admitted checkpoint output deltas, decoded (starts empty).
    deltas: Outputs
    #: Parent-side buffer of routed-but-undispatched tuples.
    pending: List[StreamTuple] = field(default_factory=list)
    #: The current incarnation's channel (connection plus, under the
    #: shm transport, its ring pair), process handle (``None`` for a
    #: worker hosted on a node) and schema negotiation state; all three
    #: are replaced together on a respawn.
    channel: Optional[Channel] = None
    process: Any = None
    encoder: BlockEncoder = field(default_factory=BlockEncoder)
    #: Index into the executor's node list (socket transport only):
    #: where the current incarnation lives.
    node: Optional[int] = None
    #: Credit accounting of the current incarnation.
    dispatched: int = 0
    credited: int = 0
    #: Supervision accounting: incarnation number, batches + adoptions
    #: dispatched so far, cadence counters, respawns spent.
    epoch: int = 0
    seq: int = 0
    since_ping: int = 0
    since_ckpt: int = 0
    respawns: int = 0
    #: ``(seq, kind, payload)`` of everything dispatched after the last
    #: accepted checkpoint (armed runs only).
    replay: List[Tuple[int, str, Any]] = field(default_factory=list)
    #: The last *accepted* checkpoint.
    checkpoint: Optional[_Checkpoint] = None
    #: The shard's accounting at the *current incarnation's* spawn
    #: point (``None`` for one that started from nothing) — a worker's
    #: record restarts at zero after a respawn, so absolute accounting
    #: is this base continued by the incarnation's cumulative capture.
    metrics_base: Optional[PipelineMetrics] = None

    def absolute(self, metrics: PipelineMetrics) -> PipelineMetrics:
        """An incarnation's cumulative capture on top of its base.

        Incarnations of one shard run one after the other, so the base
        is *continued* — not merged, which is for concurrent shards.
        """
        if self.metrics_base is not None:
            metrics = self.metrics_base.continued_by(metrics)
        return metrics

    def close(self) -> None:
        """Close the incarnation's channel (connection + rings), if any."""
        if self.channel is not None:
            self.channel.close()


class ProcessExecutor(ShardExecutor):
    """One worker process per shard, batched block transfer.

    Every outgoing batch is encoded as one columnar
    :class:`~repro.core.blocks.TupleBlock` through a per-shard
    schema-negotiating :class:`~repro.core.blocks.BlockEncoder`, and the
    worker ships collected results back as one
    :class:`~repro.core.blocks.ResultBlock`.  Every message leaves and
    arrives through the shard's :class:`~repro.parallel.channel.Channel`
    (:meth:`_send` / :func:`receive`), which serializes it exactly once
    and decides whether it rides the pipe, the socket or the shm ring.

    Where a worker lives follows from what the executor is given:
    without ``nodes`` it is forked here and reached over a pipe (plus a
    shared-memory ring pair under ``transport="shm"``); with ``nodes``
    (and ``transport="socket"``) it is placed on one of those
    :class:`~repro.distributed.runtime.NodeServer` addresses by a
    ``MSG_JOIN`` handshake.  Everything above :meth:`_spawn_worker` —
    batching, credits, migration barriers, supervision cadence, elastic
    resize — is the same code, because the channel hides the carrier
    and the protocol does not change.

    Supervision is **armed** by passing ``supervision`` or
    ``fault_plan`` (see :mod:`repro.parallel.supervision` for the
    protocol and its invariants).  Not armed, the same dispatch path
    runs with no pings, no checkpoints and no replay log, and a worker
    failure is terminal.  Observability counters (``respawns``,
    ``checkpoints_taken``, ``checkpoints_rejected``,
    ``replayed_batches``, ``failed_over``) are plain attributes the soak
    harness and the benchmarks read after the run.

    Forked workers prefer the ``fork`` start method so non-picklable
    join conditions (theta lambdas) reach the children by inheritance;
    under ``spawn`` — and on nodes, where the spec crosses the wire —
    the :class:`~repro.core.pipeline.PipelineConfig` must pickle.  Worker
    failures surface as a typed
    :class:`~repro.parallel.shard.ShardFailure` (a ``RuntimeError``
    subclass) carrying the shard id: a broken carrier raises from
    :meth:`_send` at the next dispatch, and the reply paths poll with
    ``Process.exitcode`` checks (:func:`receive`) instead of blocking in
    ``recv()``, so a crashed worker can never deadlock the parent.
    """

    def __init__(
        self,
        config: PipelineConfig,
        num_shards: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
        transport: str = TRANSPORT_BLOCKS,
        supervision: Optional[SupervisionConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        credit_window: Optional[int] = None,
        ring_bytes: int = DEFAULT_RING_BYTES,
        nodes: Optional[Sequence[Tuple[str, int]]] = None,
    ) -> None:
        super().__init__(config, num_shards)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        check_process_options(transport, credit_window, nodes)
        self.batch_size = batch_size
        self.transport = transport
        #: Whether supervision is armed — worked out from the inputs.
        self.supervised = supervision is not None or fault_plan is not None
        if supervision is None:
            supervision = SupervisionConfig() if self.supervised else _NOT_ARMED
        self.supervision = supervision
        self._fault_plan = fault_plan
        #: Seconds a synchronous request may go unanswered; a stalled
        #: worker is legal slowness unless supervision is armed.
        self._reply_timeout: Optional[float] = (
            supervision.heartbeat_timeout_s if self.supervised else None
        )
        # Retained for worker (re)spawns long after construction.
        self._context = multiprocessing.get_context(_start_method())
        #: NodeServer addresses (socket transport), else ``None``.
        self._nodes: Optional[List[Tuple[str, int]]] = (
            None if nodes is None else [(str(host), int(port)) for host, port in nodes]
        )
        #: Credit-based backpressure: with a window of W, at most W
        #: dispatched-but-unconfirmed batches may be in flight per shard
        #: (the worker confirms each processed batch with MSG_CREDIT).
        #: ``None`` disables both the stall and the worker-side grants —
        #: the synchronous driver's behavior, where pipe buffering is
        #: the only in-flight bound.
        self._credit_window = credit_window
        self._ring_bytes = ring_bytes
        self._shards: List[_Shard] = []
        self._finished = False
        self.respawns = 0
        self.checkpoints_taken = 0
        self.checkpoints_rejected = 0
        self.replayed_batches = 0
        self.failed_over: Set[int] = set()
        # Worker startup can fail mid-loop (fd exhaustion, fork limits);
        # without the unwind the already-started workers would sit in
        # recv() forever holding their pipe fds.  close() handles the
        # partially-built executor: records are appended as resources
        # are created, so whatever exists is released.
        try:
            for shard in range(num_shards):
                self._start_shard(shard)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------

    def _start_shard(self, shard: int) -> None:
        self._shards.append(_Shard(empty_outputs(self.config.collect_results)))
        self._spawn_worker(shard)

    def _fault_plan_for(self, shard: int) -> Optional[FaultPlan]:
        """Fault plan handed to ``shard``'s next incarnation."""
        plan = self._fault_plan
        if plan is not None and self._shards[shard].epoch > 0:
            # One-shot faults already fired in a previous incarnation;
            # re-arming them would make recovery impossible by design.
            plan = plan.respawn_plan(shard)
        return plan

    def _spawn_worker(self, shard: int) -> None:
        """Start ``shard``'s next incarnation on a fresh connection.

        The caller has already retired the previous incarnation's
        process and connection, if there was one.  A fresh connection —
        and, under the shm transport, a fresh ring pair — per
        incarnation means no stale message or frame from a dead epoch
        can ever be read back, and keeps each incarnation's ring
        sequence numbers starting from 1 (mirroring the supervisor's
        per-epoch seq accounting).  The worker's decoder starts empty,
        so the connection's schema negotiation restarts from scratch
        too.
        """
        state = self._shards[shard]
        state.dispatched = state.credited = 0
        state.encoder = BlockEncoder()
        if self._nodes is None:
            self._fork_worker(shard, state)
        else:
            self._place_worker(shard, state)

    def _fork_worker(self, shard: int, state: _Shard) -> None:
        """Worker placement, local: fork + pipe (+ shm rings)."""
        connection, child_conn = self._context.Pipe(duplex=True)
        state.channel = channel = Channel(connection)
        try:
            rings: Optional[RingDescriptors] = None
            if self.transport == TRANSPORT_SHM:
                # Hung on the channel one by one: whatever exists when
                # a later step fails is unlinked by the unwind.
                channel.send_ring = ShmRing.create(self._ring_bytes)
                channel.recv_ring = ShmRing.create(self._ring_bytes)
                rings = (channel.send_ring.descriptor, channel.recv_ring.descriptor)
            process = self._context.Process(
                target=shard_worker,
                args=(
                    child_conn,
                    shard,
                    self.config,
                    self._fault_plan_for(shard),
                    rings,
                    self._credit_window is not None,
                ),
                daemon=True,
            )
            process.start()
        finally:
            child_conn.close()
        state.process = process
        # Lets a ring write that waits for space notice a dead consumer.
        channel.peer_dead = lambda: process.exitcode is not None

    def _place_worker(self, shard: int, state: _Shard) -> None:
        """Worker placement, remote: dial a node + ``MSG_JOIN``.

        First placement goes to the least-loaded node (ties break low) —
        at construction this degenerates to round-robin, and a grown
        shard lands on a freshly joined (empty) node, which is what
        makes ``add_node`` + ``grow`` the node-join story.  A respawn
        prefers the incumbent node and fails over to survivors when it
        refuses the dial — which is exactly what recovers a whole-node
        SIGKILL (every worker on the node dies via ``PDEATHSIG``; each
        is respawned elsewhere from its last checkpoint and replay log).
        """
        # Deferred import: the distributed runtime builds on this
        # package's worker loop, so a module-level import is circular.
        from ..distributed.runtime import place_shard_worker

        nodes = self._nodes
        assert nodes is not None
        if state.node is None:
            loads = [0] * len(nodes)
            for other in self._shards:
                if other.node is not None:
                    loads[other.node] += 1
            state.node = loads.index(min(loads))
        state.process = None  # lives on the node; the channel is the handle
        connection, state.node = place_shard_worker(
            nodes,
            state.node,
            shard,
            self.config,
            self._fault_plan_for(shard),
            self._credit_window is not None,
        )
        state.channel = Channel(connection)

    def add_node(self, address: Tuple[str, int]) -> int:
        """Register a freshly-started NodeServer; return its index.

        The elastic node-join entry point: a registered node becomes a
        placement target for subsequent ``add_shard`` spawns (via
        :meth:`~repro.parallel.pipeline.PartitionedPipeline.grow`) and
        for respawn failover.  Registration alone moves no state — the
        pipeline's drain/handoff migration barrier does that, which is
        what makes joining mid-stream byte-identical to having started
        with the node.
        """
        if self._nodes is None:
            raise RuntimeError("add_node requires transport='socket'")
        self._nodes.append((str(address[0]), int(address[1])))
        return len(self._nodes) - 1

    def add_shard(self) -> int:
        """Elastic grow: one more per-shard record, one more worker.

        The new shard starts with an empty pipeline and owns no routing
        slots; the pipeline layer migrates state to it and repoints the
        router afterwards, so grow-then-migrate is byte-identical to
        having started with the larger pool.
        """
        self._check_open()
        shard = self.num_shards
        self.num_shards += 1
        self.submitted.append(0)
        self._start_shard(shard)
        return shard

    def retire_shard(self, shard: int) -> None:
        """Elastic shrink: flush the (already slot-less) shard and stash
        its outcome for :meth:`finish`; release its worker and rings.

        Refused while supervision is armed (stitching a mid-run
        retirement into the delta/replay accounting is not implemented);
        involuntary departure is what failover handles.
        """
        self._check_open()
        if self.supervised:
            raise RuntimeError(
                "supervised executors do not support retire_shard; "
                "use failover for involuntary node departure"
            )
        if shard in self._retired:
            raise RuntimeError(f"shard {shard} already retired")
        self._flush_pending(shard)
        self._send(shard, (MSG_FLUSH, None))
        self._retired[shard] = self._await_outcome(shard)
        state = self._shards[shard]
        state.close()
        _reap(state.process, 30)

    def _terminate_worker(self, shard: int) -> None:
        """Retire an incarnation: close its channel (unlinking its
        rings), make sure it is dead."""
        state = self._shards[shard]
        state.close()
        _reap(state.process, 0)

    def _recover(self, shard: int, failure: ShardFailure) -> None:
        """Respawn → restore → replay, or escalate to a terminal failure.

        Loops because the restore/replay itself can fail (a persistent
        fault, a second crash): each attempt burns one unit of the
        shard's respawn budget; exhausting the budget raises the
        terminal failure, carrying :class:`FailoverState` when failover
        is enabled and a recovery point exists.  Not armed,
        ``supervision.recover`` is off and every failure is terminal.
        """
        sup = self.supervision
        state = self._shards[shard]
        while True:
            if not failure.recoverable or not sup.recover:
                self._terminate_worker(shard)
                raise failure
            if state.respawns >= sup.max_respawns:
                self._terminate_worker(shard)
                raise self._exhausted(shard, failure)
            state.respawns += 1
            self.respawns += 1
            self._terminate_worker(shard)
            time.sleep(sup.backoff_base_s * (2 ** (state.respawns - 1)))
            state.epoch += 1
            state.since_ping = state.since_ckpt = 0
            self._spawn_worker(shard)
            try:
                self._restore(shard)
                return
            except ShardFailure as exc:
                failure = exc

    def _restore(self, shard: int) -> None:
        """Bring a fresh incarnation up to date: checkpoint + replay log.

        The incarnation's accounting base moves to the checkpoint's
        absolute record (its counters restart at zero); replayed batches
        are re-encoded by the fresh per-connection encoder; a final ping
        confirms the worker consumed everything — without it a restore
        that crashed mid-replay would be discovered only at the next
        dispatch, attributing the failure to the wrong batch.
        """
        state = self._shards[shard]
        ckpt = state.checkpoint
        state.metrics_base = None
        if ckpt is not None:
            self._send(
                shard, (MSG_MIGRATE_IN, unframe_checkpoint(ckpt.frame)), bulky=True
            )
            state.metrics_base = ckpt.metrics
        for _seq, kind, payload in state.replay:
            if kind == KIND_BATCH:
                self._send_batch(shard, payload)
                self.replayed_batches += 1
            else:
                self._send(shard, (MSG_MIGRATE_IN, payload), bulky=True)
        self._ping(shard, ("restore", state.epoch, state.seq), desync_recoverable=False)

    def _exhausted(self, shard: int, failure: ShardFailure) -> ShardFailure:
        """Terminal failure of a budget-spent shard (+ failover payload)."""
        self.failed_over.add(shard)
        state = self._shards[shard]
        payload: Optional[FailoverState] = None
        if self.supervision.failover:
            # What _restore would have sent a respawn, as held: the
            # checkpoint's block, then the log in seq order — adopted
            # state that never made it into a checkpoint stays encoded,
            # batches stay raw.
            states: List[StateBlock] = []
            replay: List[List[StreamTuple]] = []
            if state.checkpoint is not None:
                states.append(unframe_checkpoint(state.checkpoint.frame))
            for _seq, kind, entry in state.replay:
                (replay if kind == KIND_BATCH else states).append(entry)
            # Tuples buffered parent-side but never dispatched belong to
            # the replay stream too.
            if state.pending:
                replay.append(state.pending)
                state.pending = []
            payload = FailoverState(states, replay)
        return ShardFailure(
            shard,
            f"respawn budget exhausted after "
            f"{state.respawns} respawns: {failure.reason}",
            recoverable=False,
            failover=payload,
        )

    # ------------------------------------------------------------------
    # dispatch (one path; logged + supervised when armed)
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._finished:
            raise RuntimeError("executor already finished")

    def _check_live(self, shard: int) -> None:
        self._check_open()
        if shard in self.failed_over:
            raise ShardFailure(
                shard,
                "shard already failed over; the router should no longer "
                "route to it",
                recoverable=False,
            )

    def submit_batch(self, shard: int, batch: Sequence[StreamTuple]) -> Outputs:
        """Queue a routed batch; dispatch every full ``batch_size`` window.

        Each window is carved out of the pending buffer *before* its
        dispatch: if the dispatch escalates to a terminal failure, the
        window lives in the replay log and the buffer holds only
        never-dispatched tuples — no double count in the failover
        stream.
        """
        self._check_live(shard)
        self.submitted[shard] += len(batch)
        pending = self._shards[shard].pending
        pending.extend(batch)
        size = self.batch_size
        while len(pending) >= size:
            window = pending[:size]
            del pending[:size]
            self._dispatch_window(shard, window)
        return empty_outputs(self.config.collect_results)

    def _flush_pending(self, shard: int) -> None:
        """Ship whatever sits in ``shard``'s parent-side batch buffer.

        The rebalancing barrier calls this before a migration message so
        the worker has consumed every tuple routed to it first — pipe
        ordering then guarantees the barrier lands at a consistent
        point in the shard's input sequence.
        """
        state = self._shards[shard]
        if state.pending:
            window, state.pending = state.pending, []
            self._dispatch_window(shard, window)

    def _log(self, shard: int, kind: str, payload: Any) -> None:
        """Number one dispatch and — armed only — log it for replay.

        Without a checkpoint cadence nothing would ever trim the log, so
        a run that is not armed keeps none.
        """
        state = self._shards[shard]
        state.seq += 1
        if self.supervised:
            state.replay.append((state.seq, kind, payload))

    def _dispatch_window(self, shard: int, window: List[StreamTuple]) -> None:
        """Log + send one batch window, then run the supervision cadence.

        The log entry is appended *before* the send so no dispatched
        batch can ever be absent from the replay stream, whatever point
        the send or the cadence fails at.
        """
        self._log(shard, KIND_BATCH, window)
        try:
            self._send_batch(shard, window)
            self._cadence(shard)
        except ShardFailure as failure:
            self._recover(shard, failure)

    def _send_batch(self, shard: int, window: Sequence[StreamTuple]) -> None:
        """Encode + ship one batch window.

        Every batch send — live dispatch, replay during restore, the
        final pending flush — funnels through here: waits for credit
        when a window is armed, encodes with the *current incarnation's*
        encoder (a respawned worker negotiates schemas from scratch),
        and rides the shm ring when one is armed.
        """
        state = self._shards[shard]
        if self._credit_window is not None:
            self._await_credit(shard)
        self._send(shard, (MSG_BATCH, state.encoder.encode(window)), bulky=True)
        state.dispatched += 1

    def _cadence(self, shard: int) -> None:
        """Checkpoint/ping bookkeeping after one dispatched batch."""
        sup = self.supervision
        state = self._shards[shard]
        state.since_ckpt += 1
        state.since_ping += 1
        if sup.checkpoint_interval and state.since_ckpt >= sup.checkpoint_interval:
            self._checkpoint(shard)
        elif sup.heartbeat_interval and state.since_ping >= sup.heartbeat_interval:
            self._ping(shard, (state.epoch, state.seq))

    def _ping(
        self, shard: int, nonce: tuple, desync_recoverable: bool = True
    ) -> None:
        """Liveness probe: ``MSG_PING`` must echo within the timeout.

        After a restore the same exchange proves the worker consumed the
        whole restore stream (pipe ordering: the pong follows it); a
        wrong echo there is a protocol desync no further respawn fixes.
        """
        self._shards[shard].since_ping = 0
        self._send(shard, (MSG_PING, nonce))
        tag, payload = self._await_reply(shard, self._reply_timeout)
        if tag == "error":
            raise ShardFailure(shard, str(payload), recoverable=False)
        if tag != MSG_PONG or payload != nonce:
            raise ShardFailure(
                shard,
                f"bad heartbeat reply: ({tag!r}, {payload!r})",
                recoverable=desync_recoverable,
            )

    def _checkpoint(self, shard: int) -> None:
        """Synchronous checkpoint barrier; admits or rejects the record.

        Also doubles as a liveness probe (it awaits a reply under the
        heartbeat timeout), so the cadence resets both counters.
        """
        state = self._shards[shard]
        state.since_ckpt = state.since_ping = 0
        epoch, seq = state.epoch, state.seq
        self._send(shard, (MSG_CHECKPOINT, CheckpointRequest(epoch, seq)))
        tag, record = self._await_reply(shard, self._reply_timeout)
        if tag == "error":
            raise ShardFailure(shard, str(record), recoverable=False)
        if tag != MSG_CHECKPOINT:
            raise ShardFailure(shard, f"bad checkpoint reply tag {tag!r}")
        if record.epoch != epoch or record.seq != seq:
            # Epoch/seq dedup: a record from a stale incarnation (or a
            # desynced worker) is never admitted.
            raise ShardFailure(
                shard,
                f"stale checkpoint record (epoch {record.epoch}, seq "
                f"{record.seq}; expected epoch {epoch}, seq {seq})",
            )
        try:
            verify_checkpoint(record.frame)
        except CheckpointIntegrityError as exc:
            # Reject the WHOLE record — the output delta inside it as
            # well (the worker already reset its accumulator, so that
            # delta exists nowhere else; the replay of batches <= seq
            # under the next epoch regenerates it exactly).
            self.checkpoints_rejected += 1
            raise ShardFailure(shard, str(exc)) from exc
        state.deltas = merge_outputs(
            self.config.collect_results, state.deltas, self._decoded(record.outputs)
        )
        state.checkpoint = _Checkpoint(
            epoch, seq, record.frame, state.absolute(record.metrics)
        )
        state.replay = [entry for entry in state.replay if entry[0] > seq]
        self.checkpoints_taken += 1

    def _decoded(self, outputs: Any) -> Outputs:
        """A worker's shipped results: a ResultBlock when collected.

        Each worker encodes with its own fresh encoder, so each block
        carries its schema inline; a fresh decoder per block keeps the
        pairing exact.
        """
        if self.config.collect_results:
            return BlockDecoder().decode_results(outputs)
        return outputs

    # ------------------------------------------------------------------
    # barrier legs
    # ------------------------------------------------------------------

    def migrate(
        self, shard: int, spec: MigrationSpec
    ) -> Tuple[Outputs, List[StateBlock]]:
        """Synchronous barrier leg: request extraction, block on reply.

        Blocking on the worker's ``("state", ...)`` reply is what makes
        the whole rebalance a barrier — no new tuple is routed anywhere
        until the source has drained and handed its state over.  Drain
        results stay in the worker's accumulator (returned at
        :meth:`finish`), so the outputs half of the return is empty.

        On failure mid-barrier the recovery restores the *pre-migrate*
        state (the forced post-migrate checkpoint has not been admitted
        yet) and the whole leg retries: re-extraction is deterministic,
        so the retried reply carries identical state blocks and the
        earlier, lost extraction is simply discarded.  After a
        successful reply an armed source is force-checkpointed so the
        replay log can never straddle the barrier.
        """
        self._check_live(shard)
        while True:
            try:
                self._flush_pending(shard)
                self._send(shard, (MSG_MIGRATE_OUT, spec))
                tag, payload = self._await_reply(shard, self._reply_timeout)
                if tag != "state":
                    raise ShardFailure(
                        shard,
                        f"state migration failed: {payload}",
                        recoverable=False,
                    )
                if self.supervised:
                    self._checkpoint(shard)
                return empty_outputs(self.config.collect_results), payload
            except ShardFailure as failure:
                self._recover(shard, failure)

    def adopt(self, shard: int, state: StateBlock) -> Outputs:
        """Destination leg: logged, sent, force-checkpointed when armed.

        The worker absorbs the state in pipe order.  The adopt goes into
        the replay log first — if the forced checkpoint after it fails,
        recovery replays the adoption along with any logged batches, in
        original ``seq`` order.
        """
        self._check_live(shard)
        self._flush_pending(shard)
        self._log(shard, KIND_ADOPT, state)
        try:
            # Migrated state can be arbitrarily large — ride the ring
            # when one is armed, like any bulky message.
            self._send(shard, (MSG_MIGRATE_IN, state), bulky=True)
            if self.supervised:
                self._checkpoint(shard)
        except ShardFailure as failure:
            self._recover(shard, failure)
        return empty_outputs(self.config.collect_results)

    # ------------------------------------------------------------------
    # wire primitives
    # ------------------------------------------------------------------

    def _send(self, shard: int, message: tuple, bulky: bool = False) -> None:
        """Ship one message on ``shard``'s channel.

        ``bulky`` marks the messages that ride the shm ring when one is
        armed (batches, adopted and restored state).  A broken carrier
        means the worker is gone: surface it as a typed failure right
        here — preferring the worker's own buffered ``("error", ...)``
        report when one exists — instead of letting a later reply wait
        run into a reply that can never come.
        """
        state = self._shards[shard]
        try:
            state.channel.send(message, bulky)
        except OSError as exc:
            raise dead_worker(
                state.channel, state.process, shard, str(exc)
            ) from exc

    def _await_reply(
        self, shard: int, timeout: Optional[float] = None
    ) -> Tuple[Any, Any]:
        """The next worker reply, past any interleaved credit grants."""
        state = self._shards[shard]
        while True:
            tag, payload = receive(state.channel, state.process, shard, timeout)
            if tag != MSG_CREDIT:
                return tag, payload
            state.credited = max(state.credited, payload)

    def _await_credit(self, shard: int) -> None:
        """Stall until the shard's in-flight batch count drops below the
        credit window.

        This is the backpressure point of the pipelined feeder: a slow
        worker simply stops granting, and dispatch to that shard blocks
        here — bounded memory, no deadlock (a *dead* worker surfaces as
        a typed failure through the same receive step every reply wait
        uses; a merely stalled one is legal slowness, so there is no
        timeout).
        """
        state = self._shards[shard]
        window = self._credit_window
        assert window is not None
        while state.dispatched - state.credited >= window:
            tag, payload = receive(state.channel, state.process, shard, None)
            if tag == "error":
                raise ShardFailure(shard, str(payload), recoverable=False)
            if tag != MSG_CREDIT:
                raise ShardFailure(
                    shard, f"unexpected {tag!r} message while awaiting credit"
                )
            state.credited = max(state.credited, payload)

    def _await_outcome(self, shard: int) -> ShardOutcome:
        """The flush reply, stitched onto what checkpoints admitted.

        Outputs are the admitted checkpoint deltas followed by the final
        outcome's post-checkpoint outputs; the accounting is the
        incarnation's base continued by the final cumulative record.
        With no checkpoint ever admitted that is the worker's outcome as
        shipped.
        """
        tag, payload = self._await_reply(shard)
        if tag != "ok":
            raise ShardFailure(shard, str(payload), recoverable=False)
        state = self._shards[shard]
        outputs = merge_outputs(
            self.config.collect_results, state.deltas, self._decoded(payload.outputs)
        )
        return ShardOutcome(shard, outputs, state.absolute(payload.metrics))

    # ------------------------------------------------------------------
    # run end
    # ------------------------------------------------------------------

    def finish(self) -> List[ShardOutcome]:
        """Flush everything; stitch deltas + final outcomes exactly-once.

        A failure while awaiting an outcome runs the ordinary recovery
        and re-flushes — but a shard whose budget dies *here* is
        terminal (failover needs the pipeline's router, which has no
        further feeding step to repartition through).  Failed-over
        shards contribute synthesized outcomes carrying the deltas and
        accounting admitted before their death; their post-checkpoint
        results were regenerated by the survivors via the failover
        replay stream.  Retired shards were flushed at retirement; their
        stashed outcome folds in at its shard index.
        """
        self._check_open()
        self._finished = True
        gone = self.failed_over | self._retired.keys()
        outcomes: List[ShardOutcome] = []
        try:
            for shard in range(self.num_shards):
                if shard in gone:
                    continue
                state = self._shards[shard]
                if state.pending:
                    window, state.pending = state.pending, []
                    self._log(shard, KIND_BATCH, window)
                    try:
                        self._send_batch(shard, window)
                    except ShardFailure as failure:
                        self._recover(shard, failure)
                self._send_flush(shard)
            for shard in range(self.num_shards):
                if shard in self._retired:
                    outcomes.append(self._retired[shard])
                elif shard in self.failed_over:
                    outcomes.append(self._synthetic_outcome(shard))
                else:
                    while True:
                        try:
                            outcomes.append(self._await_outcome(shard))
                            break
                        except ShardFailure as failure:
                            self._recover(shard, failure)
                            self._send_flush(shard)
        except BaseException:
            # Workers that were never told to flush would sit in recv()
            # through the whole reaping patience; abort them instead.
            self._abandon()
            raise
        self._release(30)
        return outcomes

    def _send_flush(self, shard: int) -> None:
        try:
            self._send(shard, (MSG_FLUSH, None))
        except ShardFailure as failure:
            self._recover(shard, failure)
            self._send(shard, (MSG_FLUSH, None))

    def _synthetic_outcome(self, shard: int) -> ShardOutcome:
        """Outcome of a failed-over shard: what its checkpoints admitted."""
        state = self._shards[shard]
        record = state.checkpoint
        metrics = record.metrics if record is not None else PipelineMetrics()
        return ShardOutcome(shard, state.deltas, metrics)

    def _release(self, patience_s: float) -> None:
        """Close every channel (unlinking its rings), reap every worker."""
        for state in self._shards:
            state.close()
        for state in self._shards:
            _reap(state.process, patience_s)  # instant for one already reaped

    def close(self) -> None:
        """Terminate workers without collecting outcomes (abandoned run).

        Without this, a pipeline dropped before ``flush()`` would leave
        every worker blocked in ``recv`` (plus its pipe fds) until the
        host process exits — daemon workers bound the damage at exit, but
        long-lived hosts need the explicit release.  Also the unwind path
        for a constructor that failed mid-startup, where a record may
        hold a connection without a started process.

        Per-shard aborts are best-effort: an abort bound for a worker
        that already died raises the typed dead-worker failure, and
        propagating it here would skip aborting/joining every *later*
        worker — exactly the leak this method exists to prevent — so
        send failures are swallowed and the join sweep always runs.
        A no-op after :meth:`finish`, which released everything.
        """
        if not self._finished:
            self._finished = True
            self._abandon()

    def _abandon(self) -> None:
        for shard, state in enumerate(self._shards):
            if shard in self._retired or state.channel is None:
                continue  # worker already flushed and joined / never started
            try:
                self._send(shard, (MSG_ABORT, None))
            except ShardFailure:
                continue
        self._release(5)
