"""One shard of a partitioned pipeline, and the executor↔worker protocol.

A shard is simply a full :class:`~repro.core.pipeline.QualityDrivenPipeline`
(K-slack fronts → Synchronizer → MSWJ → adaptation loop) fed the subset of
tuples the :class:`~repro.parallel.router.KeyRouter` assigns it.  This
module holds what both executors share:

* :class:`ShardOutcome` — the record a shard hands back when it finishes
  (its remaining outputs plus its one accounting record, a
  :class:`~repro.core.pipeline.PipelineMetrics`);
* :func:`shard_worker` — the child-process loop run by the process
  executor.

The ``Outputs`` type and its merge helper (result lists vs. plain
counts, per ``PipelineConfig.collect_results``) live in
:mod:`repro.core.pipeline` and are re-exported here for the rest of the
parallel layer; a worker's own running outputs are
:data:`WorkerOutputs`.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..core.blocks import (
    BlockDecoder,
    BlockEncoder,
    CheckpointFrame,
    ResultAccumulator,
    ResultBlock,
    StateBlock,
    decode_state,
    encode_state,
    frame_checkpoint,
)
from ..core.pipeline import (
    Outputs,
    PipelineConfig,
    PipelineMetrics,
    QualityDrivenPipeline,
    merge_outputs,
)
from ..core.tuples import StreamTuple
from ..faults import FaultInjector, FaultPlan
from .channel import Channel
from .router import MigrationSpec, stable_hash
from .shm import RingDescriptor, ShmRing

#: Both rings of one shard, as picklable ``(name, capacity)`` handles:
#: parent→worker (batches, adopted state) then worker→parent (bulky
#: replies).
RingDescriptors = Tuple[RingDescriptor, RingDescriptor]

#: Safety net on a worker's reply-ring writes.  The parent reads every
#: reply as soon as its doorbell lands, so in a healthy run a reply
#: frame never waits for space; a parent wedged this long is gone.
RING_REPLY_TIMEOUT_S = 120.0


@dataclass
class ShardOutcome:
    """Everything one shard returns at the end of its run.

    ``metrics`` is the shard's whole accounting
    (:meth:`~repro.core.pipeline.QualityDrivenPipeline.account`): run
    metrics and, in its ``join`` field, the MSWJ operator's counters.
    Collected ``outputs`` cross the wire as a
    :class:`~repro.core.blocks.ResultBlock`; the executor decodes before
    it exposes the outcome.
    """

    shard: int
    outputs: Union[Outputs, ResultBlock]
    metrics: PipelineMetrics


@dataclass
class FailoverState:
    """A dead shard's recoverable state, handed to the pipeline layer.

    Built by the armed process executor when a shard's respawn budget is
    exhausted, out of what it already holds, as it holds it: ``states``
    is what a respawn would have restored — the last good checkpoint's
    block, then every block the shard adopted after it (replay-log
    adopt entries), all still encoded; ``replay`` is the raw
    post-checkpoint tuple batches from the replay log plus the
    never-dispatched parent-side buffer.  The pipeline layer adopts
    ``states`` into a scratch pipeline, evacuates that through the
    ordinary migration path to the surviving shards, and re-routes
    ``replay`` — graceful degradation instead of an aborted run.
    """

    states: List[StateBlock]
    replay: List[List[StreamTuple]]


class ShardFailure(RuntimeError):
    """A shard worker crashed, hung, or misbehaved — with a shard id.

    Subclasses :class:`RuntimeError` so callers of the pre-supervision
    executor API keep working; carries structure so the supervisor can
    react: ``recoverable`` distinguishes infrastructure failures (death,
    hang, integrity) from deterministic pipeline errors that replay
    would simply reproduce, and ``failover`` carries a dead shard's
    :class:`FailoverState` once its respawn budget is spent.
    """

    def __init__(
        self,
        shard: int,
        reason: str,
        *,
        recoverable: bool = True,
        failover: Optional[FailoverState] = None,
    ) -> None:
        super().__init__(f"shard {shard} worker failed: {reason}")
        self.shard = shard
        self.reason = reason
        self.recoverable = recoverable
        self.failover = failover


@dataclass
class CheckpointRequest:
    """Parent → worker: capture a checkpoint for ``(epoch, seq)``.

    ``epoch`` is the worker incarnation the parent believes it is
    talking to; ``seq`` the number of batches dispatched to the shard so
    far.  The worker echoes both in its :class:`CheckpointRecord`, and
    the parent rejects any record whose identity does not match —
    epoch/seq dedup is what keeps a recovered run's outputs
    exactly-once.
    """

    epoch: int
    seq: int


#: A checkpoint record's shipped-output leg: the worker's result delta
#: since its previous checkpoint, as a bare count or packed into a
#: :class:`~repro.core.blocks.ResultBlock` (collected results —
#: mirroring the outcome path).
CheckpointOutputs = Union[Outputs, ResultBlock]


@dataclass
class CheckpointRecord:
    """Worker → parent reply to a :class:`CheckpointRequest`.

    ``frame`` snapshots the full shard state (integrity-checked;
    see :class:`~repro.core.blocks.CheckpointFrame`); ``outputs`` is the
    **delta** of results produced since the previous checkpoint (the
    worker resets its accumulator after replying, so each result
    travels to the parent exactly once); ``metrics`` is the
    incarnation's **cumulative** accounting as of the capture
    (:meth:`~repro.core.pipeline.QualityDrivenPipeline.account`) — the
    parent continues the base it recorded at the incarnation's spawn
    with it.
    """

    shard: int
    epoch: int
    seq: int
    frame: CheckpointFrame
    outputs: CheckpointOutputs
    metrics: PipelineMetrics


# Message tags of the executor ↔ worker protocol.
MSG_BATCH = "batch"
MSG_FLUSH = "flush"
MSG_ABORT = "abort"
#: Rebalancing barrier, source side: payload is a
#: :class:`~repro.parallel.router.MigrationSpec`; the worker drains
#: to the beacon, carves out the moved slots' state, and replies
#: ``("state", [StateBlock, ...])`` — the only mid-stream reply in the
#: protocol (the parent blocks on it, making the barrier synchronous).
MSG_MIGRATE_OUT = "migrate_out"
#: Rebalancing barrier, destination side: payload is one
#: :class:`~repro.core.blocks.StateBlock`; no reply (pipe ordering
#: guarantees the adoption lands after every batch routed before it).
MSG_MIGRATE_IN = "migrate_in"
#: Liveness probe: payload is an opaque nonce, the worker echoes it back
#: as ``(MSG_PONG, nonce)``.  Because the pipe is ordered, a pong also
#: acknowledges every batch dispatched before the ping — the supervised
#: executor's heartbeat rides on this pair instead of trusting a
#: blocking ``recv()``.
MSG_PING = "ping"
#: Worker → parent heartbeat reply (echoed :data:`MSG_PING` nonce).
MSG_PONG = "pong"
#: Checkpoint barrier: payload is a :class:`CheckpointRequest`; the
#: worker snapshots its full state via the migration extraction path
#: (re-adopting it locally, so the capture is observationally a no-op)
#: and replies ``(MSG_CHECKPOINT, CheckpointRecord)``.
MSG_CHECKPOINT = "checkpoint"
#: Worker → parent credit grant: payload is the cumulative number of
#: tuple batches the worker has fully *processed* this incarnation.
#: Sent after every batch when the executor arms a credit window; the
#: parent stalls dispatch while ``dispatched - credited >= window``, so
#: a pipelined feeder can never overrun a slow shard by more than the
#: window (backpressure, not unbounded queueing).
MSG_CREDIT = "credit"
# Carriers of the process executor's tuple transfer.  The wire format is
# the same under all three: columnar :class:`~repro.core.blocks.TupleBlock`
# messages with a schema-negotiating encoder/decoder pair per shard
# connection, and a :class:`~repro.core.blocks.ResultBlock` for collected
# results on the return path.
#: Blocks over the worker's pipe.  The default: one flat object per
#: pipe message.
TRANSPORT_BLOCKS = "blocks"
#: Bulky messages (batches, adopted state; state lists, checkpoint
#: records, the outcome) carried over per-shard shared-memory rings
#: instead of the pipe: written once into a :class:`ShmRing` and read in
#: place by the peer, with the channel's sequence-numbered doorbells on
#: the pipe preserving ordering (and the supervisor's epoch/seq
#: accounting).  Messages too large for the ring fall back to the pipe
#: transparently; pongs, errors and credits always stay inline.
TRANSPORT_SHM = "shm"
#: Blocks over a TCP socket: the same pickled ``(tag, payload)``
#: protocol messages, carried in length-prefixed CRC-tagged frames by
#: :class:`~repro.distributed.runtime.SocketConnection` so a shard worker
#: can live in a :class:`~repro.distributed.runtime.NodeServer` process
#: on another machine.  ``shard_worker`` runs unchanged — its
#: :class:`~repro.parallel.channel.Channel` takes either connection.
TRANSPORT_SOCKET = "socket"

TRANSPORTS = (TRANSPORT_BLOCKS, TRANSPORT_SHM, TRANSPORT_SOCKET)


def slot_classifier(spec: MigrationSpec) -> Callable[[StreamTuple], Optional[int]]:
    """Build ``tuple → destination shard (or None)`` from a migration spec.

    Mirrors the router's slot computation exactly — same per-stream key
    attributes, same :func:`~repro.parallel.router.stable_hash`, same
    slot count — so a tuple is classified as moving iff the parent's
    router will route its key to the new shard afterwards.
    """
    attr_of = spec.attr_by_stream
    num_slots = spec.num_slots
    moves = spec.moves

    def classify(t: StreamTuple) -> Optional[int]:
        return moves.get(
            stable_hash(t.values.get(attr_of[t.stream])) % num_slots
        )

    return classify


def value_classifier(spec: MigrationSpec) -> Callable[[object], Optional[int]]:
    """Value-level twin of :func:`slot_classifier`.

    Maps a partition-attribute *value* (not a tuple) to its destination
    shard, letting a tiered window store classify a cold segment from
    its attribute column or value summary without decoding the segment —
    the two classifiers agree by construction because the tuple form
    only ever hashes ``t.values.get(attr)``.
    """
    num_slots = spec.num_slots
    moves = spec.moves

    def classify_value(value: object) -> Optional[int]:
        return moves.get(stable_hash(value) % num_slots)

    return classify_value


def extract_shard_state(
    pipeline: QualityDrivenPipeline,
    shard: int,
    spec: MigrationSpec,
) -> Tuple[Outputs, List[StateBlock]]:
    """The one way state leaves a pipeline for other shards.

    Source side of the migration barrier, whoever runs it: a worker on
    ``MSG_MIGRATE_OUT``, the serial executor in-process, and the
    pipeline layer evacuating a dead shard's scratch pipeline on
    failover.  Runs the pipeline's beacon drain + extraction
    (:meth:`~repro.core.pipeline.QualityDrivenPipeline.prepare_migration`)
    and groups the carved-out state into one encoded :class:`StateBlock`
    per destination shard.  Returns ``(drain outputs, state blocks)``.

    The extraction is tier-aware: passing the spec's per-stream key
    attributes plus :func:`value_classifier` lets a
    :class:`~repro.join.store.TieredStore` classify cold segments from
    their attribute columns, so a segment whose keys all move to one
    destination travels as an already-encoded
    :class:`~repro.core.blocks.ColdSegment` — no decode/re-encode on
    the barrier's hot path.
    """
    outputs, per_dest_windows, per_dest_pending = pipeline.prepare_migration(
        slot_classifier(spec),
        spec.beacon_ts,
        spec.drain_floor_ts,
        attr_by_stream=spec.attr_by_stream,
        value_classifier=value_classifier(spec),
    )
    slots_by_dest: Dict[int, List[int]] = {}
    for slot, dest in sorted(spec.moves.items()):
        slots_by_dest.setdefault(dest, []).append(slot)
    states = [
        encode_state(
            shard,
            dest,
            tuple(slots),
            per_dest_windows.get(dest, []),
            per_dest_pending.get(dest, []),
        )
        for dest, slots in sorted(slots_by_dest.items())
    ]
    return outputs, states


def adopt_shard_state(
    pipeline: QualityDrivenPipeline, state: StateBlock
) -> Outputs:
    """The one way a state block enters a pipeline: decode, adopt.

    Destination side of the migration barrier, a respawned worker's
    restore, and the failover scratch pipeline alike.
    """
    return pipeline.adopt_migration(*decode_state(state))


#: Dummy partition attribute of the checkpoint extraction.  No tuple
#: carries it, so a tiered store's cold segments classify from an
#: all-``None`` column — uniformly group 0 — and travel as
#: already-frozen blocks without a decode.
_CHECKPOINT_ATTR = "__checkpoint__"


def _checkpoint_group(t: StreamTuple) -> Optional[int]:
    """Classify-all: every tuple belongs to checkpoint group 0."""
    return 0


def _checkpoint_value_group(value: object) -> Optional[int]:
    """Value-level twin of :func:`_checkpoint_group` (segments)."""
    return 0


def checkpoint_shard_state(
    pipeline: QualityDrivenPipeline,
    shard: int,
    request: CheckpointRequest,
) -> Tuple[CheckpointFrame, Outputs]:
    """Capture a shard's full state as a checkpoint frame, losslessly.

    Reuses the migration extraction with a classify-*everything*
    predicate and a zero barrier: ``beacon_ts=0`` / ``drain_floor_ts=0``
    never advances the disorder clocks (they are monotone), so the drain
    emits nothing, and ``advance + drain_below`` over a negative
    watermark releases nothing — the extraction is the shard's complete
    window + in-flight state with **no observable side effect**.  The
    state is framed (pickled + CRC) *before* the local re-adoption, so
    the frame is a true snapshot; re-adopting the extracted items
    restores the pipeline exactly (pending tuples re-enter the K-slack
    front below the clock they left at, so the two-phase adopt releases
    nothing either).  Returns ``(frame, outputs)`` where ``outputs`` is
    whatever the barrier produced — empty by the argument above, but
    merged by the caller anyway so the accounting stays airtight.
    """
    outputs, window_groups, pending_groups = pipeline.prepare_migration(
        _checkpoint_group,
        0,
        0,
        attr_by_stream=[_CHECKPOINT_ATTR] * pipeline.num_streams,
        value_classifier=_checkpoint_value_group,
    )
    window = window_groups.get(0, [])
    pending = pending_groups.get(0, [])
    state = encode_state(shard, shard, (), window, pending)
    frame = frame_checkpoint(shard, request.epoch, request.seq, state)
    readopted = pipeline.adopt_migration(window, pending)
    collect = pipeline.config.collect_results
    outputs = merge_outputs(collect, outputs, readopted)
    return frame, outputs


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with the cyclic collector paused; put it back as found.

    A batch, a barrier or a flush allocates an object or two per tuple
    and result, none of them cyclic: results die by refcount once a
    :class:`~repro.core.blocks.ResultAccumulator` has absorbed them, and
    what survives (window state, collected results) is freed by
    refcount too.  The collector would walk that growing heap again
    every few hundred allocations and find nothing.  If it was on, one
    young-generation pass on the way out settles what the block
    allocated, inside the block that caused it.

    Assumes the caller owns its process: the collector is process-wide,
    so other threads' allocations go unscanned for as long as the block
    runs.
    """
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()
            gc.collect(1)


#: A worker's running outputs: a bare count, or — for collected results
#: — the :class:`~repro.core.blocks.ResultBlock` it will ship, under
#: construction, so no result object outlives the batch that made it.
WorkerOutputs = Union[ResultAccumulator, int]


def _absorb(outputs: WorkerOutputs, produced: Outputs) -> WorkerOutputs:
    """``outputs`` with one more pipeline return folded in."""
    if isinstance(outputs, int):
        return outputs + produced  # type: ignore[operator]
    outputs.extend(produced)  # type: ignore[arg-type]
    return outputs


def _shipped(outputs: WorkerOutputs) -> CheckpointOutputs:
    """The wire form of ``outputs`` (a fresh encoder per block: each
    carries its schema inline)."""
    if isinstance(outputs, int):
        return outputs
    return outputs.block(BlockEncoder())


def shard_worker(
    conn: Connection,
    shard: int,
    config: PipelineConfig,
    faults: Optional[FaultPlan] = None,
    rings: Optional[RingDescriptors] = None,
    grant_credits: bool = False,
) -> None:
    """Child-process loop: drain tuple batches, flush, send the outcome back.

    Protocol (parent → child): any number of ``(MSG_BATCH, payload)``
    messages — ``payload`` is a :class:`~repro.core.blocks.TupleBlock` —
    then exactly one ``(MSG_FLUSH, None)``.  The child replies with a
    single ``("ok", ShardOutcome)`` — or ``("error", text)`` if the
    pipeline raised — and exits.  Outputs accumulate in the child
    (:data:`WorkerOutputs`: collected results go straight into the
    :class:`~repro.core.blocks.ResultBlock` they will travel in) and
    travel back once, in the outcome's ``outputs`` field (the parent
    decodes before exposing the outcome), so steady-state IPC is just
    the batched tuple stream.  ``(MSG_ABORT, None)`` makes the child
    exit immediately with no reply — the shutdown path for abandoned
    runs; an explicit message rather than pipe EOF because under the
    ``fork`` start method sibling workers inherit copies of earlier pipe
    ends, so a parent-side close alone does not reach every child.

    Two rebalancing messages may interleave with the batch stream:
    ``(MSG_MIGRATE_OUT, MigrationSpec)`` drains the pipeline to the
    spec's beacon, extracts the moved slots' state, and replies
    ``("state", [StateBlock, ...])`` — the barrier's synchronous leg;
    ``(MSG_MIGRATE_IN, StateBlock)`` adopts migrated state with no
    reply.  Results produced by either leg join the worker's output
    accumulator like any batch results.

    Supervision extends the protocol with three tags: ``(MSG_PING,
    nonce)`` echoes back ``(MSG_PONG, nonce)`` (a liveness probe that,
    by pipe ordering, also acknowledges every earlier batch);
    ``(MSG_CHECKPOINT, CheckpointRequest)`` snapshots the full shard
    state via :func:`checkpoint_shard_state` and replies
    ``(MSG_CHECKPOINT, CheckpointRecord)`` carrying the frame, the
    *delta* of outputs since the previous checkpoint (the accumulator
    resets after the reply ships), and the incarnation's cumulative
    accounting record.  A :class:`~repro.faults.FaultPlan` in ``faults``
    arms a deterministic :class:`~repro.faults.FaultInjector` around the
    batch, migration, and checkpoint paths — the armed executor's chaos
    harness.

    The loop talks through one :class:`~repro.parallel.channel.Channel`
    over ``conn`` and never learns which carrier a message took.  Under
    ``transport="shm"`` the executor also hands over ``rings`` —
    descriptors of the shard's inbound and outbound
    :class:`~repro.parallel.shm.ShmRing` pair — which the channel
    attaches; the three bulky replies (state lists, checkpoint records,
    the outcome) are then sent ``bulky`` and ride the outbound ring,
    with the fault injector's ``crash-mid-ring-write`` hook sitting
    between pickling and the ring write.  With ``grant_credits`` the
    worker confirms every *processed* batch with ``(MSG_CREDIT,
    cumulative count)`` — the pipelined feeder's backpressure signal.

    Every message that runs the pipeline (a batch, either migration leg,
    a checkpoint, the flush) is handled under :func:`collector_paused`,
    and its reply goes out once the collector is back as found.

    Dispatch is exhaustive over the ``MSG_*`` tags (the
    ``protocol-exhaustiveness`` lint rule pins this): any other tag
    raises, surfacing as an ``("error", ...)`` reply, instead of being
    silently treated as a tuple batch.
    """
    channel = Channel(conn, ring_timeout_s=RING_REPLY_TIMEOUT_S)
    try:
        if rings is not None:
            channel.recv_ring = ShmRing.attach(*rings[0])
            channel.send_ring = ShmRing.attach(*rings[1])
        pipeline = QualityDrivenPipeline(config)
        collect = config.collect_results
        decoder = BlockDecoder()
        armed = faults.for_shard(shard) if faults is not None else ()
        injector: Optional[FaultInjector] = FaultInjector(armed) if armed else None
        if injector is not None:
            # The socket-drop fault tears down the transport from inside
            # the worker; hand the injector the live channel so it can.
            injector.connection = channel
            channel.on_ring_write = injector.on_ring_write
        outputs: WorkerOutputs = ResultAccumulator() if collect else 0
        consumed = 0
        while True:
            tag, payload = channel.recv()
            if tag == MSG_ABORT:
                return
            if tag == MSG_FLUSH:
                break
            if tag == MSG_MIGRATE_OUT:
                with collector_paused():
                    drained, states = extract_shard_state(pipeline, shard, payload)
                    outputs = _absorb(outputs, drained)
                    if injector is not None:
                        injector.on_migrate()
                channel.send(("state", states), bulky=True)
                continue
            if tag == MSG_MIGRATE_IN:
                with collector_paused():
                    adopted = adopt_shard_state(pipeline, payload)
                    outputs = _absorb(outputs, adopted)
                continue
            if tag == MSG_PING:
                channel.send((MSG_PONG, payload))
                continue
            if tag == MSG_CHECKPOINT:
                with collector_paused():
                    frame, barrier = checkpoint_shard_state(pipeline, shard, payload)
                    outputs = _absorb(outputs, barrier)
                    if injector is not None:
                        frame.payload = injector.corrupt_payload(frame.payload)
                    record = CheckpointRecord(
                        shard,
                        payload.epoch,
                        payload.seq,
                        frame,
                        _shipped(outputs),
                        pipeline.account(),
                    )
                channel.send((MSG_CHECKPOINT, record), bulky=True)
                # The delta shipped exactly once; restart the
                # accumulator so the next checkpoint (or the outcome)
                # carries only newer results.
                outputs = ResultAccumulator() if collect else 0
                continue
            if tag != MSG_BATCH:
                # Exhaustive dispatch: an unknown tag is a protocol bug
                # (or version skew) — refusing it here beats silently
                # feeding its payload to the join as a tuple batch.
                raise ValueError(f"unknown protocol message tag {tag!r}")
            with collector_paused():
                if injector is not None:
                    injector.before_batch()
                # Lazy decode: blocks materialize tuples here, right at
                # the point of consumption — the pipe and the parent
                # never hold per-tuple objects for this batch.
                batch = decoder.decode(payload)
                outputs = _absorb(outputs, pipeline.process_batch(batch))
                if injector is not None:
                    injector.after_batch()
            consumed += 1
            if grant_credits:
                channel.send((MSG_CREDIT, consumed))
        with collector_paused():
            outputs = _absorb(outputs, pipeline.flush())
            outcome = ShardOutcome(shard, _shipped(outputs), pipeline.account())
        channel.send(("ok", outcome), bulky=True)
    except Exception as exc:  # surfaced by the parent as a RuntimeError
        try:
            channel.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:  # parent already gone; nothing left to report to
            pass
    finally:
        channel.close()
