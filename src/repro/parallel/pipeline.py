"""Hash-partitioned parallel execution of the quality-driven pipeline.

:class:`PartitionedPipeline` scales the single-operator
:class:`~repro.core.pipeline.QualityDrivenPipeline` out to N shards, each
a *complete* pipeline (its own K-slack buffers, Synchronizer, MSWJ and
adaptation loop), with a :class:`~repro.parallel.router.KeyRouter`
hash-routing every input tuple by the condition's equi-join key.  The
shards run behind one of two interchangeable executors
(:mod:`repro.parallel.executors`): in-process serial (deterministic; used
by the invariance tests) or per-shard worker processes with batched IPC.

Semantics
---------
* **Equi-partitionable conditions** (the router is :attr:`exact`): the
  shards partition the result space, so the union of shard outputs is
  exactly the single-pipeline result whenever disorder handling is
  lossless — in-order input, or a fixed K covering the maximum delay.
  Under *lossy* disorder handling each shard adapts K to its own
  substream, so recall can deviate from (and typically exceeds) the
  single pipeline's: a per-shard synchronizer forwards fewer stragglers.
* **Non-partitionable conditions** (theta/band-only predicates, star
  joins over distinct attributes, cross joins): every tuple is broadcast,
  each shard maintains the full join state, and only the designated shard
  0 emits — the result multiset is preserved, but there is no partition
  parallelism and per-shard disorder handling remains approximate in the
  lossy regime, so prefer ``num_shards=1`` for such conditions.
  Broadcast deliberately keeps every shard's state complete (each could
  be promoted to emitter), at the cost of the full join replicated per
  shard — merged metrics count each replica's work, e.g.
  ``tuples_processed`` is N× the input size.

Results arrive through :meth:`PartitionedPipeline.process` (whatever the
executor makes available immediately) and :meth:`PartitionedPipeline.flush`
(the rest, merged across shards in canonical ``(ts, result key)`` order);
metrics merge via :meth:`~repro.core.pipeline.PipelineMetrics.merge`.

Skew handling
-------------
Exact routing goes through a virtual-slot table
(:mod:`repro.parallel.router`), and ``rebalance=True`` arms a
:class:`~repro.parallel.rebalancer.Rebalancer` that repairs shard-load
skew at runtime by reassigning slots and migrating their window +
in-flight state between shards over a synchronous drain barrier
(encoded :class:`~repro.core.blocks.StateBlock` messages under either
executor).  Under lossless disorder handling the rebalanced run's
merged result sequence and summed join statistics are byte-identical to
static routing — rebalancing is purely a load-balance/performance knob.
"""

from __future__ import annotations

from itertools import chain, count
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.pipeline import (
    PipelineConfig,
    PipelineMetrics,
    QualityDrivenPipeline,
    chunked,
    empty_outputs,
    replay,
)
from ..core.tuples import JoinResult, StreamTuple
from ..faults import FaultPlan
from ..join.store import StoreMetrics
from ..streams.source import Dataset
from .executors import (
    DEFAULT_BATCH_SIZE,
    ProcessExecutor,
    SerialExecutor,
    ShardExecutor,
    check_process_options,
)
from .rebalancer import DEFAULT_MIN_SAMPLE, DEFAULT_THRESHOLD, Rebalancer
from .router import DEFAULT_SLOTS_PER_SHARD, KeyRouter
from .shard import (
    TRANSPORT_BLOCKS,
    TRANSPORT_SOCKET,
    Outputs,
    ShardFailure,
    ShardOutcome,
    adopt_shard_state,
    collector_paused,
    extract_shard_state,
    merge_outputs,
)
from .shm import DEFAULT_RING_BYTES
from .supervision import SupervisionConfig

#: Routed tuples between rebalance checks (``rebalance_interval``
#: default).  Each check is one pass over the slot counters; an actual
#: migration costs a synchronous drain barrier, so the cadence leans
#: coarse.
DEFAULT_REBALANCE_INTERVAL = 4_096

#: An executor name or a factory ``(config, num_shards) -> ShardExecutor``.
ExecutorSpec = Union[str, Callable[[PipelineConfig, int], ShardExecutor]]


class PartitionedPipeline:
    """N hash-partitioned shards behind the single-pipeline interface.

    Parameters
    ----------
    config:
        The shared per-shard :class:`~repro.core.pipeline.PipelineConfig`
        (window sizes, condition, recall requirement, policy, ...).
    num_shards:
        Number of shard pipelines.
    executor:
        ``"serial"`` (default), ``"process"``
        (:class:`~repro.parallel.executors.ProcessExecutor`), or a
        factory callable ``(config, num_shards) -> ShardExecutor``.
        ``"supervised"`` is a synonym for ``executor="process",
        supervision=SupervisionConfig()`` — it fills in a default, it
        does not select a different executor.
    batch_size:
        Tuples buffered per shard before one IPC dispatch (``"process"``
        executor only).
    transport:
        Carrier of the ``"process"`` executor's columnar
        :class:`~repro.core.blocks.TupleBlock` /
        :class:`~repro.core.blocks.ResultBlock` messages:
        :data:`~repro.parallel.shard.TRANSPORT_BLOCKS` (default — the
        worker's pipe), :data:`~repro.parallel.shard.TRANSPORT_SHM`
        (a per-shard shared-memory ring, the pipe reduced to a
        doorbell), or :data:`~repro.parallel.shard.TRANSPORT_SOCKET`
        (TCP to workers on ``nodes``).  Validated under every executor.
    credit_window:
        Arm credit-based backpressure on the process executor: at most
        this many dispatched-but-unprocessed batches per shard; the
        parent stalls (never drops, never deadlocks) until the worker
        grants credit.  ``None`` (default) keeps the OS pipe / ring
        capacity as the only flow control.
    ring_bytes:
        Per-direction shared-memory ring capacity for
        ``transport="shm"`` (ignored otherwise).
    rebalance:
        Enable skew-aware slot rebalancing (default off).  Every
        ``rebalance_interval`` routed tuples a
        :class:`~repro.parallel.rebalancer.Rebalancer` inspects the
        router's per-slot load counters; when the max/mean shard-load
        imbalance exceeds ``rebalance_threshold`` it recomputes the
        slot→shard table (greedy LPT) and migrates the moved slots'
        window + in-flight state between shards through a synchronous
        drain barrier.  A pure performance knob: under lossless
        disorder handling the merged result sequence and summed join
        statistics are identical to static routing.  Requires an
        exactly partitionable condition (broadcast routing is rejected)
        and an executor implementing the migration protocol (both
        built-ins do).
    rebalance_interval:
        Routed tuples between rebalance checks.
    slots_per_shard:
        Virtual routing slots per shard (table size =
        ``slots_per_shard × num_shards``); migration granularity.
    rebalance_threshold:
        Max/mean shard-load ratio that triggers a plan.
    supervision:
        Heartbeat / checkpoint / respawn tuning
        (:class:`~repro.parallel.supervision.SupervisionConfig`).
        Giving one arms supervision on the ``"process"`` executor;
        the serial executor has no workers to supervise and rejects it.
    fault_plan:
        Deterministic fault-injection schedule
        (:class:`~repro.faults.FaultPlan`) armed inside the process
        executor's workers — testing/chaos only.  Arms supervision too
        (with default tuning unless ``supervision`` is given); rejected
        by the serial executor.
    nodes:
        ``transport="socket"`` only: the ``(host, port)`` addresses of
        the :class:`~repro.distributed.runtime.NodeServer` processes that
        host the shard workers.  Shards are dealt round-robin across the
        nodes; the executor and its protocol are unchanged (heartbeats
        and checkpoint/replay included, with respawns reconnecting —
        failing over to surviving nodes when a whole node is gone).
    """

    def __init__(
        self,
        config: PipelineConfig,
        num_shards: int,
        executor: ExecutorSpec = "serial",
        batch_size: int = DEFAULT_BATCH_SIZE,
        transport: str = TRANSPORT_BLOCKS,
        rebalance: bool = False,
        rebalance_interval: int = DEFAULT_REBALANCE_INTERVAL,
        slots_per_shard: int = DEFAULT_SLOTS_PER_SHARD,
        rebalance_threshold: float = DEFAULT_THRESHOLD,
        supervision: Optional[SupervisionConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        credit_window: Optional[int] = None,
        ring_bytes: int = DEFAULT_RING_BYTES,
        nodes: Optional[Sequence] = None,
    ) -> None:
        # Everything is validated before any executor exists: a rejected
        # configuration must not leak already-started worker processes.
        check_process_options(transport, credit_window, nodes)
        if executor == "supervised":
            executor = "process"
            if supervision is None:
                supervision = SupervisionConfig()
        elif executor == "serial" and (
            supervision is not None
            or fault_plan is not None
            or transport == TRANSPORT_SOCKET
        ):
            raise ValueError(
                "supervision, fault_plan and transport='socket' need worker "
                "processes: they require the 'process' executor, not 'serial'"
            )
        self.config = config
        self.num_shards = num_shards
        self.router = KeyRouter(
            config.condition,
            len(config.window_sizes_ms),
            num_shards,
            slots_per_shard=slots_per_shard,
        )
        if rebalance_interval < 1:
            raise ValueError(
                f"rebalance_interval must be >= 1, got {rebalance_interval}"
            )
        if rebalance:
            # Raises for broadcast conditions: there is no partition key,
            # hence no slots to move (broadcast rejects rebalancing
            # instead of silently ignoring it).  The planner's minimum
            # sample never exceeds the check interval: counters decay at
            # every check, so a small interval with the default minimum
            # would silently never plan.
            self._rebalancer: Optional[Rebalancer] = Rebalancer(
                self.router,
                threshold=rebalance_threshold,
                min_sample=min(DEFAULT_MIN_SAMPLE, rebalance_interval),
            )
        else:
            self._rebalancer = None
        if executor == "serial":
            self.executor: ShardExecutor = SerialExecutor(config, num_shards)
        elif executor == "process":
            self.executor = ProcessExecutor(
                config,
                num_shards,
                batch_size=batch_size,
                transport=transport,
                supervision=supervision,
                fault_plan=fault_plan,
                credit_window=credit_window,
                ring_bytes=ring_bytes,
                nodes=nodes,
            )
        elif callable(executor):
            self.executor = executor(config, num_shards)
        else:
            raise ValueError(
                f"executor must be 'serial', 'process', 'supervised' or a "
                f"factory, got {executor!r}"
            )
        if self._rebalancer is not None and (
            type(self.executor).migrate is ShardExecutor.migrate
            or type(self.executor).adopt is ShardExecutor.adopt
        ):
            # Fail fast, like the broadcast check: without this, a custom
            # executor lacking the migration protocol would die with all
            # its processed state only when the first rebalance fires.
            name = type(self.executor).__name__
            self.executor.close()
            raise ValueError(
                f"rebalance=True requires an executor implementing the "
                f"state-migration protocol (migrate/adopt); {name} keeps "
                f"the non-migrating defaults"
            )
        # Broadcast replicates the full join on every shard; emitting from
        # shard 0 alone keeps the output multiset exact.
        self._emit_shards = (
            frozenset(range(num_shards)) if self.router.exact else frozenset((0,))
        )
        self._rebalance_interval = rebalance_interval
        self._routed_since_check = 0
        #: Rebalance plans applied (table rewrites with state migration).
        self.rebalances = 0
        #: Total slots whose shard changed across all rebalances.
        self.slots_moved = 0
        #: Elastic resizes applied (:meth:`grow` + :meth:`shrink` calls).
        self.resizes = 0
        #: Shards retired by :meth:`shrink` (their outcomes were captured
        #: at retirement; they own no slots and receive no traffic).
        self._retired_shards: set = set()
        #: Shards permanently failed over to survivors (armed supervision
        #: only: respawn-budget exhaustion demotes the shard and its
        #: slots migrate to the survivors).
        self.failovers = 0
        self._dead_shards: set = set()
        self._flushed = False
        self._outcomes: Optional[List[ShardOutcome]] = None

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def flushed(self) -> bool:
        return self._flushed

    @property
    def metrics(self) -> PipelineMetrics:
        """The shards' accounting records merged into one.

        Live for the serial executor (each access captures every shard
        pipeline afresh); for the process executor the records only
        travel back at :meth:`flush`, so this raises before then.
        """
        if self._outcomes is not None:
            parts = [outcome.metrics for outcome in self._outcomes]
        elif isinstance(self.executor, SerialExecutor):
            parts = [pipeline.account() for pipeline in self.executor.pipelines]
        else:
            raise RuntimeError(
                "shard metrics unavailable: under the process executor they "
                "only travel back on a successful flush()"
            )
        return PipelineMetrics.merge(parts)

    def join_statistics(self) -> Dict[str, int]:
        """Summed MSWJ counters across shards (see ``JoinStatistics``):
        the ``join`` field of :attr:`metrics`, available when that is."""
        return self.metrics.join

    def store_metrics(self) -> List[List["StoreMetrics"]]:
        """Per-shard, per-stream window-store snapshots (serial executor only).

        A live view into each shard's :class:`~repro.join.store.WindowStore`
        state sizes — resident objects, hot-tier objects, encoded cold
        bytes, decode hits/misses.  Under the process executor the stores
        live in child processes; use the sampled peaks that ride back in
        :attr:`metrics` (``stream_resident_objects`` et al.) instead.
        """
        if isinstance(self.executor, SerialExecutor):
            return [p.store_metrics() for p in self.executor.pipelines]
        raise RuntimeError(
            "live store metrics unavailable: under the process executor "
            "use the sampled peaks in .metrics after flush()"
        )

    # ------------------------------------------------------------------
    # streaming interface (mirrors QualityDrivenPipeline)
    # ------------------------------------------------------------------

    def process(self, t: StreamTuple) -> Outputs:
        """Feed one raw tuple; return results made available right now."""
        return self.process_batch((t,))

    def process_batch(self, batch: Sequence[StreamTuple]) -> Outputs:
        """Feed a burst of raw tuples; return results made available now.

        Routes the whole burst up front through the vectorized
        :meth:`~repro.parallel.router.KeyRouter.route_batch` single-pass
        partitioner, then dispatches **one** batch per shard per call
        (in shard order) instead of one envelope per tuple.  Each shard
        still sees its sub-stream in arrival order, so every shard's
        internal result sequence — and therefore the result multiset and
        the ts-ordered :meth:`flush` sequence — is identical to
        per-tuple feeding.  Only the interleaving of *immediately
        returned* results across shards differs: within one call they
        come back grouped by shard rather than by arrival (the serial
        executor returns them here; the process executor defers
        everything to :meth:`flush` regardless).
        """
        if self._flushed:
            raise RuntimeError("pipeline already flushed; create a new instance")
        collect = self.config.collect_results
        routed = self.router.route_batch(batch)
        if routed is None:
            # Broadcast: every shard consumes the same (read-only) burst;
            # no per-shard copies.
            per_shard: List[Sequence[StreamTuple]] = [batch] * self.num_shards
        else:
            per_shard = routed
        outputs = empty_outputs(collect)
        submit_batch = self.executor.submit_batch
        emit_shards = self._emit_shards
        for shard, shard_batch in enumerate(per_shard):
            if not shard_batch:
                continue
            try:
                produced = submit_batch(shard, shard_batch)
            except ShardFailure as failure:
                produced = self._fail_over(failure)
            if shard in emit_shards:
                outputs = merge_outputs(collect, outputs, produced)
        if self._rebalancer is not None:
            self._routed_since_check += len(batch)
            if self._routed_since_check >= self._rebalance_interval:
                outputs = merge_outputs(collect, outputs, self._run_rebalance())
        return outputs

    def _run_rebalance(self) -> Outputs:
        """One rebalance check, and — when a plan lands — its execution.

        The migration barrier is synchronous and strictly ordered: every
        source shard is drained and its moved-slot state extracted
        *before* any destination adopts, and the router's slot table only
        flips once all state has landed — so no tuple can race its own
        window state across the parent.  Results the barrier produces
        (source drains, destination adoptions under the serial executor)
        are returned like any :meth:`process` output.
        """
        self._routed_since_check = 0
        moves = self._rebalancer.plan()
        if not moves:
            return empty_outputs(self.config.collect_results)
        outputs = self._execute_migration(moves)
        self.rebalances += 1
        self.slots_moved += len(moves)
        return outputs

    def _execute_migration(self, moves: Dict[int, int]) -> Outputs:
        """Run the drain/handoff barrier for a slot-move plan.

        Shared by rebalancing and the elastic :meth:`grow` / :meth:`shrink`
        paths: group moves by current owner, drain + extract each source
        to the router's watermark beacon, adopt every state block at its
        destination, and only then flip the slot table.
        """
        collect = self.config.collect_results
        outputs = empty_outputs(collect)
        router = self.router
        by_source: Dict[int, Dict[int, int]] = {}
        for slot, dest in moves.items():
            by_source.setdefault(router.slot_table[slot], {})[slot] = dest
        states = []
        for source in sorted(by_source):
            drained, source_states = self.executor.migrate(
                source, router.migration_spec(by_source[source])
            )
            outputs = merge_outputs(collect, outputs, drained)
            states.extend(source_states)
        for state in states:
            adopted = self.executor.adopt(state.dest, state)
            outputs = merge_outputs(collect, outputs, adopted)
        router.reassign(moves)
        return outputs

    # ------------------------------------------------------------------
    # elastic resize (node join / leave)
    # ------------------------------------------------------------------

    def grow(self, count: int = 1) -> Outputs:
        """Admit ``count`` new shards mid-stream (elastic node join).

        Lifecycle: the executor spawns the new workers first
        (:meth:`~repro.parallel.executors.ShardExecutor.add_shard`), the
        router computes a deterministic even-split move plan over its
        *fixed* slot space (:meth:`~repro.parallel.router.KeyRouter.grow`),
        and the ordinary drain/handoff barrier migrates the moved slots'
        state before the table flips — so under lossless disorder
        handling the merged output sequence and summed join statistics
        are byte-identical to having started with the larger pool.
        Requires exact routing (broadcast has no slots to hand over).
        Returns whatever results the barrier made available immediately.
        """
        if self._flushed:
            raise RuntimeError("pipeline already flushed; create a new instance")
        if not self.router.exact:
            raise ValueError(
                "elastic grow requires an exactly partitionable condition"
            )
        for _ in range(count):
            self.executor.add_shard()
        moves = self.router.grow(count)
        self.num_shards = self.router.num_shards
        self._emit_shards = frozenset(range(self.num_shards))
        outputs = self._execute_migration(moves)
        self.resizes += 1
        self.slots_moved += len(moves)
        return outputs

    def shrink(self, shard: int) -> Outputs:
        """Retire ``shard`` mid-stream (elastic node leave).

        Its slots are dealt round-robin to the surviving shards and
        their state handed over through the same drain/handoff barrier a
        rebalance uses; once the shard owns nothing it is flushed early
        and its outcome stashed for :meth:`flush`.  Shard ids are
        positional, so the pool keeps its indices — the retired shard
        simply never receives traffic again (which also disarms
        ``rebalance``: its planner deals slots to every shard index).
        """
        if self._flushed:
            raise RuntimeError("pipeline already flushed; create a new instance")
        if not self.router.exact:
            raise ValueError(
                "elastic shrink requires an exactly partitionable condition"
            )
        if shard in self._retired_shards or shard in self._dead_shards:
            raise ValueError(f"shard {shard} is already retired or dead")
        moves = self._evacuation_moves(shard)
        if moves is None:
            raise ValueError("cannot retire the last live shard")
        outputs = self._execute_migration(moves) if moves else empty_outputs(
            self.config.collect_results
        )
        self.executor.retire_shard(shard)
        self._retired_shards.add(shard)
        # As after a failover: the rebalancer's plan geometry assumes
        # every shard is live, and would hand slots back to this one.
        self._rebalancer = None
        self.resizes += 1
        self.slots_moved += len(moves)
        return outputs

    def _evacuation_moves(self, leaving: int) -> Optional[Dict[int, int]]:
        """Deal ``leaving``'s slots round-robin to the surviving shards
        (not retired, not dead, not ``leaving``), as a ``slot → shard``
        plan; ``None`` when no shard is left to take them."""
        survivors = [
            s
            for s in range(self.num_shards)
            if s != leaving
            and s not in self._retired_shards
            and s not in self._dead_shards
        ]
        if not survivors:
            return None
        owned = [
            slot
            for slot, owner in enumerate(self.router.slot_table)
            if owner == leaving
        ]
        return {slot: survivors[i % len(survivors)] for i, slot in enumerate(owned)}

    def _fail_over(self, failure: ShardFailure) -> Outputs:
        """Migrate a permanently dead shard's slots and state to survivors.

        Entered when the armed process executor exhausts a shard's respawn
        budget and hands back a :class:`~repro.parallel.shard.ShardFailure`
        carrying :class:`~repro.parallel.shard.FailoverState` — the
        blocks a respawn would have restored plus the replay-log batches
        accepted after them.  Failover *is* a migration: the blocks are
        adopted into a scratch pipeline here in the parent (standing in
        for the respawn that never came), the dead shard's virtual slots
        are dealt round-robin to the surviving shards, and the scratch
        pipeline is evacuated through
        :func:`~repro.parallel.shard.extract_shard_state` — the same
        classification, frozen-segment handling and per-destination
        grouping as a live barrier; this method has none of its own.
        The resulting blocks are adopted through the executor's
        migration protocol and the replay-log batches re-routed through
        the rewritten slot table.  Determinism carries over: adoption
        inserts by canonical timestamp order and the replayed
        sub-streams preserve arrival order, so the merged flush sequence
        and summed join statistics match an undisturbed run.

        The scratch pipeline must come out of the evacuation empty: the
        moves cover every slot the dead shard owned, so state left
        behind means the router and the shard disagreed about ownership
        — a non-recoverable failure, never a guess at a destination.

        Failures that carry no failover state (recovery disabled,
        non-recoverable pipeline errors), broadcast routing (every shard
        holds the full state — survivors cannot absorb an emitter), and
        runs without a survivor re-raise the failure unchanged.  After a
        failover the rebalancer is disarmed: its load counters and plan
        geometry assume all shards are live.
        """
        payload = failure.failover
        if payload is None or not self.router.exact or self.num_shards < 2:
            raise failure
        moves = self._evacuation_moves(failure.shard)
        if moves is None:
            raise failure
        dead = failure.shard
        self._dead_shards.add(dead)
        collect = self.config.collect_results
        scratch = QualityDrivenPipeline(self.config)
        outputs = empty_outputs(collect)
        for state in payload.states:
            outputs = merge_outputs(
                collect, outputs, adopt_shard_state(scratch, state)
            )
        # barrier=False: checkpoint-derived state takes the zero barrier.
        drained, states = extract_shard_state(
            scratch, dead, self.router.migration_spec(moves, barrier=False)
        )
        outputs = merge_outputs(collect, outputs, drained)
        if (
            any(len(window) for window in scratch.join.windows)
            or any(kslack.buffered for kslack in scratch.kslacks)
            or scratch.synchronizer.buffered
        ):
            raise ShardFailure(
                dead,
                "failover left state behind that no surviving shard's "
                "slots cover (router drift)",
                recoverable=False,
            ) from failure
        for state in states:
            adopted = self.executor.adopt(state.dest, state)
            outputs = merge_outputs(collect, outputs, adopted)
        self.router.reassign(moves)
        self._rebalancer = None
        self.failovers += 1
        for batch in payload.replay:
            outputs = merge_outputs(collect, outputs, self._refeed(batch))
        return outputs

    def _refeed(self, batch: Sequence[StreamTuple]) -> Outputs:
        """Re-route one replay-log batch through the rewritten slot table.

        The batch preserves its original arrival order, and every tuple
        now lands on a survivor, so each destination sees a correctly
        ordered sub-stream.  A survivor failing *during* refeed is
        terminal (cascading failover is out of scope) and propagates.
        """
        collect = self.config.collect_results
        outputs = empty_outputs(collect)
        routed = self.router.route_batch(batch)
        if routed is None:  # pragma: no cover - broadcast re-raises earlier
            raise RuntimeError("failover refeed requires exact routing")
        for shard, shard_batch in enumerate(routed):
            if not shard_batch:
                continue
            produced = self.executor.submit_batch(shard, shard_batch)
            if shard in self._emit_shards:
                outputs = merge_outputs(collect, outputs, produced)
        return outputs

    def flush(self) -> Outputs:
        """Flush every shard; return remaining results merged in ts order.

        Timestamp ties break on the results' canonical component
        identity (:meth:`~repro.core.tuples.JoinResult.key`), not on
        shard order: which shard produced a result is a routing detail
        (and under rebalancing changes mid-run), so the merged sequence
        is identical for any shard count and any slot-table history —
        provided ``seq`` is unique per stream, as every generator and
        source numbers it.  Results whose keys tie all the same
        (hand-built tuples left at ``seq=-1``) stay in shard order,
        then emission order (see :func:`canonical_order`).

        A collecting flush allocates an object or two per result and
        frees none, and none of it is cyclic, so the cyclic collector is
        paused (:func:`~repro.parallel.shard.collector_paused`) from
        ``executor.finish()`` to the end of the merge and put back as
        found whatever happens.
        """
        collect = self.config.collect_results
        if self._flushed:
            return empty_outputs(collect)
        self._flushed = True
        with collector_paused():
            self._outcomes = self.executor.finish()
            emitted = [
                outcome.outputs
                for outcome in self._outcomes
                if outcome.shard in self._emit_shards
            ]
            if collect:
                return canonical_order(list(chain.from_iterable(emitted)))  # type: ignore[arg-type]
            return sum(emitted)  # type: ignore[arg-type]

    def close(self) -> None:
        """Release shard resources without draining (abandoning the run).

        After ``close`` the pipeline behaves like a flushed one: further
        ``process`` raises, ``flush`` returns empty.  A pipeline that was
        already flushed closes cleanly (no-op for the serial executor).
        Also runs on context-manager exit, so the worker processes of the
        ``"process"`` executor cannot leak when the feed loop raises::

            with PartitionedPipeline(config, 8, executor="process") as p:
                for t in dataset.arrivals():
                    p.process(t)
                final = p.flush()
        """
        self._flushed = True
        self.executor.close()

    def __enter__(self) -> "PartitionedPipeline":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


def canonical_order(results: List[JoinResult]) -> List[JoinResult]:
    """``results`` sorted by ``(ts, seq of each component)``, stably.

    Components are stream-position-indexed and seq is unique per
    stream, so the per-component seq tuple is the same total order as
    the full ``JoinResult.key()`` identity.  The keys are built column
    by column and closed by a running index: tuples compare in C, a tie
    on everything before the index resolves to input order — the stable
    order of ``list.sort`` — and the index says where each result goes.
    """
    if not results:
        return results
    components = list(map(attrgetter("components"), results))
    seqs = (
        map(attrgetter("seq"), map(itemgetter(position), components))
        for position in range(len(components[0]))
    )
    keys = sorted(zip(map(attrgetter("ts"), results), *seqs, count()))
    return list(map(results.__getitem__, map(itemgetter(-1), keys)))


def run_partitioned(
    dataset: Dataset,
    config: PipelineConfig,
    num_shards: int,
    chunk_size: Optional[int] = None,
    pipelined: bool = False,
    max_pending_batches: Optional[int] = None,
    **pipeline_options: Any,
) -> tuple:
    """Replay a finite dataset through a :class:`PartitionedPipeline`.

    Returns ``(outputs, metrics)`` where ``outputs`` accumulates every
    :meth:`~PartitionedPipeline.process_batch` return plus the final
    :meth:`~PartitionedPipeline.flush` — the full result multiset under
    either executor.  ``pipeline_options`` are passed to
    :class:`PartitionedPipeline` as given (``executor``, ``transport``,
    ``rebalance``, ``supervision``, ``nodes``, ...: see there).

    The synchronous drive is :func:`~repro.core.pipeline.replay`:
    ``chunk_size=None`` feeds the pipeline tuple-at-a-time (as
    :meth:`~PartitionedPipeline.process` would); a positive ``chunk_size``
    slices the arrival stream into bursts of that many tuples and drives
    the batched engine (:meth:`~PartitionedPipeline.process_batch`).

    ``pipelined=True`` feeds through a
    :class:`~repro.parallel.ingest.PipelinedIngest` feeder thread:
    routing, block encoding and shard dispatch run off the caller's
    thread behind a bounded queue (``max_pending_batches`` chunks deep),
    overlapping ingestion with shard compute.  The outputs and merged
    metrics are byte-identical to the synchronous drive — the feeder
    preserves submission order end to end.  Bursts are ``chunk_size``
    tuples (the pipeline's ``batch_size`` when ``chunk_size`` is
    ``None``).
    """
    if chunk_size is None:
        chunk_size = (
            pipeline_options.get("batch_size", DEFAULT_BATCH_SIZE) if pipelined else 1
        )
    with PartitionedPipeline(config, num_shards, **pipeline_options) as pipeline:
        if not pipelined:
            return replay(pipeline, dataset.arrivals(), chunk_size), pipeline.metrics
        # Deferred import: ingest builds on PartitionedPipeline, so a
        # module-level import here would be circular.
        from .ingest import DEFAULT_MAX_PENDING, PipelinedIngest

        chunks = chunked(dataset.arrivals(), chunk_size)
        if max_pending_batches is None:
            max_pending_batches = DEFAULT_MAX_PENDING
        with PipelinedIngest(pipeline, max_pending_batches) as feeder:
            for chunk in chunks:
                feeder.submit(chunk)
            outputs = feeder.flush()
        return outputs, pipeline.metrics
