"""The end-to-end quality-driven disorder handling pipeline (paper Fig. 2).

Wires together, per input stream, a :class:`~repro.core.kslack.KSlackBuffer`
(intra-stream disorder), then a shared
:class:`~repro.core.synchronizer.Synchronizer` (inter-stream disorder), the
:class:`~repro.join.mswj.MSWJOperator`, and the management plane: the
Statistics Manager, the Tuple-Productivity Profiler, the Result-Size
Monitor, and a :class:`~repro.core.adaptation.BufferSizePolicy` acting as
the Buffer-Size Manager.

The pipeline is driven in *arrival order*: call :meth:`process` once per
raw tuple.  Every ``L`` milliseconds of application time (the maximum
local current time across streams; boundaries are the multiples of ``L``
past the first tuple's timestamp) an adaptation step runs: the profiler
maps are snapshotted, the instant requirement is derived, the policy
picks the next K, and all K-slack buffers are updated together (the
Same-K policy).  The profiler and the Result-Size Monitor are fed only
for a policy that reads them
(:attr:`~repro.core.adaptation.BufferSizePolicy.reads_model_inputs`).
An optional ``on_adaptation`` callback fires right before each step —
the experiment harness uses it to take the paper's γ(P) measurements.

Call :meth:`flush` after the last tuple to drain all buffers (finite
datasets; the paper's streams are endless so Alg. 1/2 never flush).
"""

from __future__ import annotations

import time
from copy import deepcopy
from dataclasses import dataclass, field, fields
from itertools import islice, zip_longest
from operator import add
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..join.conditions import JoinCondition
from ..join.mswj import MSWJOperator
from ..join.ordering import ProbeOrderPolicy
from ..join.store import StateItem, StoreMetrics, StoreSpec, ValueClassifier
from .adaptation import AdaptationContext, BufferSizePolicy, ModelBasedPolicy
from .blocks import ColdSegment, WindowStateItem
from .kslack import KSlackBuffer
from .profiler import TupleProductivityProfiler
from .result_monitor import ResultSizeMonitor
from .selectivity import NonEqSel
from .statistics import StatisticsManager
from .synchronizer import Synchronizer
from .tuples import JoinResult, StreamTuple

#: What a pipeline emits: collected results or a bare count, depending on
#: ``PipelineConfig.collect_results``.
Outputs = Union[List[JoinResult], int]


def empty_outputs(collect: bool) -> Outputs:
    return [] if collect else 0


def merge_outputs(collect: bool, accumulated: Outputs, new: Outputs) -> Outputs:
    if collect:
        accumulated.extend(new)  # type: ignore[union-attr,arg-type]
        return accumulated
    return accumulated + new  # type: ignore[operator]


def chunked(
    arrivals: Iterable[StreamTuple], size: int
) -> Iterator[List[StreamTuple]]:
    """Consecutive lists of ``size`` tuples of ``arrivals`` (the last may
    be shorter); raises ``ValueError`` at the call when ``size < 1``."""
    if size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {size}")
    tuples = iter(arrivals)
    return iter(lambda: list(islice(tuples, size)), [])


def replay(
    engine: Any, arrivals: Iterable[StreamTuple], chunk_size: int = 1
) -> Outputs:
    """Drive a finite arrival sequence through ``engine`` and flush it.

    ``engine`` is a :class:`QualityDrivenPipeline` or a
    :class:`~repro.parallel.pipeline.PartitionedPipeline`: ``arrivals``
    go through its ``process_batch`` in order, ``chunk_size`` tuples a
    call (1 is the per-tuple drive, since ``process(t)`` is
    ``process_batch((t,))``), then :meth:`~QualityDrivenPipeline.flush`
    drains it.  Returns everything emitted: the results, or their count
    when ``engine.config.collect_results`` is off.  The engine stays
    readable afterwards (metrics, statistics, store state).
    """
    collect = engine.config.collect_results
    outputs = empty_outputs(collect)
    for chunk in chunked(arrivals, chunk_size):
        outputs = merge_outputs(collect, outputs, engine.process_batch(chunk))
    return merge_outputs(collect, outputs, engine.flush())


@dataclass
class PipelineConfig:
    """User-facing configuration of the framework (paper Table I symbols).

    ``gamma`` is the recall requirement Γ, ``period_ms`` the measurement
    period P, ``interval_ms`` the adaptation interval L (must not exceed
    P), ``basic_window_ms`` the basic-window size b, and
    ``granularity_ms`` the K-search granularity g.  Defaults follow the
    paper's default parameter configuration (P = 1 min, b = g = 10 ms,
    L = 1 s).
    """

    window_sizes_ms: Sequence[int]
    condition: JoinCondition
    gamma: float = 0.95
    period_ms: int = 60_000
    interval_ms: int = 1_000
    basic_window_ms: int = 10
    granularity_ms: int = 10
    policy: Optional[BufferSizePolicy] = None
    probe_order: Optional[ProbeOrderPolicy] = None
    collect_results: bool = True
    adwin_delta: float = 0.002
    initial_k_ms: int = 0
    #: DPcorr-map smoothing across adaptation intervals (0 = paper-exact
    #: last-interval-only; see TupleProductivityProfiler).
    profiler_smoothing: float = 0.5
    #: Window state representation (see :mod:`repro.join.store`):
    #: ``None`` / ``"memory"`` keeps every live tuple as an object;
    #: ``"tiered"`` or a :class:`~repro.join.store.TieredStoreConfig`
    #: bounds the hot object tier and compacts older tuples into
    #: columnar cold segments.  Plain data — it crosses process
    #: boundaries inside the pickled config.  Store choice never
    #: changes join output, only memory shape.
    store: StoreSpec = None

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.interval_ms > self.period_ms:
            raise ValueError(
                f"adaptation interval L ({self.interval_ms}) must not exceed "
                f"measurement period P ({self.period_ms})"
            )
        if self.basic_window_ms <= 0 or self.granularity_ms <= 0:
            raise ValueError("basic window b and granularity g must be positive")


def time_weighted_average(
    history: Sequence[Tuple[int, float]], end_time: int
) -> float:
    """Time-weighted average of a step function given as (time, value) pairs.

    Generic helper (used for K histories and for ablation plots of other
    stepwise-constant signals); the last step lasts until ``end_time``.
    """
    if not history:
        return 0.0
    weighted = 0.0
    span = 0
    for index, (start, value) in enumerate(history):
        end = (
            history[index + 1][0]
            if index + 1 < len(history)
            else max(end_time, start)
        )
        duration = max(0, end - start)
        weighted += value * duration
        span += duration
    if span == 0:
        return float(history[-1][1])
    return weighted / span


def _add_each(ours: Sequence[int], theirs: Sequence[int]) -> List[int]:
    """Per-stream sum, the shorter series padded with zeros."""
    return [a + b for a, b in zip_longest(ours, theirs, fillvalue=0)]


def _max_each(ours: Sequence[int], theirs: Sequence[int]) -> List[int]:
    """Per-stream maximum, the shorter series padded with zeros."""
    return [max(pair) for pair in zip_longest(ours, theirs, fillvalue=0)]


def _add_keys(ours: Dict[str, int], theirs: Dict[str, int]) -> Dict[str, int]:
    """Per-key sum over the union of the keys (ours first)."""
    return {
        key: ours.get(key, 0) + theirs.get(key, 0) for key in {**ours, **theirs}
    }


def _combines(
    factory: Callable[[], Any],
    shards: Callable[[Any, Any], Any] = add,
    incarnations: Optional[Callable[[Any, Any], Any]] = None,
    sampled: Optional[str] = None,
) -> Any:
    """A :class:`PipelineMetrics` field that declares how it combines.

    ``factory`` makes the field's zero (``int``, ``list``, ``dict``).
    ``shards`` combines the values of concurrent shards
    (:meth:`PipelineMetrics.merge`), ``incarnations`` those of the
    sequential incarnations of one shard
    (:meth:`PipelineMetrics.continued_by`; the same rule unless given).
    Both are ``(ours, theirs) -> combined`` and never mutate an
    argument, so a combined record shares no state with its parts.
    ``sampled`` names the :class:`~repro.join.store.StoreMetrics`
    attribute a per-stream sampled peak is taken from.
    """
    rules = {
        "shards": shards,
        "incarnations": incarnations or shards,
        "sampled": sampled,
    }
    return field(default_factory=factory, metadata=rules)


@dataclass
class PipelineMetrics:
    """The one accounting record of a pipeline run.

    Everything a run counts lives here — the K trajectory, the Alg. 3
    step timings, throughput and buffering-latency moments, the
    window-state sizes and the MSWJ operator's own counters
    (:attr:`join`) — and it is the only accounting that crosses a shard
    boundary.  Every field except the two K histories declares *on the
    field* (:func:`_combines`) how it combines across concurrent shards
    and across the sequential incarnations of one shard;
    :meth:`merge`, :meth:`continued_by` and the pipeline's state-size
    sampling walk those declarations, so a new counter is one line
    here.  Take a record from a live pipeline with
    :meth:`QualityDrivenPipeline.account`.
    """

    #: (app_time_ms, k_ms) pairs; a new entry whenever K changes.
    k_history: List[Tuple[int, int]] = field(default_factory=list)
    #: wall-clock seconds spent inside policy.decide() per adaptation
    #: step; concatenated (each shard runs its own adaptation loop).
    adaptation_seconds: List[float] = _combines(list)
    adaptations: int = _combines(int)
    results_produced: int = _combines(int)
    tuples_processed: int = _combines(int)
    latency_sum_ms: int = _combines(int)
    latency_count: int = _combines(int)
    latency_max_ms: int = _combines(int, max)
    #: Populated by :meth:`merge` only: each constituent shard's own
    #: ``k_history``, kept so :meth:`average_k_ms` can average the
    #: per-shard K trajectories instead of misreading the interleaved
    #: union as one trajectory.
    shard_k_histories: List[List[Tuple[int, int]]] = field(default_factory=list)
    #: Per-stream window-state sizes, sampled at every adaptation
    #: boundary and at flush (so they are *sampled peaks*, not exact
    #: maxima).  ``stream_resident_objects`` counts tuples held as
    #: Python objects (hot tier + decode cache), ``stream_hot_objects``
    #: the hot tier alone, ``stream_encoded_bytes`` the cold tier's
    #: encoded footprint.  Shards hold disjoint state concurrently, so
    #: peaks add across shards; the incarnations of one shard are one
    #: store over time, so there they take the maximum.
    stream_resident_objects: List[int] = _combines(
        list, _add_each, _max_each, sampled="resident_objects"
    )
    stream_hot_objects: List[int] = _combines(
        list, _add_each, _max_each, sampled="hot_objects"
    )
    stream_encoded_bytes: List[int] = _combines(
        list, _add_each, _max_each, sampled="encoded_bytes"
    )
    #: Per-stream cumulative expired count — exact as of the record's
    #: capture, like the decode counters and :attr:`join` below.
    stream_evicted: List[int] = _combines(list, _add_each)
    #: Cumulative cold-segment decode-cache traffic (tiered stores only;
    #: zero for in-memory stores), summed across streams and shards.
    decode_hits: int = _combines(int)
    decode_misses: int = _combines(int)
    #: The MSWJ operator's counters (tuples in / out of order, probes,
    #: results, ...): exactly
    #: :meth:`~repro.join.mswj.JoinStatistics.as_dict`, added per key.
    join: Dict[str, int] = _combines(dict, _add_keys)

    def average_latency_ms(self) -> float:
        return self.latency_sum_ms / self.latency_count if self.latency_count else 0.0

    def average_adaptation_seconds(self) -> float:
        if not self.adaptation_seconds:
            return 0.0
        return sum(self.adaptation_seconds) / len(self.adaptation_seconds)

    def _fold(self, other: "PipelineMetrics", rule: str) -> None:
        """Combine ``other`` into this record under every field's
        ``rule`` (``"shards"`` or ``"incarnations"``); the K histories
        carry no rule and are the caller's."""
        for spec in fields(self):
            if spec.metadata:
                combined = spec.metadata[rule](
                    getattr(self, spec.name), getattr(other, spec.name)
                )
                setattr(self, spec.name, combined)

    @classmethod
    def merge(cls, parts: Sequence["PipelineMetrics"]) -> "PipelineMetrics":
        """Aggregate metrics of several (shard) pipelines into one.

        Every field combines by its declared ``shards`` rule (counters,
        latency moments and :attr:`join` add up, ``latency_max_ms`` is
        the maximum, ``adaptation_seconds`` are concatenated, the
        per-stream state sizes add element-wise); ``k_history`` is the
        time-sorted interleaving of all shard histories with the
        duplicated initial epochs collapsed — every shard starts with the
        same ``(0, initial_k)`` entry, and naively interleaving N copies
        of it skews any reading of the merged history (equal *later*
        entries are genuine concurrent adaptation events and are kept).
        The shards' individual histories are preserved in
        :attr:`shard_k_histories` so :meth:`average_k_ms` can average the
        per-shard time-weighted trajectories instead of treating the
        interleaving as one.
        """
        merged = cls()
        for part in parts:
            merged._fold(part, "shards")
            merged.k_history.extend(part.k_history)
            # Merging merged metrics flattens to the leaf shard
            # trajectories — a part's interleaved union is not a
            # trajectory any shard actually ran.
            if part.shard_k_histories:
                merged.shard_k_histories.extend(
                    list(history) for history in part.shard_k_histories
                )
            else:
                merged.shard_k_histories.append(list(part.k_history))
        # Stable ts sort preserves each shard's own same-timestamp event
        # order; then only the duplicated *initial* epochs collapse —
        # every shard opens with the same (0, initial_k) entry, while
        # equal later entries are real concurrent adaptation events that
        # consumers (e.g. K-change counts) must still see.
        history = sorted(merged.k_history, key=lambda entry: entry[0])
        merged.k_history = [
            entry
            for index, entry in enumerate(history)
            if entry[0] != 0 or entry not in history[:index]
        ]
        return merged

    def continued_by(self, later: "PipelineMetrics") -> "PipelineMetrics":
        """These metrics continued by a later incarnation of the *same*
        pipeline (a respawned shard worker restored from a checkpoint).

        Incarnations are sequential, not concurrent, so every field
        combines by its declared ``incarnations`` rule: what
        :meth:`merge` adds or concatenates still adds, but the sampled
        state-size peaks are peaks of one store over time — the
        maximum, not the sum — and there is still one K trajectory: the
        later incarnation's opening ``(0, initial_k)`` entry is an
        artifact of its construction, not a K change, so its history
        continues this one without it, and no per-shard history is
        recorded (a later :meth:`merge` files the result as one shard).
        """
        total = PipelineMetrics(k_history=self.k_history + later.k_history[1:])
        total._fold(self, "incarnations")
        total._fold(later, "incarnations")
        return total

    def average_k_ms(self, end_time_ms: Optional[int] = None) -> float:
        """Time-weighted average K over the run (the paper's "Avg. K").

        On merged metrics this is the mean of the per-shard time-weighted
        averages — the shards buffer concurrently, so their trajectories
        average rather than concatenate.  When no explicit end time is
        given, every shard is evaluated up to the latest K-change across
        all shards (a shard that stopped adapting early still spent the
        rest of the run at its final K).
        """
        histories = self.shard_k_histories or [self.k_history]
        if end_time_ms is None:
            end_time_ms = max((h[-1][0] for h in histories if h), default=0)
        averages = [time_weighted_average(h, end_time_ms) for h in histories]
        return sum(averages) / len(averages)


#: ``(field, StoreMetrics attribute)`` of every sampled peak
#: :class:`PipelineMetrics` declares, read off its fields once.
_SAMPLED_PEAKS = [
    (spec.name, spec.metadata["sampled"])
    for spec in fields(PipelineMetrics)
    if spec.metadata.get("sampled")
]


#: Invoked right before each adaptation step: (pipeline, app_time_ms).
AdaptationCallback = Callable[["QualityDrivenPipeline", int], None]
#: Invoked whenever results are produced: (result_ts_ms, count).
ResultsCallback = Callable[[int, int], None]


class QualityDrivenPipeline:
    """The complete framework of paper Fig. 2 as a push-based operator.

    One instance wires, per input stream, a
    :class:`~repro.core.kslack.KSlackBuffer` (intra-stream disorder) into
    a shared :class:`~repro.core.synchronizer.Synchronizer` (inter-stream
    disorder), the :class:`~repro.join.mswj.MSWJOperator`, and the
    management plane that adapts the buffer size K against the recall
    requirement Γ.  Drive it in *arrival order*: :meth:`process` per raw
    tuple (or :meth:`process_batch` per burst — sequence-identical, just
    cheaper per tuple), then :meth:`flush` exactly once at end of input.

    Parameters
    ----------
    config:
        The :class:`PipelineConfig` — window sizes (which also fix the
        stream count), join condition, recall target Γ, measurement
        period P, adaptation interval L, and the buffer-size policy
        (model-based by default; ``FixedKPolicy`` pins K, which makes
        disorder handling lossless whenever K covers the realized
        maximum delay).
    on_adaptation:
        Optional callback ``(pipeline, app_time_ms)`` fired right before
        each adaptation step; the experiment harness hooks its γ(P)
        measurements here.
    on_results:
        Optional callback ``(result_ts_ms, count)`` fired whenever the
        join produces results.

    The per-shard pipelines of the partitioned engine
    (:mod:`repro.parallel`) are instances of this class; the
    ``prepare_migration`` / ``adopt_migration`` pair is the shard-state
    handoff its rebalancer drives.
    """

    def __init__(
        self,
        config: PipelineConfig,
        on_adaptation: Optional[AdaptationCallback] = None,
        on_results: Optional[ResultsCallback] = None,
    ) -> None:
        self.config = config
        self.num_streams = len(config.window_sizes_ms)
        self.policy = config.policy or ModelBasedPolicy(NonEqSel())
        self.kslacks = [
            KSlackBuffer(config.initial_k_ms) for _ in range(self.num_streams)
        ]
        self.synchronizer = Synchronizer(self.num_streams)
        self.profiler = TupleProductivityProfiler(
            config.granularity_ms, smoothing=config.profiler_smoothing
        )
        self.statistics = StatisticsManager(
            self.num_streams, config.granularity_ms, config.adwin_delta
        )
        self.monitor = ResultSizeMonitor(config.period_ms, config.interval_ms)
        #: Whether the policy reads the profiler, the monitor and the
        #: folded statistics; only then are the first two fed.
        self._feeds_model = self.policy.reads_model_inputs
        self.join = MSWJOperator(
            config.window_sizes_ms,
            config.condition,
            probe_order=config.probe_order,
            productivity_callback=self.profiler.record if self._feeds_model else None,
            collect_results=config.collect_results,
            store=config.store,
        )
        # The per-arrival hook, bound only when the policy overrides it.
        self._on_arrival = self.policy.on_arrival
        if getattr(self._on_arrival, "__func__", None) is BufferSizePolicy.on_arrival:
            self._on_arrival = None
        self.metrics = PipelineMetrics()
        self.metrics.k_history.append((0, config.initial_k_ms))
        self._current_k = config.initial_k_ms
        #: Next adaptation boundary; anchored at the first tuple.
        self._next_adaptation_ms: Optional[int] = None
        self._on_adaptation = on_adaptation
        self._on_results = on_results
        self._flushed = False

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def current_k_ms(self) -> int:
        return self._current_k

    @property
    def flushed(self) -> bool:
        """True once :meth:`flush` ran; :meth:`process` then raises and
        further :meth:`flush` calls return empty."""
        return self._flushed

    def app_time_ms(self) -> int:
        """Global application-time progress (max local time across streams)."""
        return self.statistics.app_time()

    def store_metrics(self) -> List[StoreMetrics]:
        """Live per-stream window-store snapshots (state sizes, codec
        traffic); see :class:`~repro.join.store.StoreMetrics`."""
        return [window.store.metrics() for window in self.join.windows]

    def _sample_state_metrics(self) -> None:
        """Fold the current store sizes into the sampled peaks (the
        fields :class:`PipelineMetrics` declares ``sampled``)."""
        metrics = self.metrics
        snapshots = self.store_metrics()
        for name, source in _SAMPLED_PEAKS:
            now = [getattr(snap, source) for snap in snapshots]
            setattr(metrics, name, _max_each(getattr(metrics, name), now))

    def account(self) -> PipelineMetrics:
        """Capture this run's accounting: the only way it leaves the
        pipeline.

        Refreshes the fields that are exact at any instant — the
        cumulative evictions and decode traffic of the window stores and
        the join operator's counters — and returns a detached copy of
        :attr:`metrics`.  The sampled peaks are *not* sampled here: they
        keep their schedule (adaptation boundary + flush), so a run that
        is captured more often (checkpoints) reports the same peaks as
        one that is not.
        """
        metrics = self.metrics
        snapshots = self.store_metrics()
        metrics.stream_evicted = [snap.evicted for snap in snapshots]
        metrics.decode_hits = sum(snap.decode_hits for snap in snapshots)
        metrics.decode_misses = sum(snap.decode_misses for snap in snapshots)
        metrics.join = self.join.stats.as_dict()
        return deepcopy(metrics)

    # ------------------------------------------------------------------
    # streaming interface
    # ------------------------------------------------------------------

    def process(self, t: StreamTuple) -> Union[List[JoinResult], int]:
        """Feed one raw tuple (arrival order); return results produced now."""
        return self.process_batch((t,))

    def process_batch(
        self, batch: Sequence[StreamTuple]
    ) -> Union[List[JoinResult], int]:
        """Feed a burst of raw tuples in arrival order; return all results.

        The one drive path.  The burst is cut into *segments*, which end
        only where the management plane reads state: where the
        application-time clock (the running maximum timestamp) reaches
        the next adaptation boundary, and where a continuous policy
        (Max-K-slack) changes K.  Inside a segment every tuple, in turn,
        enters its K-slack buffer and its releases pass the
        Synchronizer; each tuple the Synchronizer emits is charged its
        buffer wait against the clock of that moment.  At the segment's
        end the Statistics Manager observes the segment's arrivals in
        one pass, the join is fed its emitted tuples in one pass, and
        the adaptation steps due run.  Feeding a stream in bursts of any
        size — one tuple included — therefore gives the same result
        sequence, metrics, statistics and K trajectory.

        A burst is taken whole or not at all: a tuple whose stream index
        is out of range raises ``ValueError`` before any tuple of the
        burst changed state, and the pipeline carries on as if the burst
        had never been fed.
        """
        if self._flushed:
            raise RuntimeError("pipeline already flushed; create a new instance")
        num_streams = self.num_streams
        for t in batch:
            if not 0 <= t.stream < num_streams:
                raise ValueError(
                    f"tuple stream index {t.stream} outside [0, {num_streams})"
                )
        outputs = empty_outputs(self.config.collect_results)
        if not batch:
            return outputs
        kslacks = self.kslacks
        on_arrival = self._on_arrival
        interval_ms = self.config.interval_ms
        if self._next_adaptation_ms is None:
            # The adaptation clock starts at the stream's time, not at
            # application time 0: the first boundary is the first
            # multiple of L past the first tuple, so a stream opening at
            # ts T does not run T/L steps on empty statistics first.
            self._next_adaptation_ms = (batch[0].ts // interval_ms + 1) * interval_ms
        # max(local times): timestamps are >= 0 and local times start at 0.
        clock = self.statistics.app_time()
        start, emitted = 0, []
        for end, t in enumerate(batch, 1):
            if t.ts > clock:
                clock = t.ts
            released = kslacks[t.stream].process(t)
            new_k = on_arrival(t) if on_arrival is not None else None
            k_changed = new_k is not None and new_k != self._current_k
            if k_changed:
                released.extend(self._apply_k(new_k, clock))
            if released:
                synchronized = self.synchronizer.process_batch(released)
                self._charge_wait(synchronized, clock)
                emitted += synchronized
            if k_changed or clock >= self._next_adaptation_ms or end == len(batch):
                # The segment ends: observe its arrivals, join what it
                # emitted, then run the adaptation steps now due.
                self.metrics.tuples_processed += end - start
                self.statistics.observe_batch(batch[start:end])
                if emitted:
                    outputs += self._join(emitted)
                start, emitted = end, []
                while clock >= self._next_adaptation_ms:
                    boundary = self._next_adaptation_ms
                    self._next_adaptation_ms += interval_ms
                    outputs += self._adapt(boundary)
        return outputs

    def flush(self) -> Union[List[JoinResult], int]:
        """Drain every buffer at end of input; returns the final results."""
        if self._flushed:
            return empty_outputs(self.config.collect_results)
        self._flushed = True
        outputs = empty_outputs(self.config.collect_results)
        for stream, kslack in enumerate(self.kslacks):
            outputs += self._route_to_join(kslack.flush())
            outputs += self._feed_join(self.synchronizer.close_stream(stream))
        outputs += self._feed_join(self.synchronizer.flush())
        self._sample_state_metrics()
        self.account()  # leaves the exact fields of ``self.metrics`` final
        return outputs

    # ------------------------------------------------------------------
    # shard-state migration (repro.parallel rebalancing)
    # ------------------------------------------------------------------

    def prepare_migration(
        self,
        classify: Callable[[StreamTuple], Optional[object]],
        beacon_ts: int,
        drain_floor_ts: Optional[int] = None,
        attr_by_stream: Optional[Sequence[Optional[str]]] = None,
        value_classifier: Optional[ValueClassifier] = None,
    ) -> Tuple[
        Union[List[JoinResult], int],
        Dict[object, List[StateItem]],
        Dict[object, List[StreamTuple]],
    ]:
        """Drain to the barrier watermark, then carve out the state of
        the tuples ``classify`` marks as migrating.

        ``classify`` maps a tuple to its migration group (for the
        partitioned engine: the destination shard) or ``None`` for
        tuples that stay; it must be pure (stores may evaluate it in
        tier order and skip it for column-classified cold segments).
        When ``attr_by_stream`` + ``value_classifier`` are given, a
        tiered store classifies frozen cold segments by reading the
        stream's partition-attribute column — a uniformly-classified
        segment moves *as the already-encoded block* with no
        decode/re-encode round trip.  Returns ``(outputs,
        window_groups, pending_groups)``:

        * ``outputs`` — join results produced by the barrier drain (the
          caller emits them exactly like :meth:`process` returns);
        * ``window_groups`` — group → window state removed from the
          join windows: raw tuples and/or frozen
          :class:`~repro.core.blocks.ColdSegment` items, in per-window
          slot (= insertion) order (re-adopting them in sequence at the
          peer reproduces the probe candidate order);
        * ``pending_groups`` — group → tuples still in flight in the
          disorder-handling front, for re-buffering at the peer.

        The barrier drain advances every K-slack clock to ``beacon_ts``
        (the caller's global arrival clock) and force-drains the
        Synchronizer down to ``min(beacon_ts, drain_floor_ts) - K``.
        ``drain_floor_ts`` is the caller's per-stream progress bound
        (minimum over streams of the maximum timestamp routed so far):
        a stream may trail the others in timestamp — or be entirely
        silent — while internally in order, and only the synchronizer's
        completeness gate keeps such runs exact; since under lossless
        disorder handling no future input of any stream sits more than
        K below that stream's progress, the floored drain provably
        never emits past what the gate could still be holding.  Every
        still-pending tuple therefore sits *above* the drained
        watermark — which is what lets the peer adopt the pending set
        without ever presenting its join an out-of-order tuple.  The
        drain changes only *when* tuples reach the join, never their
        order, so the result sequence and join statistics are
        unaffected (buffering-latency metrics and delay annotations can
        shift, as tuples leave the buffers earlier than they would
        have).
        """
        if self._flushed:
            raise RuntimeError("pipeline already flushed; create a new instance")
        outputs = empty_outputs(self.config.collect_results)
        for kslack in self.kslacks:
            outputs += self._route_to_join(kslack.advance_clock(beacon_ts))
        drain_base = beacon_ts
        if drain_floor_ts is not None and drain_floor_ts < drain_base:
            drain_base = drain_floor_ts
        watermark = min(drain_base - kslack.k for kslack in self.kslacks)
        emitted = self.synchronizer.drain_below(watermark)
        if emitted:
            outputs += self._feed_join(emitted)

        window_groups: Dict[object, List[StateItem]] = {}
        pending_groups: Dict[object, List[StreamTuple]] = {}

        for stream, window in enumerate(self.join.windows):
            attr = (
                attr_by_stream[stream] if attr_by_stream is not None else None
            )
            extracted = window.extract_state(
                classify,
                partition_attr=attr,
                value_classifier=value_classifier if attr is not None else None,
            )
            for group, items in extracted.items():
                window_groups.setdefault(group, []).extend(items)

        def collect_into(groups):
            def matches(t: StreamTuple) -> bool:
                group = classify(t)
                if group is None:
                    return False
                groups.setdefault(group, []).append(t)
                return True

            return matches

        pending_predicate = collect_into(pending_groups)
        for kslack in self.kslacks:
            kslack.extract(pending_predicate)
        # Load-bearing sweep: the floored drain routinely leaves tuples
        # buffered between the progress floor and the beacon (any run
        # where one stream trails the others in timestamp); migrating
        # keys among them must travel as pending state, or they would
        # later join against windows whose partners moved away.
        self.synchronizer.extract(pending_predicate)
        return outputs, window_groups, pending_groups

    def adopt_migration(
        self,
        window_state: Sequence[WindowStateItem],
        pending_tuples: Sequence[StreamTuple],
    ) -> Union[List[JoinResult], int]:
        """Absorb state carved out of a peer by :meth:`prepare_migration`.

        Window state arrives as raw tuples and/or frozen
        :class:`~repro.core.blocks.ColdSegment` items in source slot
        order: tuples are inserted straight into the join windows,
        segments are adopted by the window's store — a tiered store
        installs them still-encoded in its cold tier (they were already
        disorder-handled and probed at the peer — only their *future*
        partner role migrates).  Pending tuples re-enter the K-slack
        front with their original delay annotations and continue through
        the normal release path.  Returns any join results the adoption
        makes available immediately (possible when this pipeline's
        clocks run ahead of the peer's).
        """
        if self._flushed:
            raise RuntimeError("pipeline already flushed; create a new instance")
        windows = self.join.windows
        for item in window_state:
            if isinstance(item, ColdSegment):
                windows[item.stream()].adopt_frozen(item)
            else:
                windows[item.stream].insert(item)
        kslacks = self.kslacks
        # Two-phase: buffer every migrated tuple first, drain after —
        # pending state arrives in no particular order, and releasing
        # between insertions could emit a higher timestamp before a
        # lower one on the same stream.
        for t in pending_tuples:
            kslacks[t.stream].adopt(t)
        released: List[StreamTuple] = []
        if pending_tuples:
            for kslack in kslacks:
                released.extend(kslack.drain_ready())
        return self._route_to_join(released)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _route_to_join(self, released: List[StreamTuple]) -> Union[List[JoinResult], int]:
        # One synchronizer burst + one join feed: identical to routing
        # tuple-by-tuple (the app-time clock cannot advance in between),
        # without the per-tuple dispatch overhead.
        if not released:
            return empty_outputs(self.config.collect_results)
        return self._feed_join(self.synchronizer.process_batch(released))

    def _feed_join(self, emitted: List[StreamTuple]) -> Union[List[JoinResult], int]:
        self._charge_wait(emitted, self.app_time_ms())
        return self._join(emitted)

    def _charge_wait(self, emitted: List[StreamTuple], app_now: int) -> None:
        """Charge each stamped tuple leaving the buffers its wait until
        application time ``app_now``."""
        metrics = self.metrics
        for t in emitted:
            if t.arrival >= 0:
                waited = app_now - t.arrival
                if waited > 0:
                    metrics.latency_sum_ms += waited
                    if waited > metrics.latency_max_ms:
                        metrics.latency_max_ms = waited
                metrics.latency_count += 1

    def _join(self, emitted: List[StreamTuple]) -> Union[List[JoinResult], int]:
        collect = self.config.collect_results
        metrics = self.metrics
        join_process = self.join.process
        record_produced = self.monitor.record_produced if self._feeds_model else None
        on_results = self._on_results
        outputs = empty_outputs(collect)
        for t in emitted:
            produced = join_process(t)
            count = len(produced) if collect else produced
            if count:
                metrics.results_produced += count
                if record_produced is not None:
                    record_produced(t.ts, count)
                if on_results is not None:
                    on_results(t.ts, count)
            outputs += produced
        return outputs

    def _apply_k(self, k_ms: int, app_now: int) -> List[StreamTuple]:
        """Set K on all K-slack buffers (Same-K) at application time
        ``app_now``; collect early releases."""
        self._current_k = k_ms
        self.metrics.k_history.append((app_now, k_ms))
        released: List[StreamTuple] = []
        for kslack in self.kslacks:
            released.extend(kslack.set_k(k_ms))
        return released

    def _adapt(self, boundary_ms: int) -> Union[List[JoinResult], int]:
        """One adaptation step at application time ``boundary_ms``."""
        if self._on_adaptation is not None:
            self._on_adaptation(self, boundary_ms)
        self._sample_state_metrics()
        snapshot = self.profiler.snapshot_and_reset() if self._feeds_model else None
        if snapshot is not None:
            # Eq. 7 reads only the last P - L: drop what fell out of it.
            self.monitor.advance_to(boundary_ms)
            self.monitor.record_true_estimate(snapshot.true_result_estimate())
            # Fold the queued arrivals first: the timer measures Alg. 3 only.
            self.statistics.fold()
        context = AdaptationContext(
            statistics=self.statistics,
            profile=snapshot,
            monitor=self.monitor,
            gamma_target=self.config.gamma,
            interval_ms=self.config.interval_ms,
            basic_window_ms=self.config.basic_window_ms,
            granularity_ms=self.config.granularity_ms,
            window_sizes_ms=self.config.window_sizes_ms,
            now_ts=boundary_ms,
            current_k_ms=self._current_k,
        )
        started = time.perf_counter()
        new_k = self.policy.decide(context)
        self.metrics.adaptation_seconds.append(time.perf_counter() - started)
        self.metrics.adaptations += 1
        if new_k == self._current_k:
            return empty_outputs(self.config.collect_results)
        return self._route_to_join(self._apply_k(new_k, self.app_time_ms()))
