"""Tests for the hash-partitioned parallel pipeline (repro.parallel).

The load-bearing property is *shard-count invariance*: for equi-join
workloads, the partitioned engine's result multiset equals the single
:class:`QualityDrivenPipeline`'s for any shard count, as long as disorder
handling is lossless (fixed K covering the max delay, or in-order input).
"""

import dataclasses
import gc
import hashlib
from collections import Counter
from operator import attrgetter

import pytest

from repro import (
    BandPredicate,
    EquiPredicate,
    FaultPlan,
    FaultSpec,
    JoinCondition,
    JoinResult,
    KeyRouter,
    NexmarkConfig,
    PartitionedPipeline,
    PipelineMetrics,
    ProcessExecutor,
    QualityDrivenPipeline,
    SerialExecutor,
    ShardFailure,
    StreamTuple,
    SupervisionConfig,
    ThetaPredicate,
    auction_bid_query,
    equi_join_chain,
    from_tuple_specs,
    make_auction_bids,
    make_d3_syn,
    replay,
    run_partitioned,
    seconds,
    star_equi_join,
)
from repro.faults import KIND_CRASH_BEFORE_BATCH
from repro.parallel.pipeline import canonical_order
from repro.parallel.router import stable_hash
from repro.workloads import fixed_k_config


def _d3(duration_s=15, seed=11):
    return make_d3_syn(
        duration_ms=seconds(duration_s), seed=seed, inter_arrival_ms=50
    )


def _lossless_config(dataset, condition, num_streams, collect=True):
    """Fixed K >= realized max delay: disorder handling drops nothing."""
    return fixed_k_config(
        dataset.max_delay(), [seconds(2)] * num_streams, condition, collect
    )


def _single_run(dataset, config):
    return replay(QualityDrivenPipeline(config), dataset.arrivals())


def _multiset(results):
    return Counter(r.key() for r in results)


class TestPartitionKeyExtraction:
    def test_chain_equi_join_is_partitionable(self):
        condition = equi_join_chain("a1", 3)
        assert condition.partition_attributes(3) == {0: "a1", 1: "a1", 2: "a1"}

    def test_transitive_closure_across_attributes(self):
        # S0.x == S1.y and S1.y == S2.z: one equality class covers all.
        condition = JoinCondition(
            [EquiPredicate(0, "x", 1, "y"), EquiPredicate(1, "y", 2, "z")]
        )
        assert condition.partition_attributes(3) == {0: "x", 1: "y", 2: "z"}

    def test_star_join_on_distinct_attributes_is_not(self):
        condition = star_equi_join(0, {1: "a1", 2: "a2", 3: "a3"})
        assert condition.partition_attributes(4) is None

    def test_cross_join_and_theta_are_not(self):
        assert JoinCondition([]).partition_attributes(2) is None
        theta = JoinCondition(
            [ThetaPredicate((0, 1), lambda a, b: True, name="t")]
        )
        assert theta.partition_attributes(2) is None
        band = JoinCondition([BandPredicate(0, "v", 1, "v", 5.0)])
        assert band.partition_attributes(2) is None

    def test_key_covering_component_beats_partial_components(self):
        # A non-covering equality class (streams 0-1 on "u") must not
        # shadow the covering one (all streams on "a").
        condition = JoinCondition(
            [
                EquiPredicate(0, "u", 1, "u"),
                EquiPredicate(0, "a", 1, "a"),
                EquiPredicate(1, "a", 2, "a"),
            ]
        )
        assert condition.partition_attributes(3) == {0: "a", 1: "a", 2: "a"}


class TestKeyRouter:
    def test_exact_routing_sends_matching_tuples_together(self):
        router = KeyRouter(equi_join_chain("a1", 2), 2, 4)
        assert router.exact
        for value in range(50):
            pair = [
                StreamTuple(ts=1, values={"a1": value}, stream=s) for s in (0, 1)
            ]
            slices = router.route_batch(pair)
            # both streams land on the same shard, and on exactly one
            assert sorted(len(part) for part in slices) == [0, 0, 0, 2]
            owner = next(shard for shard, part in enumerate(slices) if part)
            assert [router.shard_of(t) for t in pair] == [owner, owner]

    def test_broadcast_fallback_routes_to_all_shards(self):
        router = KeyRouter(JoinCondition([]), 2, 3)
        assert not router.exact
        # No owning shard: the caller feeds the batch to every shard.
        assert router.route_batch([StreamTuple(ts=1, stream=0)]) is None
        assert router.shard_of(StreamTuple(ts=1, stream=0)) is None

    def test_stable_hash_is_equality_consistent(self):
        # Values that compare equal under == must land on the same shard.
        from decimal import Decimal
        from fractions import Fraction

        assert stable_hash(7) == stable_hash(7.0)
        assert stable_hash(True) == stable_hash(1)
        assert stable_hash(7) == stable_hash(Decimal(7))
        assert stable_hash(2.5) == stable_hash(Fraction(5, 2))
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(None) == stable_hash(None)
        # Composite (tuple) keys recurse element-wise.
        assert stable_hash((1, 2)) == stable_hash((1.0, Decimal(2)))
        assert stable_hash((1, ("x", 2))) == stable_hash((1, ("x", 2.0)))
        assert stable_hash((1, 2)) != stable_hash((2, 1))
        # Frozensets combine commutatively (repr order is not canonical).
        assert stable_hash(frozenset((1, 9))) == stable_hash(frozenset((9, 1.0)))

    def test_single_shard_router(self):
        router = KeyRouter(equi_join_chain("a1", 2), 2, 1)
        t = StreamTuple(ts=1, values={"a1": 3}, stream=0)
        assert router.route_batch([t]) == [[t]]
        assert router.shard_of(t) == 0


class TestShardCountInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_serial_executor_matches_single_pipeline(self, shards):
        dataset = _d3()
        condition = equi_join_chain("a1", 3)
        baseline = _multiset(
            _single_run(dataset, _lossless_config(dataset, condition, 3))
        )
        outputs, metrics = run_partitioned(
            dataset, _lossless_config(dataset, condition, 3), shards
        )
        assert _multiset(outputs) == baseline
        assert metrics.tuples_processed == len(dataset)
        assert metrics.results_produced == len(outputs)

    def test_process_executor_matches_single_pipeline(self):
        dataset = _d3(duration_s=10, seed=13)
        condition = equi_join_chain("a1", 3)
        baseline = _multiset(
            _single_run(dataset, _lossless_config(dataset, condition, 3))
        )
        outputs, metrics = run_partitioned(
            dataset,
            _lossless_config(dataset, condition, 3),
            2,
            executor="process",
            batch_size=64,
        )
        assert _multiset(outputs) == baseline
        assert metrics.tuples_processed == len(dataset)

    def test_count_only_mode_matches(self):
        dataset = _d3(duration_s=10, seed=17)
        condition = equi_join_chain("a1", 3)
        baseline = len(
            _single_run(dataset, _lossless_config(dataset, condition, 3))
        )
        for shards in (1, 3):
            count, _ = run_partitioned(
                dataset,
                _lossless_config(dataset, condition, 3, collect=False),
                shards,
            )
            assert count == baseline

    def test_broadcast_condition_preserves_result_multiset(self):
        # Band join is not partitionable: broadcast + shard-0 emission
        # must still yield the exact single-pipeline multiset.
        specs = [(i % 2, 100 * i, {"a1": i % 7}) for i in range(60)]
        dataset = from_tuple_specs(specs, num_streams=2)
        condition = JoinCondition([BandPredicate(0, "a1", 1, "a1", 1.0)])
        config = _lossless_config(dataset, condition, 2)
        baseline = _multiset(_single_run(dataset, config))
        outputs, _ = run_partitioned(dataset, config, 3)
        assert baseline  # fixture actually joins
        assert _multiset(outputs) == baseline

    def test_flush_returns_timestamp_ordered_results(self):
        dataset = _d3(duration_s=8, seed=23)
        condition = equi_join_chain("a1", 3)
        pipeline = PartitionedPipeline(
            _lossless_config(dataset, condition, 3), 4
        )
        for t in dataset.arrivals():
            pipeline.process(t)
        final = pipeline.flush()
        assert [r.ts for r in final] == sorted(r.ts for r in final)

    def test_merge_keeps_shard_then_emission_order_on_tied_keys(self):
        # Hand-built tuples left at the default seq=-1: every result of
        # one timestamp has the same (ts, seq...) key.  The merge must
        # order them as the stable key sort it replaces did — the
        # concatenation order, shard 0's results before shard 1's.
        def result(ts, tag):
            parts = tuple(
                StreamTuple(ts=ts, values={"tag": tag}, stream=s) for s in range(2)
            )
            return JoinResult(ts, parts)

        shard0 = [result(5, "a"), result(3, "b"), result(5, "c"), result(3, "d")]
        shard1 = [result(3, "e"), result(5, "f"), result(3, "g")]
        seq_of = attrgetter("seq")
        stable = sorted(
            shard0 + shard1, key=lambda r: (r.ts, *map(seq_of, r.components))
        )
        merged = canonical_order(shard0 + shard1)
        assert [r.components[0]["tag"] for r in merged] == list("bdegacf")
        assert all(a is b for a, b in zip(merged, stable))
        assert canonical_order([]) == []


class TestFlushLeavesTheCollectorAsFound:
    """``flush()`` pauses the cyclic collector over the bulk build and
    merge; whatever state the host had it in comes back, also when the
    flush raises."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("host_enabled", [True, False])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_state_restored_after_a_collecting_flush(self, host_enabled, executor):
        dataset = _d3(duration_s=4)
        config = _lossless_config(dataset, equi_join_chain("a1", 3), 3)
        with PartitionedPipeline(config, 2, executor=executor) as pipeline:
            produced = list(pipeline.process_batch(list(dataset.arrivals())))
            (gc.enable if host_enabled else gc.disable)()
            produced += pipeline.flush()
            assert gc.isenabled() is host_enabled
        assert produced

    def test_state_restored_when_the_flush_raises(self):
        dataset = _d3(duration_s=2)
        config = _lossless_config(dataset, equi_join_chain("a1", 3), 3)
        # Nothing is dispatched before finish() (one oversized batch);
        # there shard 0 dies on every incarnation and has no respawns.
        plan = FaultPlan(
            (FaultSpec(0, KIND_CRASH_BEFORE_BATCH, at=1, persistent=True),)
        )
        supervision = SupervisionConfig(max_respawns=0, backoff_base_s=0.01)
        pipeline = PartitionedPipeline(
            config, 2, executor="supervised", batch_size=100_000,
            supervision=supervision, fault_plan=plan,
        )
        with pipeline:
            pipeline.process_batch(list(dataset.arrivals()))
            assert gc.isenabled()
            with pytest.raises(ShardFailure, match="shard 0"):
                pipeline.flush()
            assert gc.isenabled()


def _sequence_digest(results):
    rows = [(r.ts, *(c.seq for c in r.components)) for r in results]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_collected_flush_budget():
    """The collecting path's saving, pinned by counts instead of a
    timing: on the NEXMark layout every probe plan is a pure product,
    so an in-order trigger fetches each other window's candidates at
    most once — while the results and their merged order stay those of
    a single pipeline."""
    dataset = make_auction_bids(
        NexmarkConfig(num_phases=1, phase_duration_ms=4_000, seed=5)
    )
    num_streams = 3
    config = _lossless_config(dataset, auction_bid_query(2), num_streams)
    single = canonical_order(_single_run(dataset, config))

    pipeline = PartitionedPipeline(config, 2, executor="serial")
    fetches = Counter()

    def counted(fetch, shard):
        def wrapper(*args):
            fetches[shard] += 1
            return fetch(*args)

        return wrapper

    for shard, shard_pipeline in enumerate(pipeline.executor.pipelines):
        for window in shard_pipeline.join.windows:
            window.lookup = counted(window.lookup, shard)
            window.tuples = counted(window.tuples, shard)
    arrivals = list(dataset.arrivals())
    outputs = []
    for start in range(0, len(arrivals), 16):
        outputs += pipeline.process_batch(arrivals[start : start + 16])
    final = pipeline.flush()
    assert final and final == canonical_order(list(final))
    outputs += final

    stats = pipeline.join_statistics()
    assert stats["tuples_in_order"] == stats["probes"] == len(arrivals)
    assert stats["results_produced"] == len(outputs) == len(single) == 43_908
    assert 0 < min(fetches.values())
    assert sum(fetches.values()) <= (num_streams - 1) * stats["probes"]
    assert _sequence_digest(canonical_order(outputs)) == _sequence_digest(single)


class TestPartitionedLifecycle:
    def test_process_after_flush_raises(self):
        condition = equi_join_chain("a1", 2)
        dataset = _d3(duration_s=2)
        pipeline = PartitionedPipeline(
            _lossless_config(dataset, condition, 2), 2
        )
        assert not pipeline.flushed
        pipeline.flush()
        assert pipeline.flushed
        assert pipeline.flush() == []  # idempotent
        with pytest.raises(RuntimeError):
            pipeline.process(StreamTuple(ts=1, values={"a1": 1}, stream=0))

    def test_metrics_live_under_serial_executor(self):
        condition = equi_join_chain("a1", 2)
        dataset = _d3(duration_s=2)
        pipeline = PartitionedPipeline(
            _lossless_config(dataset, condition, 2), 2
        )
        pipeline.process(StreamTuple(ts=1, values={"a1": 1}, stream=0))
        assert pipeline.metrics.tuples_processed == 1

    def test_join_statistics_are_the_join_field_of_the_one_record(self):
        # One accounting record per shard: the summed MSWJ counters are
        # the merged record's ``join`` field — live (every access
        # captures the serial shards afresh) and after flush.
        condition = equi_join_chain("a1", 3)
        dataset = _d3(duration_s=6)
        pipeline = PartitionedPipeline(
            _lossless_config(dataset, condition, 3), 2
        )

        def check():
            summed = Counter()
            for shard in pipeline.executor.pipelines:
                summed.update(shard.join.stats.as_dict())
            stats = pipeline.join_statistics()
            assert stats == pipeline.metrics.join == dict(summed)
            return stats

        arrivals = list(dataset.arrivals())
        half = len(arrivals) // 2
        pipeline.process_batch(arrivals[:half])
        midway = check()
        assert midway["probes"] > 0
        pipeline.process_batch(arrivals[half:])
        pipeline.flush()
        assert check()["probes"] > midway["probes"]

    def test_metrics_deferred_under_process_executor(self):
        condition = equi_join_chain("a1", 2)
        dataset = _d3(duration_s=2)
        pipeline = PartitionedPipeline(
            _lossless_config(dataset, condition, 2), 2, executor="process"
        )
        with pytest.raises(RuntimeError):
            pipeline.metrics
        pipeline.flush()
        assert pipeline.metrics.tuples_processed == 0

    def test_unknown_executor_rejected(self):
        condition = equi_join_chain("a1", 2)
        dataset = _d3(duration_s=2)
        with pytest.raises(ValueError):
            PartitionedPipeline(
                _lossless_config(dataset, condition, 2), 2, executor="threads"
            )

    def test_executor_factory_accepted(self):
        condition = equi_join_chain("a1", 2)
        dataset = _d3(duration_s=2)
        pipeline = PartitionedPipeline(
            _lossless_config(dataset, condition, 2),
            2,
            executor=lambda config, shards: SerialExecutor(config, shards),
        )
        assert isinstance(pipeline.executor, SerialExecutor)

    def test_close_without_flush_terminates_workers(self):
        condition = equi_join_chain("a1", 2)
        dataset = _d3(duration_s=2)
        pipeline = PartitionedPipeline(
            _lossless_config(dataset, condition, 2), 2, executor="process"
        )
        pipeline.process(StreamTuple(ts=1, values={"a1": 1}, stream=0))
        workers = [s.process for s in pipeline.executor._shards]
        pipeline.close()
        assert all(not worker.is_alive() for worker in workers)
        with pytest.raises(RuntimeError):
            pipeline.process(StreamTuple(ts=2, values={"a1": 1}, stream=0))
        assert pipeline.flush() == []

    def test_context_manager_closes_on_error(self):
        condition = equi_join_chain("a1", 2)
        dataset = _d3(duration_s=2)
        with pytest.raises(KeyError):
            with PartitionedPipeline(
                _lossless_config(dataset, condition, 2), 2, executor="process"
            ) as pipeline:
                workers = [s.process for s in pipeline.executor._shards]
                raise KeyError("feed loop blew up")
        assert all(not worker.is_alive() for worker in workers)

    def test_close_after_flush_is_clean(self):
        condition = equi_join_chain("a1", 2)
        dataset = _d3(duration_s=2)
        with PartitionedPipeline(
            _lossless_config(dataset, condition, 2), 2, executor="process"
        ) as pipeline:
            pipeline.flush()
        assert pipeline.flushed

    def test_worker_failure_surfaces(self):
        # A tuple with an out-of-range stream index makes the shard
        # pipeline raise inside the worker; finish() must report it.
        condition = equi_join_chain("a1", 2)
        dataset = _d3(duration_s=2)
        executor = ProcessExecutor(
            _lossless_config(dataset, condition, 2), 1, batch_size=1
        )
        executor.submit(0, StreamTuple(ts=1, values={"a1": 1}, stream=5))
        with pytest.raises(RuntimeError, match="shard 0"):
            executor.finish()


class TestMetricsMerge:
    def test_merge_aggregates_counters(self):
        a = PipelineMetrics(
            k_history=[(0, 0), (100, 50)],
            adaptation_seconds=[0.1],
            adaptations=1,
            results_produced=3,
            tuples_processed=10,
            latency_sum_ms=30,
            latency_count=3,
            latency_max_ms=20,
        )
        b = PipelineMetrics(
            k_history=[(0, 0), (50, 80)],
            adaptation_seconds=[0.2, 0.3],
            adaptations=2,
            results_produced=5,
            tuples_processed=12,
            latency_sum_ms=50,
            latency_count=4,
            latency_max_ms=35,
        )
        merged = PipelineMetrics.merge([a, b])
        assert merged.tuples_processed == 22
        assert merged.results_produced == 8
        assert merged.adaptations == 3
        assert merged.latency_sum_ms == 80
        assert merged.latency_count == 7
        assert merged.latency_max_ms == 35
        assert merged.adaptation_seconds == [0.1, 0.2, 0.3]
        # Both shards' initial (0, 0) epochs collapse to one entry; the
        # individual trajectories survive in shard_k_histories.
        assert merged.k_history == [(0, 0), (50, 80), (100, 50)]
        assert merged.shard_k_histories == [
            [(0, 0), (100, 50)],
            [(0, 0), (50, 80)],
        ]
        assert merged.average_latency_ms() == pytest.approx(80 / 7)

    def test_merged_average_k_is_mean_of_shard_averages(self):
        # Hand-computed over a run ending at t=200:
        #   shard a: K=0 on [0,100), K=50 on [100,200)  -> avg 25
        #   shard b: K=0 on [0,50),  K=80 on [50,200)   -> avg 60
        # The merged average must be the mean of the shard averages
        # (shards buffer concurrently), not the time-weighted average of
        # the interleaved event union (which would give 45 here).
        a = PipelineMetrics(k_history=[(0, 0), (100, 50)])
        b = PipelineMetrics(k_history=[(0, 0), (50, 80)])
        assert a.average_k_ms(200) == pytest.approx(25.0)
        assert b.average_k_ms(200) == pytest.approx(60.0)
        merged = PipelineMetrics.merge([a, b])
        assert merged.average_k_ms(200) == pytest.approx((25.0 + 60.0) / 2)

    def test_nested_merge_flattens_to_leaf_shard_trajectories(self):
        # Merging already-merged metrics must average over the leaf
        # shards, not over each part's interleaved event union.
        a = PipelineMetrics(k_history=[(0, 0), (100, 50)])   # avg(200) = 25
        b = PipelineMetrics(k_history=[(0, 0), (50, 80)])    # avg(200) = 60
        c = PipelineMetrics(k_history=[(0, 40)])             # avg(200) = 40
        nested = PipelineMetrics.merge([PipelineMetrics.merge([a, b]), c])
        flat = PipelineMetrics.merge([a, b, c])
        assert nested.shard_k_histories == flat.shard_k_histories
        assert nested.average_k_ms(200) == pytest.approx((25 + 60 + 40) / 3)

    def test_merge_collapses_nonadjacent_duplicate_epochs(self):
        # Shards with differing initial K: the ts-sorted union interleaves
        # the duplicates, which must still collapse to one entry each.
        parts = [
            PipelineMetrics(k_history=[(0, 0), (100, 50)]),
            PipelineMetrics(k_history=[(0, 5)]),
            PipelineMetrics(k_history=[(0, 0)]),
        ]
        merged = PipelineMetrics.merge(parts)
        assert merged.k_history == [(0, 0), (0, 5), (100, 50)]

    def test_merge_keeps_concurrent_equal_k_changes(self):
        # Only the *initial* epochs dedupe: two shards adapting to the
        # same K at the same (shared) boundary are distinct real events
        # that K-change counts over the merged history must still see.
        parts = [
            PipelineMetrics(k_history=[(0, 0), (5_000, 250)]),
            PipelineMetrics(k_history=[(0, 0), (5_000, 250)]),
        ]
        merged = PipelineMetrics.merge(parts)
        assert merged.k_history == [(0, 0), (5_000, 250), (5_000, 250)]

    def test_merge_of_identical_fixed_k_shards_keeps_fixed_k_average(self):
        # N shards pinned at the same fixed K: before the fix the N
        # duplicated (0, K) epochs were harmless but any zero-duration
        # reading of the union skewed averages; now the merged view is
        # exactly the single-shard view.
        parts = [PipelineMetrics(k_history=[(0, 300)]) for _ in range(4)]
        merged = PipelineMetrics.merge(parts)
        assert merged.k_history == [(0, 300)]
        assert merged.average_k_ms(1_000) == pytest.approx(300.0)

    def test_merge_empty(self):
        merged = PipelineMetrics.merge([])
        assert merged.tuples_processed == 0
        assert merged.average_k_ms() == 0.0

    def test_every_field_declares_how_it_combines(self):
        # The rule table: a field added without both combine rules fails
        # here instead of silently vanishing from merge / continued_by.
        ruled = []
        for spec in dataclasses.fields(PipelineMetrics):
            if spec.name in ("k_history", "shard_k_histories"):
                continue  # the K trajectories have their own logic
            assert callable(spec.metadata.get("shards")), spec.name
            assert callable(spec.metadata.get("incarnations")), spec.name
            ruled.append(spec.name)
        # A fully populated record: every ruled field away from its zero.
        full = PipelineMetrics(
            k_history=[(0, 100), (1_000, 50)],
            adaptation_seconds=[0.1, 0.2],
            adaptations=2,
            results_produced=7,
            tuples_processed=11,
            latency_sum_ms=40,
            latency_count=5,
            latency_max_ms=13,
            stream_resident_objects=[4, 5],
            stream_hot_objects=[2, 3],
            stream_encoded_bytes=[64, 0],
            stream_evicted=[1, 6],
            decode_hits=3,
            decode_misses=2,
            join={"probes": 9, "results_produced": 7},
        )
        blank = PipelineMetrics()
        for name in ruled:
            assert getattr(full, name) != getattr(blank, name), name
        # Combining with nothing else is the identity, under both rules.
        merged = PipelineMetrics.merge([full])
        continued = blank.continued_by(full)
        for name in ruled:
            assert getattr(merged, name) == getattr(full, name), name
            assert getattr(continued, name) == getattr(full, name), name
        assert merged.k_history == full.k_history


class TestDeterminism:
    def test_two_identical_seeded_runs_produce_identical_sequences(self):
        # Regression for the SlidingWindow.lookup set-iteration bug: the
        # emitted result *sequence* (not just set) must be reproducible.
        condition = equi_join_chain("a1", 3)
        sequences = []
        for _ in range(2):
            dataset = _d3(duration_s=10, seed=29)
            results = _single_run(
                dataset, _lossless_config(dataset, condition, 3)
            )
            sequences.append([r.key() for r in results])
        assert sequences[0] == sequences[1]

    def test_partitioned_serial_runs_are_deterministic(self):
        condition = equi_join_chain("a1", 3)
        sequences = []
        for _ in range(2):
            dataset = _d3(duration_s=8, seed=31)
            outputs, _ = run_partitioned(
                dataset, _lossless_config(dataset, condition, 3), 4
            )
            sequences.append([r.key() for r in outputs])
        assert sequences[0] == sequences[1]
