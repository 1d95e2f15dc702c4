"""Determinism suite for the batched, plan-cached execution engine.

The load-bearing contract of `process_batch` at every layer — operator,
single pipeline, partitioned pipeline — is **chunk-size invariance**:
`process(t)` is `process_batch((t,))`, and feeding the same disordered
workload per tuple or in bursts of any size must produce the *identical
result sequence* (not just set or multiset) and identical
`JoinStatistics` / `PipelineMetrics` counters, on both window stores
and under both executors.  The probe-plan cache gets
the same treatment: clearing it between tuples (forcing a rebuild every
trigger, i.e. the pre-cache behaviour) must not change a single result.
"""

import dataclasses

import pytest

from repro import (
    BandPredicate,
    EquiPredicate,
    JoinCondition,
    MaxKSlackPolicy,
    MSWJOperator,
    PipelineConfig,
    QualityDrivenPipeline,
    StreamTuple,
    TieredStoreConfig,
    equi_join_chain,
    make_d3_syn,
    replay,
    run_partitioned,
    seconds,
)
from repro.workloads import fixed_k_config

from .policies import ScheduledKPolicy

CONDITION = equi_join_chain("a1", 3)


def _dataset(duration_s=10, seed=7):
    return make_d3_syn(
        duration_ms=seconds(duration_s), seed=seed, inter_arrival_ms=50
    )


STORES = pytest.mark.parametrize(
    "store", [None, TieredStoreConfig(hot_budget=64)], ids=["memory", "tiered"]
)


def _config(
    dataset, policy=None, collect=True, gamma=0.95, adaptive=False, store=None
):
    """Fixed-K by default; ``adaptive=True`` leaves ``policy=None`` so the
    pipeline runs the paper's ModelBasedPolicy adaptation loop."""
    windows = [seconds(2)] * 3
    if policy is None and not adaptive:
        return fixed_k_config(
            dataset.max_delay(), windows, CONDITION, collect, store
        )
    return PipelineConfig(
        window_sizes_ms=windows,
        condition=CONDITION,
        gamma=gamma,
        period_ms=seconds(10),
        interval_ms=seconds(1),
        policy=None if adaptive else policy,
        initial_k_ms=0,
        collect_results=collect,
        store=store,
    )


def _sequence(results):
    return [(r.ts, r.key()) for r in results]


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start : start + size]


# ----------------------------------------------------------------------
# operator level
# ----------------------------------------------------------------------


def _mswj_workload(seed=3):
    """A synchronized-ish stream with genuine disorder: in-order runs,
    keepable out-of-order tuples, and droppable stragglers."""
    import random

    rng = random.Random(seed)
    tuples = []
    ts = 0
    for seq in range(400):
        ts += rng.randint(0, 120)
        jitter = rng.choice((0, 0, 0, -150, -80, -2_500))
        t_ts = max(0, ts + jitter)
        tuples.append(
            StreamTuple(
                ts=t_ts,
                values={"a1": rng.randint(1, 12), "v": rng.randint(0, 40)},
                stream=seq % 3,
                seq=seq,
            )
        )
    return tuples


class TestOperatorBatched:
    @pytest.mark.parametrize(
        "condition",
        [
            CONDITION,
            JoinCondition(
                [EquiPredicate(0, "a1", 1, "a1"), BandPredicate(1, "v", 2, "v", 10.0)]
            ),
        ],
        ids=["equi-chain", "equi+band"],
    )
    def test_batch_matches_per_tuple_results_and_stats(self, condition):
        workload = _mswj_workload()
        per_tuple = MSWJOperator([1_000, 1_000, 1_000], condition)
        expected = []
        for t in workload:
            expected.extend(per_tuple.process(t))
        batched = MSWJOperator([1_000, 1_000, 1_000], condition)
        got = batched.process_batch(workload)
        assert _sequence(got) == _sequence(expected)
        assert batched.stats.as_dict() == per_tuple.stats.as_dict()
        assert batched.on_t == per_tuple.on_t
        assert batched.window_cardinalities() == per_tuple.window_cardinalities()

    def test_count_only_mode_matches(self):
        workload = _mswj_workload(seed=5)
        per_tuple = MSWJOperator([1_000] * 3, CONDITION, collect_results=False)
        expected = sum(per_tuple.process(t) for t in workload)
        batched = MSWJOperator([1_000] * 3, CONDITION, collect_results=False)
        assert batched.process_batch(workload) == expected
        assert batched.stats.as_dict() == per_tuple.stats.as_dict()

    def test_probe_out_of_order_mode_matches(self):
        workload = _mswj_workload(seed=9)
        per_tuple = MSWJOperator([1_000] * 3, CONDITION, probe_out_of_order=True)
        expected = []
        for t in workload:
            expected.extend(per_tuple.process(t))
        batched = MSWJOperator([1_000] * 3, CONDITION, probe_out_of_order=True)
        got = batched.process_batch(workload)
        assert _sequence(got) == _sequence(expected)
        assert batched.stats.as_dict() == per_tuple.stats.as_dict()

    def test_batch_rejects_bad_stream_index(self):
        op = MSWJOperator([1_000] * 3, CONDITION)
        with pytest.raises(ValueError):
            op.process_batch([StreamTuple(ts=1, stream=7)])

    def test_productivity_callback_sequence_identical(self):
        workload = _mswj_workload(seed=11)
        calls = []

        def record(kind):
            def callback(t, n_cross, n_on, in_order):
                calls.append((kind, t.seq, n_cross, n_on, in_order))

            return callback

        per_tuple = MSWJOperator(
            [1_000] * 3, CONDITION, productivity_callback=record("per-tuple")
        )
        for t in workload:
            per_tuple.process(t)
        batched = MSWJOperator(
            [1_000] * 3, CONDITION, productivity_callback=record("batched")
        )
        batched.process_batch(workload)
        per_tuple_calls = [c[1:] for c in calls if c[0] == "per-tuple"]
        batched_calls = [c[1:] for c in calls if c[0] == "batched"]
        assert batched_calls == per_tuple_calls


class TestPlanCache:
    def test_cache_populates_and_reuses_plans(self):
        op = MSWJOperator([1_000] * 3, CONDITION)
        for t in _mswj_workload():
            op.process(t)
        cached_orders = [set(plans) for plans in op._plans]
        assert any(cached_orders)  # plans were built
        # Far fewer distinct plans than probes: the cache actually reuses.
        assert sum(len(p) for p in op._plans) < op.stats.probes

    def test_clearing_cache_every_tuple_changes_nothing(self):
        # Forcing a plan rebuild per trigger (the pre-cache behaviour)
        # must be invisible in the output — the plan depends only on the
        # trigger stream and the policy's order.
        workload = _mswj_workload(seed=13)
        cached = MSWJOperator([1_000] * 3, CONDITION)
        uncached = MSWJOperator([1_000] * 3, CONDITION)
        seq_cached = []
        seq_uncached = []
        for t in workload:
            seq_cached.extend(cached.process(t))
            for plans in uncached._plans:
                plans.clear()
            seq_uncached.extend(uncached.process(t))
        assert _sequence(seq_cached) == _sequence(seq_uncached)
        assert cached.stats.as_dict() == uncached.stats.as_dict()


# ----------------------------------------------------------------------
# single-pipeline level
# ----------------------------------------------------------------------


class TestPipelineBatched:
    def _per_tuple_run(self, dataset, config):
        pipeline = QualityDrivenPipeline(config)
        results = []
        for t in dataset.arrivals():
            results.extend(pipeline.process(t))
        results.extend(pipeline.flush())
        return results, pipeline

    def _batched_run(self, dataset, config, chunk_size):
        pipeline = QualityDrivenPipeline(config)
        results = []
        arrivals = list(dataset.arrivals())
        for chunk in _chunks(arrivals, chunk_size):
            results.extend(pipeline.process_batch(chunk))
        results.extend(pipeline.flush())
        return results, pipeline

    @pytest.mark.parametrize("chunk_size", [1, 7, 256])
    def test_adaptive_run_byte_identical(self, chunk_size):
        # ModelBasedPolicy adapts K at interval boundaries that now fall
        # mid-batch; the sequences must still match byte for byte.
        dataset = _dataset(seed=17)
        expected, ref = self._per_tuple_run(
            dataset, _config(dataset, gamma=0.9, adaptive=True)
        )
        got, pipeline = self._batched_run(
            dataset, _config(dataset, gamma=0.9, adaptive=True), chunk_size
        )
        assert _sequence(got) == _sequence(expected)
        assert pipeline.metrics.k_history == ref.metrics.k_history
        assert pipeline.metrics.tuples_processed == ref.metrics.tuples_processed
        assert pipeline.metrics.results_produced == ref.metrics.results_produced
        assert pipeline.metrics.latency_sum_ms == ref.metrics.latency_sum_ms
        assert pipeline.join.stats.as_dict() == ref.join.stats.as_dict()

    @STORES
    @pytest.mark.parametrize("chunk_size", [1, 7, 10**9], ids=["1", "7", "whole"])
    def test_chunk_size_invariance_on_both_stores(self, store, chunk_size):
        dataset = _dataset(duration_s=6, seed=41)
        expected, ref = self._per_tuple_run(dataset, _config(dataset, store=store))
        got, pipeline = self._batched_run(
            dataset, _config(dataset, store=store), chunk_size
        )
        assert expected  # fixture actually joins
        assert _sequence(got) == _sequence(expected)
        assert pipeline.join.stats.as_dict() == ref.join.stats.as_dict()

    def test_continuous_policy_byte_identical(self):
        # Max-K-slack bumps K on arrivals (mid-batch immediate releases).
        dataset = _dataset(seed=19)
        expected, ref = self._per_tuple_run(
            dataset, _config(dataset, policy=MaxKSlackPolicy())
        )
        got, pipeline = self._batched_run(
            dataset, _config(dataset, policy=MaxKSlackPolicy()), 64
        )
        assert _sequence(got) == _sequence(expected)
        assert pipeline.metrics.k_history == ref.metrics.k_history
        assert pipeline.join.stats.as_dict() == ref.join.stats.as_dict()

    def test_count_only_mode_matches(self):
        dataset = _dataset(seed=23)
        config = _config(dataset, collect=False)
        pipeline = QualityDrivenPipeline(config)
        expected = 0
        for t in dataset.arrivals():
            expected += pipeline.process(t)
        expected += pipeline.flush()
        batched = QualityDrivenPipeline(_config(dataset, collect=False))
        got = batched.process_batch(list(dataset.arrivals()))
        got += batched.flush()
        assert got == expected

    def test_process_batch_after_flush_raises(self):
        dataset = _dataset(duration_s=2)
        pipeline = QualityDrivenPipeline(_config(dataset))
        pipeline.flush()
        with pytest.raises(RuntimeError):
            pipeline.process_batch([StreamTuple(ts=1, values={"a1": 1}, stream=0)])

    def test_empty_batch_is_noop(self):
        dataset = _dataset(duration_s=2)
        pipeline = QualityDrivenPipeline(_config(dataset))
        assert pipeline.process_batch([]) == []
        assert pipeline.metrics.tuples_processed == 0

    @pytest.mark.parametrize("bad_stream", [3, -1])
    def test_bad_stream_index_rejects_the_whole_batch(self, bad_stream):
        dataset = _dataset(duration_s=4, seed=31)
        arrivals = list(dataset.arrivals())
        pipeline = QualityDrivenPipeline(_config(dataset))
        results = pipeline.process_batch(arrivals[:50])

        def state():
            return (
                pipeline.metrics.tuples_processed,
                [kslack.buffered for kslack in pipeline.kslacks],
                pipeline.synchronizer.buffered,
                [s.tuples_observed for s in pipeline.statistics.streams],
            )

        before = state()
        assert any(before[1])  # the K-slack buffers hold tuples
        bad = StreamTuple(ts=arrivals[69].ts, values={"a1": 1}, stream=bad_stream)
        with pytest.raises(ValueError, match="stream index"):
            pipeline.process_batch(arrivals[50:70] + [bad])
        assert state() == before
        results += pipeline.process_batch(arrivals[50:])
        results += pipeline.flush()
        expected = replay(QualityDrivenPipeline(_config(dataset)), arrivals)
        assert _sequence(results) == _sequence(expected)


def _boundary_chunks(arrivals, interval_ms):
    """Chunks that each end on the arrival whose timestamp reaches the
    next adaptation boundary (the last chunk takes the rest)."""
    chunks, start, clock = [], 0, 0
    boundary = (arrivals[0].ts // interval_ms + 1) * interval_ms
    for end, t in enumerate(arrivals, 1):
        clock = max(clock, t.ts)
        if clock >= boundary:
            chunks.append(arrivals[start:end])
            start = end
            while boundary <= clock:
                boundary += interval_ms
    return chunks + [arrivals[start:]]


#: Each policy a fresh config: FixedKPolicy (lossless K), Alg. 3, the
#: per-arrival Max-K-slack, and a replayed schedule that grows, shrinks
#: (releasing buffered tuples at once) down to 0, and grows again.
POLICY_CONFIGS = {
    "fixed": lambda d: _config(d),
    "model-based": lambda d: _config(d, gamma=0.9, adaptive=True),
    "max-k-slack": lambda d: _config(d, policy=MaxKSlackPolicy()),
    "scheduled": lambda d: _config(
        d,
        policy=ScheduledKPolicy(
            {0: 2_000, 2: 300, 3: 0, 5: 1_500, 6: 800, 8: 3_000}
        ),
    ),
}


class TestChunkInvarianceOracle:
    """Per-tuple driving and every chunking agree on the result sequence,
    the whole accounting record (wall-clock timings aside), the
    ``on_results`` calls and what the recall model reads from the
    Statistics Manager at each adaptation step."""

    def _run(self, config, feed):
        results_calls, reads = [], []

        def on_adaptation(pipeline, ts):
            s = pipeline.statistics
            reads.append(
                repr(
                    (
                        ts,
                        s.delay_pdfs(),
                        s.ksync_estimates_ms(),
                        s.rates_per_ms(),
                        s.max_delay_ms(),
                    )
                )
            )

        pipeline = QualityDrivenPipeline(
            config,
            on_adaptation=on_adaptation,
            on_results=lambda ts, count: results_calls.append((ts, count)),
        )
        results = feed(pipeline)
        account = dataclasses.asdict(pipeline.account())
        del account["adaptation_seconds"]
        return _sequence(results), account, results_calls, reads

    @pytest.mark.parametrize("policy", list(POLICY_CONFIGS))
    @pytest.mark.parametrize("chunking", ["1", "7", "16", "whole", "boundaries"])
    def test_chunking_matches_per_tuple_drive(self, policy, chunking):
        dataset = _dataset(seed=53)
        arrivals = list(dataset.arrivals())
        config = POLICY_CONFIGS[policy]

        def per_tuple(pipeline):
            results = []
            for t in arrivals:
                results += pipeline.process(t)
            return results + pipeline.flush()

        def chunked(pipeline):
            if chunking != "boundaries":
                size = len(arrivals) if chunking == "whole" else int(chunking)
                return replay(pipeline, arrivals, size)
            chunks = _boundary_chunks(arrivals, config(dataset).interval_ms)
            assert len(chunks) >= 5
            results = []
            for chunk in chunks:
                results += pipeline.process_batch(chunk)
            return results + pipeline.flush()

        expected = self._run(config(dataset), per_tuple)
        got = self._run(config(dataset), chunked)
        sequence, account, results_calls, reads = expected
        assert sequence and results_calls  # the fixture joins
        assert len(reads) >= 8  # the whole input crosses many boundaries
        if policy != "fixed":
            assert len(account["k_history"]) > 2  # K moves
        assert got[0] == sequence
        assert got[1] == account
        assert got[2] == results_calls
        assert got[3] == reads


# ----------------------------------------------------------------------
# partitioned level
# ----------------------------------------------------------------------


class TestPartitionedBatched:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_serial_batched_matches_per_tuple(self, shards):
        dataset = _dataset(seed=29)
        per_tuple, m_ref = run_partitioned(
            dataset, _config(dataset), shards, executor="serial"
        )
        batched, m_got = run_partitioned(
            dataset, _config(dataset), shards, executor="serial", chunk_size=128
        )
        if shards == 1:
            # One shard: no cross-shard interleaving — byte-identical.
            assert _sequence(batched) == _sequence(per_tuple)
        else:
            # Shards>1: each shard's sub-sequence is byte-identical, but
            # within one process_batch call immediate results come back
            # grouped by shard; the ts-sorted stream must agree exactly.
            assert sorted(_sequence(batched)) == sorted(_sequence(per_tuple))
        assert m_got.tuples_processed == m_ref.tuples_processed
        assert m_got.results_produced == m_ref.results_produced
        assert m_got.k_history == m_ref.k_history

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_process_executor_batched_byte_identical(self, shards):
        # Under the process executor every result arrives in the
        # ts-ordered flush merge, so per-tuple and batched feeding give
        # byte-identical end-to-end sequences at any shard count.
        dataset = _dataset(duration_s=8, seed=31)
        per_tuple, _ = run_partitioned(
            dataset, _config(dataset), shards, executor="process", batch_size=64
        )
        batched, _ = run_partitioned(
            dataset,
            _config(dataset),
            shards,
            executor="process",
            batch_size=64,
            chunk_size=128,
        )
        assert _sequence(batched) == _sequence(per_tuple)

    @STORES
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_chunk_size_invariance_per_executor_and_store(self, executor, store):
        dataset = _dataset(duration_s=6, seed=43)
        from repro import PartitionedPipeline

        def run(chunk_size):
            with PartitionedPipeline(
                _config(dataset, store=store), 2, executor=executor, batch_size=32
            ) as pipeline:
                results = []
                arrivals = list(dataset.arrivals())
                if chunk_size is None:
                    for t in arrivals:
                        results.extend(pipeline.process(t))
                else:
                    for chunk in _chunks(arrivals, chunk_size):
                        results.extend(pipeline.process_batch(chunk))
                results.extend(pipeline.flush())
                return sorted(_sequence(results)), pipeline.join_statistics()

        per_tuple = run(None)
        assert per_tuple[0]  # fixture actually joins
        for chunk_size in (1, 7, len(dataset)):
            assert run(chunk_size) == per_tuple

    def test_join_statistics_identical_across_drivers(self):
        dataset = _dataset(seed=37)
        from repro import PartitionedPipeline

        def stats_of(chunk_size):
            pipeline = PartitionedPipeline(_config(dataset), 4)
            arrivals = list(dataset.arrivals())
            if chunk_size is None:
                for t in arrivals:
                    pipeline.process(t)
            else:
                for chunk in _chunks(arrivals, chunk_size):
                    pipeline.process_batch(chunk)
            pipeline.flush()
            return pipeline.join_statistics()

        per_tuple = stats_of(None)
        batched = stats_of(128)
        assert batched == per_tuple
        assert per_tuple["results_produced"] > 0

    def test_broadcast_condition_batched_matches(self):
        # Non-partitionable condition: the batch is broadcast to every
        # shard; shard-0 emission must still reproduce the per-tuple run.
        from repro import from_tuple_specs

        specs = [(i % 2, 100 * i, {"a1": i % 5}) for i in range(80)]
        dataset = from_tuple_specs(specs, num_streams=2)
        condition = JoinCondition([BandPredicate(0, "a1", 1, "a1", 1.0)])
        config = fixed_k_config(
            dataset.max_delay(), [seconds(2)] * 2, condition, True
        )
        per_tuple, _ = run_partitioned(dataset, config, 3)
        batched, _ = run_partitioned(dataset, config, 3, chunk_size=16)
        assert per_tuple  # fixture actually joins
        assert sorted(_sequence(batched)) == sorted(_sequence(per_tuple))

    def test_chunk_size_validation(self):
        dataset = _dataset(duration_s=2)
        with pytest.raises(ValueError):
            run_partitioned(dataset, _config(dataset), 2, chunk_size=0)

    def test_partitioned_process_batch_after_flush_raises(self):
        from repro import PartitionedPipeline

        dataset = _dataset(duration_s=2)
        pipeline = PartitionedPipeline(_config(dataset), 2)
        pipeline.flush()
        with pytest.raises(RuntimeError):
            pipeline.process_batch([StreamTuple(ts=1, values={"a1": 1}, stream=0)])


# ----------------------------------------------------------------------
# replay: the one feed loop, on either engine
# ----------------------------------------------------------------------


def _engine(kind, config):
    from repro import PartitionedPipeline

    if kind == "single":
        return QualityDrivenPipeline(config)
    return PartitionedPipeline(config, 2, executor="serial")


ENGINES = pytest.mark.parametrize("kind", ["single", "serial-x2"])


class TestReplay:
    @ENGINES
    @pytest.mark.parametrize("collect", [True, False], ids=["collect", "count"])
    @pytest.mark.parametrize("chunk_size", [1, 7, 10**9], ids=["1", "7", "whole"])
    def test_replay_matches_per_tuple_drive(self, kind, collect, chunk_size):
        dataset = _dataset(duration_s=6, seed=47)
        reference = _engine(kind, _config(dataset, collect=collect))
        expected = [] if collect else 0
        for t in dataset.arrivals():
            expected += reference.process(t)
        expected += reference.flush()

        engine = _engine(kind, _config(dataset, collect=collect))
        # A one-shot generator: replay must consume it exactly once.
        got = replay(engine, (t for t in dataset.arrivals()), chunk_size)
        produced = engine.metrics.results_produced
        if collect:
            assert expected  # fixture actually joins
            # Two shards return a call's immediate results grouped by
            # shard, so only the single pipeline is compared in order.
            order = _sequence if kind == "single" else (
                lambda results: sorted(_sequence(results))
            )
            assert order(got) == order(expected)
            assert len(got) == produced
        else:
            assert expected > 0
            assert got == expected == produced
        assert engine.metrics.tuples_processed == reference.metrics.tuples_processed
        assert engine.flushed

    @ENGINES
    def test_chunk_size_zero_raises_before_feeding(self, kind):
        dataset = _dataset(duration_s=2)
        engine = _engine(kind, _config(dataset))
        with pytest.raises(ValueError, match=r"^chunk_size must be >= 1, got 0$"):
            replay(engine, dataset.arrivals(), 0)
        assert engine.metrics.tuples_processed == 0
        assert not engine.flushed
