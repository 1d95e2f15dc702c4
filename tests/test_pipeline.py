"""Unit and integration tests for the end-to-end pipeline (repro.core.pipeline)."""

import dataclasses

import pytest

from repro import (
    BufferSizePolicy,
    EquiPredicate,
    FixedKPolicy,
    JoinCondition,
    MaxKSlackPolicy,
    ModelBasedPolicy,
    NoKSlackPolicy,
    NonEqSel,
    PipelineConfig,
    QualityDrivenPipeline,
    StreamTuple,
    equi_join_chain,
    from_tuple_specs,
    make_d3_syn,
    replay,
    seconds,
)

from .policies import ScheduledKPolicy


def _equi_config(**overrides):
    kwargs = dict(
        window_sizes_ms=[1_000, 1_000],
        condition=JoinCondition([EquiPredicate(0, "v", 1, "v")]),
        gamma=0.9,
        period_ms=10_000,
        interval_ms=1_000,
        basic_window_ms=10,
        granularity_ms=10,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


def _run(pipeline, specs):
    """Feed (stream, ts, values) specs in arrival order; return all results."""
    ds = from_tuple_specs(specs, num_streams=pipeline.num_streams)
    return replay(pipeline, ds.arrivals())


class TestConfigValidation:
    def test_gamma_bounds(self):
        with pytest.raises(ValueError):
            _equi_config(gamma=0.0)
        with pytest.raises(ValueError):
            _equi_config(gamma=1.5)

    def test_interval_must_not_exceed_period(self):
        with pytest.raises(ValueError):
            _equi_config(interval_ms=20_000, period_ms=10_000)

    def test_positive_b_and_g(self):
        with pytest.raises(ValueError):
            _equi_config(basic_window_ms=0)
        with pytest.raises(ValueError):
            _equi_config(granularity_ms=0)


class TestEndToEndJoin:
    def test_in_order_streams_full_results(self):
        pipeline = QualityDrivenPipeline(_equi_config(policy=NoKSlackPolicy()))
        results = _run(
            pipeline,
            [
                (0, 100, {"v": 1}),
                (1, 150, {"v": 1}),
                (0, 300, {"v": 2}),
                (1, 350, {"v": 2}),
            ],
        )
        assert len(results) == 2

    def test_disorder_without_kslack_loses_results(self):
        pipeline = QualityDrivenPipeline(_equi_config(policy=NoKSlackPolicy()))
        # The matching S0 tuple arrives very late (delay > window).
        results = _run(
            pipeline,
            [
                (0, 5_000, {"v": 9}),
                (1, 5_100, {"v": 9}),
                (1, 8_000, {"v": 1}),
                (0, 6_500, {"v": 1}),   # late: onT is 8000, outside W=1000
            ],
        )
        assert len(results) == 1  # only the (9, 9) match

    def test_fixed_k_recovers_late_results(self):
        pipeline = QualityDrivenPipeline(
            _equi_config(policy=FixedKPolicy(2_000), initial_k_ms=2_000)
        )
        results = _run(
            pipeline,
            [
                (0, 5_000, {"v": 9}),
                (1, 5_100, {"v": 9}),
                (1, 8_000, {"v": 1}),
                (0, 7_500, {"v": 1}),   # delay 500 <= K
                (0, 11_000, {"v": 3}),  # advances time so buffers drain
                (1, 11_050, {"v": 3}),
            ],
        )
        assert len(results) == 3

    def test_flush_produces_buffered_results(self):
        pipeline = QualityDrivenPipeline(
            _equi_config(policy=FixedKPolicy(100_000), initial_k_ms=100_000)
        )
        # Everything stays buffered until flush.
        results = _run(
            pipeline,
            [(0, 100, {"v": 1}), (1, 150, {"v": 1})],
        )
        assert len(results) == 1

    def test_flush_is_terminal(self):
        pipeline = QualityDrivenPipeline(_equi_config())
        pipeline.flush()
        with pytest.raises(RuntimeError):
            pipeline.process(StreamTuple(ts=1, stream=0, seq=0, arrival=1))

    def test_double_flush_returns_empty(self):
        pipeline = QualityDrivenPipeline(_equi_config())
        pipeline.flush()
        assert pipeline.flush() == []

    def test_count_only_mode_counts(self):
        pipeline = QualityDrivenPipeline(
            _equi_config(collect_results=False, policy=NoKSlackPolicy())
        )
        ds = from_tuple_specs(
            [(0, 100, {"v": 1}), (1, 150, {"v": 1})], num_streams=2
        )
        total = replay(pipeline, ds.arrivals())
        assert total == 1
        assert pipeline.metrics.results_produced == 1


class TestAdaptationScheduling:
    def test_adaptation_every_interval(self):
        pipeline = QualityDrivenPipeline(_equi_config(policy=NoKSlackPolicy()))
        specs = [(0, ts, {"v": 1}) for ts in range(0, 5_500, 500)]
        _run(pipeline, specs)
        # App time reached 5000 → adaptations at 1000..5000.
        assert pipeline.metrics.adaptations == 5

    def test_adaptation_callback_fires_before_step(self):
        seen = []
        pipeline = QualityDrivenPipeline(
            _equi_config(policy=NoKSlackPolicy()),
            on_adaptation=lambda p, boundary: seen.append(boundary),
        )
        _run(pipeline, [(0, ts, {"v": 1}) for ts in range(0, 3_500, 500)])
        assert seen == [1_000, 2_000, 3_000]

    @pytest.mark.parametrize(
        "policy",
        [lambda: ModelBasedPolicy(NonEqSel()), lambda: FixedKPolicy(300)],
        ids=["model-based", "fixed-k"],
    )
    def test_adaptation_clock_starts_at_the_first_tuple(self, policy):
        # A stream opening at ts T must not run T/L steps on empty
        # statistics first (under the model-based policy each of those
        # halves K): the clock is anchored at the first tuple, and the
        # run is the ts-0 run shifted — same steps, same K trajectory.
        offset = 10**9
        specs = []
        for position, ts in enumerate(range(5, 6_005, 100)):
            late = 400 if position % 4 == 3 else 0
            specs.append((position % 2, ts - late if ts > late else ts, {"v": 1}))

        def run(shift):
            boundaries = []
            pipeline = QualityDrivenPipeline(
                _equi_config(policy=policy(), initial_k_ms=1_024),
                on_adaptation=lambda p, boundary: boundaries.append(boundary),
            )
            first, *rest = from_tuple_specs(
                [(s, ts + shift, v) for s, ts, v in specs], num_streams=2
            ).arrivals()
            pipeline.process(first)
            assert pipeline.metrics.adaptations == 0
            assert pipeline.metrics.k_history == [(0, 1_024)]
            replay(pipeline, rest)
            assert boundaries == [shift + b for b in range(1_000, 6_000, 1_000)]
            return pipeline.metrics

        plain, shifted = run(0), run(offset)
        assert plain.adaptations == shifted.adaptations == 5
        assert shifted.k_history[1:] == [
            (ts + offset, k) for ts, k in plain.k_history[1:]
        ]

    def test_k_history_records_changes(self):
        pipeline = QualityDrivenPipeline(
            _equi_config(policy=FixedKPolicy(300), initial_k_ms=0)
        )
        _run(pipeline, [(0, ts, {"v": 1}) for ts in range(0, 2_500, 500)])
        ks = [k for _, k in pipeline.metrics.k_history]
        assert ks[0] == 0
        assert 300 in ks

    def test_max_k_slack_updates_immediately(self):
        pipeline = QualityDrivenPipeline(_equi_config(policy=MaxKSlackPolicy()))
        ds = from_tuple_specs(
            [(0, 1_000, {"v": 1}), (0, 400, {"v": 1})], num_streams=2
        )
        for t in ds.arrivals():
            pipeline.process(t)
        assert pipeline.current_k_ms == 600

    def test_adaptation_times_recorded(self):
        pipeline = QualityDrivenPipeline(
            _equi_config(policy=ModelBasedPolicy(NonEqSel()))
        )
        _run(pipeline, [(0, ts, {"v": 1}) for ts in range(0, 3_500, 500)])
        assert len(pipeline.metrics.adaptation_seconds) == pipeline.metrics.adaptations
        assert all(t >= 0 for t in pipeline.metrics.adaptation_seconds)

    def test_on_results_callback(self):
        produced = []
        pipeline = QualityDrivenPipeline(
            _equi_config(policy=NoKSlackPolicy()),
            on_results=lambda ts, count: produced.append((ts, count)),
        )
        _run(pipeline, [(0, 100, {"v": 1}), (1, 150, {"v": 1})])
        assert produced == [(150, 1)]


class TestMetrics:
    def test_average_k_time_weighted(self):
        from repro.core.pipeline import PipelineMetrics

        metrics = PipelineMetrics()
        metrics.k_history = [(0, 0), (1_000, 100)]
        # 0 for 1s, 100 for 1s → average 50 over 2s.
        assert metrics.average_k_ms(2_000) == pytest.approx(50.0)

    def test_average_k_empty_history(self):
        from repro.core.pipeline import PipelineMetrics

        assert PipelineMetrics().average_k_ms(1_000) == 0.0

    def test_latency_accounting(self):
        pipeline = QualityDrivenPipeline(
            _equi_config(policy=FixedKPolicy(1_000), initial_k_ms=1_000)
        )
        _run(pipeline, [(0, ts, {"v": 1}) for ts in range(0, 4_000, 500)])
        assert pipeline.metrics.latency_count > 0
        assert pipeline.metrics.average_latency_ms() >= 0.0


class TestModelBasedEndToEnd:
    def test_adapts_k_to_nonzero_under_disorder(self):
        pipeline = QualityDrivenPipeline(
            _equi_config(policy=ModelBasedPolicy(NonEqSel()), gamma=0.99)
        )
        # Every 4th tuple of each stream is delayed by ~600 ms.
        specs = []
        for position, ts in enumerate(range(0, 20_000, 100)):
            effective = ts - 600 if position % 4 == 3 else ts
            specs.append((position % 2, max(0, effective), {"v": 1}))
        _run(pipeline, specs)
        ks = [k for _, k in pipeline.metrics.k_history]
        assert max(ks) > 0


# ----------------------------------------------------------------------
# who feeds the recall model's inputs (BufferSizePolicy.reads_model_inputs)
# ----------------------------------------------------------------------


def _d3(duration_s):
    """Three disordered streams, 60 tuples per second of stream time."""
    return make_d3_syn(duration_ms=seconds(duration_s), seed=53, inter_arrival_ms=50)


def _chain_config(policy, collect=False, **overrides):
    """P = 10 s, L = 1 s: the Eq. 7 horizon P - L is 9 s."""
    kwargs = dict(
        window_sizes_ms=[seconds(2)] * 3,
        condition=equi_join_chain("a1", 3),
        gamma=0.9,
        period_ms=seconds(10),
        interval_ms=seconds(1),
        policy=policy,
        collect_results=collect,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


def _fed_twin(policy_class):
    """``policy_class`` declaring that it reads the model's inputs."""
    return type(
        f"Fed{policy_class.__name__}", (policy_class,), {"reads_model_inputs": True}
    )


#: Each non-reading policy class and how to build it (or its fed twin):
#: a lossy pinned K, K = 0, K tracking the largest delay, and a replayed
#: schedule that grows, shrinks to 0 and grows again.
NON_READING = {
    "fixed": (FixedKPolicy, lambda cls, d: cls(d.max_delay() // 2)),
    "no-k-slack": (NoKSlackPolicy, lambda cls, d: cls()),
    "max-k-slack": (MaxKSlackPolicy, lambda cls, d: cls()),
    "scheduled": (
        ScheduledKPolicy,
        lambda cls, d: cls({0: 2_000, 2: 300, 3: 0, 5: 1_500, 8: 3_000}),
    ),
}


def _statistics_reads(statistics):
    """What CI's statistics pin reads, plus the window lengths and
    ADWIN detections it prints."""
    return (
        statistics.delay_pdfs(),
        statistics.ksync_estimates_ms(),
        statistics.rates_per_ms(),
        statistics.max_delay_ms(),
        [s.window_length for s in statistics.streams],
        [s.adwin_detections for s in statistics.streams],
    )


def _observed_replay(policy, dataset, collect, chunk_size):
    """Replay ``dataset``; return the pipeline and everything it showed:
    results, ``on_results`` calls, the K trajectory, ``account()`` (its
    wall-clock ``adaptation_seconds`` by length) and the statistics reads
    at every adaptation step and at the end."""
    calls, reads = [], []
    pipeline = QualityDrivenPipeline(
        _chain_config(policy, collect),
        on_adaptation=lambda p, ts: reads.append((ts, _statistics_reads(p.statistics))),
        on_results=lambda ts, count: calls.append((ts, count)),
    )
    arrivals = list(dataset.arrivals())
    results = replay(pipeline, arrivals, chunk_size or len(arrivals))
    if collect:
        results = [(r.ts, r.key()) for r in results]
    account = dataclasses.asdict(pipeline.account())
    account["adaptation_seconds"] = len(account["adaptation_seconds"])
    reads.append(("end", _statistics_reads(pipeline.statistics)))
    return pipeline, (results, calls, pipeline.metrics.k_history, account, reads)


class TestModelInputFeeding:
    @pytest.mark.parametrize("collect", [True, False], ids=["collect", "count"])
    @pytest.mark.parametrize("policy", list(NON_READING))
    def test_non_reading_policy_matches_its_fed_twin(self, policy, collect):
        dataset = _d3(10)
        policy_class, build = NON_READING[policy]
        assert policy_class.reads_model_inputs is False
        for chunk_size in (1, 16, None):  # per tuple, chunks, one batch
            lean, seen = _observed_replay(
                build(policy_class, dataset), dataset, collect, chunk_size
            )
            fed, fed_seen = _observed_replay(
                build(_fed_twin(policy_class), dataset), dataset, collect, chunk_size
            )
            assert seen == fed_seen
            results, calls, k_history, _account, reads = seen
            assert results and calls and len(reads) >= 8
            if policy != "no-k-slack":
                assert len(k_history) >= 2  # K moves off its initial 0
            # Only the fed twin fed the profiler and the monitor.
            assert lean.profiler.in_order_recorded == 0
            assert not lean.monitor._produced and lean.monitor.true_in_window() == 0
            assert fed.profiler.in_order_recorded > 0
            assert fed.monitor.true_in_window() > 0

    @pytest.mark.parametrize(
        "make_policy",
        [lambda d: FixedKPolicy(d.max_delay()), lambda d: MaxKSlackPolicy()],
        ids=["fixed", "max-k-slack"],
    )
    def test_non_reading_replay_leaves_the_monitor_empty(self, make_policy):
        dataset = _d3(90)
        arrivals = list(dataset.arrivals())
        assert len(arrivals) >= 5_000
        pipeline = QualityDrivenPipeline(_chain_config(make_policy(dataset)))
        assert replay(pipeline, arrivals, 16) > 0
        assert len(pipeline.monitor._produced) == 0

    def test_model_based_monitor_holds_only_the_eq7_horizon(self):
        held = []

        class Probe(ModelBasedPolicy):
            def decide(self, context):
                entries = [ts for ts, _ in context.monitor._produced]
                held.append((context.now_ts, entries))
                return super().decide(context)

        pipeline = QualityDrivenPipeline(_chain_config(Probe(NonEqSel())))
        assert replay(pipeline, _d3(90).arrivals(), 16) > 0
        horizon = seconds(10) - seconds(1)  # P - L
        assert len(held) >= 80 and any(entries for _, entries in held)
        for boundary, entries in held:
            assert all(ts > boundary - horizon for ts in entries)

    def test_user_policy_keeps_the_fed_path(self):
        profiles = []

        class Recording(BufferSizePolicy):
            def decide(self, context):
                profiles.append(context.profile)
                return context.current_k_ms

        dataset = _d3(10)
        arrivals = list(dataset.arrivals())
        # A lossless K and unsmoothed maps: every tuple joins in order,
        # and each step's snapshot is exactly its interval's maps.
        config = _chain_config(
            Recording(), initial_k_ms=dataset.max_delay(), profiler_smoothing=0.0
        )
        pipeline = QualityDrivenPipeline(config)
        produced = replay(pipeline, arrivals, 16)
        assert Recording.reads_model_inputs is True
        assert len(profiles) >= 8 and None not in profiles
        stats = pipeline.join.stats
        assert stats.tuples_in_order == len(arrivals)
        assert pipeline.profiler.in_order_recorded == len(arrivals)
        # M^on adds up each in-order tuple's results: over the step
        # snapshots and the interval still open, it is every result.
        remainder = pipeline.profiler.peek_snapshot()
        assert sum(p.total_on for p in profiles) + remainder.total_on == produced > 0
        monitor = pipeline.monitor
        assert monitor.true_in_window() > 0 and monitor._produced

    def test_an_overridden_arrival_hook_sees_every_tuple(self):
        seen = []

        class Watching(FixedKPolicy):
            def on_arrival(self, t):
                seen.append(t.seq)

        dataset = _d3(10)
        arrivals = list(dataset.arrivals())
        replay(QualityDrivenPipeline(_chain_config(Watching(0))), arrivals, 16)
        assert seen == [t.seq for t in arrivals]
