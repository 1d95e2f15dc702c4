"""Failure-injection and pathological-input tests across the framework."""

import pytest

from repro import (
    EquiPredicate,
    JoinCondition,
    KSlackBuffer,
    MSWJOperator,
    ModelBasedPolicy,
    NoKSlackPolicy,
    NonEqSel,
    PipelineConfig,
    QualityDrivenPipeline,
    StreamTuple,
    Synchronizer,
    from_tuple_specs,
    replay,
)


def _equi_config(**overrides):
    kwargs = dict(
        window_sizes_ms=[1_000, 1_000],
        condition=JoinCondition([EquiPredicate(0, "v", 1, "v")]),
        gamma=0.9,
        period_ms=5_000,
        interval_ms=1_000,
    )
    kwargs.update(overrides)
    return PipelineConfig(**kwargs)


class TestDegenerateInputs:
    def test_empty_input_flush(self):
        pipeline = QualityDrivenPipeline(_equi_config())
        assert pipeline.flush() == []
        assert pipeline.metrics.results_produced == 0

    def test_single_stream_only(self):
        # One stream never delivers: no results, no crash, flush clean.
        pipeline = QualityDrivenPipeline(_equi_config(policy=NoKSlackPolicy()))
        ds = from_tuple_specs(
            [(0, ts, {"v": 1}) for ts in range(0, 3_000, 100)], num_streams=2
        )
        total = replay(pipeline, ds.arrivals())
        assert total == []
        assert pipeline.metrics.adaptations >= 2

    def test_all_tuples_same_timestamp(self):
        pipeline = QualityDrivenPipeline(_equi_config(policy=NoKSlackPolicy()))
        ds = from_tuple_specs(
            [(i % 2, 500, {"v": 1}) for i in range(10)], num_streams=2
        )
        results = replay(pipeline, ds.arrivals())
        # 5 x 5 equal-ts tuples: every pair joins exactly once.
        assert len(results) == 25

    def test_timestamp_zero_tuples(self):
        pipeline = QualityDrivenPipeline(_equi_config(policy=NoKSlackPolicy()))
        ds = from_tuple_specs(
            [(0, 0, {"v": 1}), (1, 0, {"v": 1})], num_streams=2
        )
        results = replay(pipeline, ds.arrivals())
        assert len(results) == 1

    def test_extreme_delay_beyond_window(self):
        # A tuple older than everything: dropped by the join, no crash.
        pipeline = QualityDrivenPipeline(_equi_config(policy=NoKSlackPolicy()))
        ds = from_tuple_specs(
            [
                (0, 50_000, {"v": 1}),
                (1, 50_100, {"v": 1}),
                (0, 10, {"v": 1}),  # delay of ~50 s, window is 1 s
            ],
            num_streams=2,
        )
        replay(pipeline, ds.arrivals())
        assert pipeline.join.stats.tuples_dropped == 1

    def test_monotone_burst_then_silence(self):
        # A burst of tuples then nothing: adaptation boundaries beyond the
        # last arrival simply never fire; flush drains cleanly.
        pipeline = QualityDrivenPipeline(
            _equi_config(policy=ModelBasedPolicy(NonEqSel()))
        )
        ds = from_tuple_specs(
            [(i % 2, 100 + i, {"v": i % 3}) for i in range(50)], num_streams=2
        )
        replay(pipeline, ds.arrivals())
        assert pipeline.metrics.tuples_processed == 50


class TestOperatorRobustness:
    def test_kslack_interleaved_flush_and_process_rejected_gracefully(self):
        b = KSlackBuffer(100)
        b.process(StreamTuple(ts=10, stream=0, seq=0))
        b.flush()
        # Flush is terminal: the local clock and delay statistics stop at
        # their end-of-stream values, so further input would be annotated
        # against a dead clock — it is rejected instead.
        with pytest.raises(RuntimeError):
            b.process(StreamTuple(ts=500, stream=0, seq=1))

    def test_synchronizer_flush_then_more_input(self):
        sync = Synchronizer(2)
        sync.process(StreamTuple(ts=10, stream=0, seq=0))
        sync.flush()
        # After a flush the synchronizer keeps functioning; a tuple older
        # than T_sync is a straggler.
        out = sync.process(StreamTuple(ts=5, stream=1, seq=0))
        assert [t.ts for t in out] == [5]

    def test_join_tolerates_missing_attribute(self):
        op = MSWJOperator(
            [1_000, 1_000], JoinCondition([EquiPredicate(0, "v", 1, "v")])
        )
        op.process(StreamTuple(ts=10, values={}, stream=0, seq=0))  # no "v"
        results = op.process(StreamTuple(ts=20, values={"v": None}, stream=1, seq=0))
        # None == None: the missing attribute matches the explicit None.
        assert len(results) == 1

    @pytest.mark.parametrize("store", [None, "tiered"])
    @pytest.mark.parametrize("collect", [True, False])
    @pytest.mark.parametrize("first,second", [({"v": None}, {}), ({}, {})])
    def test_trigger_tolerates_missing_attribute(self, first, second, collect, store):
        # The *probing* tuple lacks the join attribute: its lookup key
        # reads as None — as the window index and EquiPredicate.evaluate
        # read it — instead of raising KeyError.
        op = MSWJOperator(
            [1_000, 1_000],
            JoinCondition([EquiPredicate(0, "v", 1, "v")]),
            collect_results=collect,
            store=store,
        )
        op.process(StreamTuple(ts=10, values=first, stream=0, seq=0))
        produced = op.process(StreamTuple(ts=20, values=second, stream=1, seq=0))
        assert (len(produced) if collect else produced) == 1

    def test_late_probe_tolerates_missing_attribute(self):
        op = MSWJOperator(
            [1_000, 1_000],
            JoinCondition([EquiPredicate(0, "v", 1, "v")]),
            probe_out_of_order=True,
        )
        op.process(StreamTuple(ts=20, values={}, stream=0, seq=0))
        late = op.process(StreamTuple(ts=10, values={}, stream=1, seq=0))
        assert [r.ts for r in late] == [20]

    def test_window_size_one_ms(self):
        op = MSWJOperator([1, 1], JoinCondition())
        op.process(StreamTuple(ts=10, stream=0, seq=0))
        assert len(op.process(StreamTuple(ts=11, stream=1, seq=0))) == 1
        assert op.process(StreamTuple(ts=13, stream=1, seq=1)) == []


class TestAdaptationRobustness:
    def test_adaptation_with_no_tuples_in_interval(self):
        # Stream jumps far ahead: several empty adaptation intervals fire
        # in a row without statistics; K must stay finite and valid.
        pipeline = QualityDrivenPipeline(
            _equi_config(policy=ModelBasedPolicy(NonEqSel()))
        )
        ds = from_tuple_specs(
            [(0, 100, {"v": 1}), (1, 200, {"v": 1}), (0, 20_000, {"v": 1})],
            num_streams=2,
        )
        replay(pipeline, ds.arrivals())
        assert pipeline.metrics.adaptations >= 19
        assert pipeline.current_k_ms >= 0

    def test_gamma_one_requirement(self):
        # Γ = 1.0 is legal: the policy must chase full recall (K near the
        # max observed delay).  Streams alternate every 100 ms, so the
        # injected 700 ms timestamp set-back reads as a ~500 ms delay
        # against the stream's own local time.
        pipeline = QualityDrivenPipeline(
            _equi_config(policy=ModelBasedPolicy(NonEqSel()), gamma=1.0)
        )
        specs = []
        for i, ts in enumerate(range(0, 10_000, 100)):
            effective = ts - 700 if i % 5 == 4 else ts
            specs.append((i % 2, max(0, effective), {"v": 1}))
        ds = from_tuple_specs(specs, num_streams=2)
        replay(pipeline, ds.arrivals())
        ks = [k for _, k in pipeline.metrics.k_history]
        assert max(ks) >= 450


class TestFlushProtocol:
    """The pipeline's end-of-input contract (used by the parallel shards)."""

    def test_flush_twice_is_idempotent(self):
        pipeline = QualityDrivenPipeline(_equi_config())
        ds = from_tuple_specs(
            [(i % 2, 100 * i, {"v": 1}) for i in range(20)], num_streams=2
        )
        total = replay(pipeline, ds.arrivals())
        produced = pipeline.metrics.results_produced
        assert pipeline.flushed
        assert pipeline.flush() == []
        assert pipeline.metrics.results_produced == produced

    def test_flush_twice_count_mode(self):
        pipeline = QualityDrivenPipeline(_equi_config(collect_results=False))
        ds = from_tuple_specs(
            [(i % 2, 100 * i, {"v": 1}) for i in range(20)], num_streams=2
        )
        count = replay(pipeline, ds.arrivals())
        assert count > 0
        assert pipeline.flush() == 0

    def test_process_after_flush_raises(self):
        pipeline = QualityDrivenPipeline(_equi_config())
        assert not pipeline.flushed
        pipeline.flush()
        with pytest.raises(RuntimeError):
            pipeline.process(StreamTuple(ts=1, values={"v": 1}, stream=0))

    def test_close_stream_releases_tuples_gated_by_closed_empty_stream(self):
        # Stream 1 never delivers, so its emptiness gates the buffer;
        # closing it must release the waiting stream-0 tuples in ts order.
        sync = Synchronizer(2)
        held = []
        for ts in (30, 10, 20):
            held.extend(
                sync.process(StreamTuple(ts=ts, stream=0, seq=ts))
            )
        assert held == []
        assert sync.buffered == 3
        released = sync.close_stream(1)
        assert [t.ts for t in released] == [10, 20, 30]
        assert sync.buffered == 0
        assert sync.t_sync == 30
