"""Unit tests for the Tuple-Productivity Profiler and Eq. 6 (repro.core.profiler)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ProfileSnapshot, StreamTuple, TupleProductivityProfiler


def _t(delay):
    t = StreamTuple(ts=0, stream=0, seq=0)
    t.delay = delay
    return t


class TestRecording:
    def test_in_order_accumulates_by_coarse_delay(self):
        p = TupleProductivityProfiler(granularity_ms=10)
        p.record(_t(0), 10, 2, True)
        p.record(_t(0), 20, 3, True)
        p.record(_t(15), 7, 1, True)  # bucket 2
        snapshot = p.peek_snapshot()
        assert snapshot.cumulative_cross(0) == 30
        assert snapshot.cumulative_on(0) == 5
        assert snapshot.cumulative_cross(2) == 37
        assert snapshot.cumulative_on(2) == 6

    def test_out_of_order_uses_interval_maxima(self):
        p = TupleProductivityProfiler(granularity_ms=10)
        p.record(_t(0), 10, 4, True)
        p.record(_t(0), 30, 2, True)
        p.record(_t(25), None, None, False)  # estimated as max: cross 30, on 4
        snapshot = p.peek_snapshot()
        assert snapshot.cumulative_cross(3) - snapshot.cumulative_cross(2) == 30
        assert snapshot.cumulative_on(3) - snapshot.cumulative_on(2) == 4

    def test_out_of_order_prefers_previous_interval_maxima(self):
        p = TupleProductivityProfiler(granularity_ms=10)
        p.record(_t(0), 100, 50, True)
        p.snapshot_and_reset()
        # New interval: current maxima are 0, previous are (100, 50).
        p.record(_t(5), None, None, False)
        snapshot = p.peek_snapshot()
        assert snapshot.cumulative_cross(1) == 100
        assert snapshot.cumulative_on(1) == 50

    def test_counts_tracked(self):
        p = TupleProductivityProfiler(granularity_ms=10)
        p.record(_t(0), 1, 0, True)
        p.record(_t(5), None, None, False)
        assert p.in_order_recorded == 1
        assert p.out_of_order_recorded == 1

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            TupleProductivityProfiler(0)


class TestSnapshotReset:
    def test_reset_clears_maps(self):
        p = TupleProductivityProfiler(granularity_ms=10)
        p.record(_t(0), 10, 5, True)
        first = p.snapshot_and_reset()
        assert first.total_cross == 10
        second = p.peek_snapshot()
        assert second.total_cross == 0

    def test_maxima_roll_over_one_interval(self):
        p = TupleProductivityProfiler(granularity_ms=10)
        p.record(_t(0), 100, 50, True)
        p.snapshot_and_reset()
        p.snapshot_and_reset()
        # Two intervals later the old maxima are forgotten.
        p.record(_t(5), None, None, False)
        snapshot = p.peek_snapshot()
        assert snapshot.total_cross == 0.0


class TestSelectivityRatio:
    def test_eq6_hand_computed(self):
        # M×: {0: 100, 1: 100}; M^on: {0: 10, 1: 30}.
        # sel(K=0)/sel = (10/100) / (40/200) = 0.5
        snapshot = ProfileSnapshot({0: 100.0, 1: 100.0}, {0: 10.0, 1: 30.0})
        assert snapshot.sel_ratio(0) == pytest.approx(0.5)

    def test_ratio_at_maxdm_is_one(self):
        snapshot = ProfileSnapshot({0: 100.0, 1: 50.0}, {0: 10.0, 1: 45.0})
        assert snapshot.sel_ratio(1) == pytest.approx(1.0)
        assert snapshot.sel_ratio(99) == pytest.approx(1.0)

    def test_ratio_above_one_when_punctual_tuples_more_productive(self):
        # Early (low-delay) tuples have higher selectivity than late ones.
        snapshot = ProfileSnapshot({0: 100.0, 1: 100.0}, {0: 30.0, 1: 10.0})
        assert snapshot.sel_ratio(0) > 1.0

    def test_empty_maps_give_one(self):
        snapshot = ProfileSnapshot({}, {})
        assert snapshot.sel_ratio(0) == 1.0

    def test_zero_cross_at_k_gives_one(self):
        snapshot = ProfileSnapshot({5: 10.0}, {5: 2.0})
        assert snapshot.sel_ratio(0) == 1.0

    def test_negative_k_gives_zero_cumulatives(self):
        snapshot = ProfileSnapshot({0: 10.0}, {0: 5.0})
        assert snapshot.cumulative_cross(-1) == 0.0
        assert snapshot.cumulative_on(-1) == 0.0


class TestSmoothing:
    def test_zero_smoothing_is_last_interval_only(self):
        p = TupleProductivityProfiler(granularity_ms=10, smoothing=0.0)
        p.record(_t(0), 100, 10, True)
        p.snapshot_and_reset()
        p.record(_t(0), 50, 5, True)
        snapshot = p.snapshot_and_reset()
        assert snapshot.total_cross == 50  # first interval forgotten

    def test_smoothing_blends_intervals(self):
        p = TupleProductivityProfiler(granularity_ms=10, smoothing=0.5)
        p.record(_t(0), 100, 10, True)
        p.snapshot_and_reset()
        p.record(_t(0), 50, 5, True)
        snapshot = p.snapshot_and_reset()
        # 0.5 * 100 + 50 = 100 cross; 0.5 * 10 + 5 = 10 on.
        assert snapshot.total_cross == pytest.approx(100.0)
        assert snapshot.total_on == pytest.approx(10.0)

    def test_true_estimate_uses_raw_interval_despite_smoothing(self):
        p = TupleProductivityProfiler(granularity_ms=10, smoothing=0.9)
        p.record(_t(0), 100, 10, True)
        p.snapshot_and_reset()
        p.record(_t(0), 50, 5, True)
        snapshot = p.snapshot_and_reset()
        assert snapshot.true_result_estimate() == pytest.approx(5.0)

    def test_invalid_smoothing_rejected(self):
        with pytest.raises(ValueError):
            TupleProductivityProfiler(10, smoothing=1.0)
        with pytest.raises(ValueError):
            TupleProductivityProfiler(10, smoothing=-0.1)

    def test_smoothed_ratio_resists_single_interval_spike(self):
        # Interval 1 establishes a flat DPcorr; interval 2 is a noisy
        # spike making punctual tuples look hyper-productive.  With
        # smoothing the ratio at low K stays near 1.
        p = TupleProductivityProfiler(granularity_ms=10, smoothing=0.5)
        for _ in range(10):
            p.record(_t(0), 100, 10, True)
            p.record(_t(15), 100, 10, True)
        p.snapshot_and_reset()
        p.record(_t(0), 10, 10, True)  # spike: selectivity 1.0 at delay 0
        p.record(_t(15), 100, 1, True)
        smoothed = p.snapshot_and_reset()
        raw = TupleProductivityProfiler(granularity_ms=10, smoothing=0.0)
        raw.record(_t(0), 10, 10, True)
        raw.record(_t(15), 100, 1, True)
        raw_snapshot = raw.snapshot_and_reset()
        assert smoothed.sel_ratio(0) < raw_snapshot.sel_ratio(0)


record_lists = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 1_000), st.integers(0, 1_000), st.booleans()),
    max_size=30,
)


class TestSmoothingProperties:
    @given(st.floats(0.01, 0.99), st.lists(record_lists, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_decay_equals_the_per_key_loop(self, smoothing, intervals):
        """The smoothed maps equal, float for float, a per-key decay loop
        over the sorted union of their keys."""
        p = TupleProductivityProfiler(granularity_ms=10, smoothing=smoothing)
        ref_cross, ref_on = {}, {}
        for records in intervals:
            for delay, n_cross, n_on, in_order in records:
                if in_order:
                    p.record(_t(delay), n_cross, n_on, True)
                else:
                    p.record(_t(delay), None, None, False)
            raw = p.peek_snapshot()
            for d in sorted(set(ref_cross) | set(ref_on)):
                ref_cross[d] = ref_cross.get(d, 0.0) * smoothing
                ref_on[d] = ref_on.get(d, 0.0) * smoothing
            for d, value in raw._m_cross.items():
                ref_cross[d] = ref_cross.get(d, 0.0) + value
            for d, value in raw._m_on.items():
                ref_on[d] = ref_on.get(d, 0.0) + value
            snapshot = p.snapshot_and_reset()
            assert repr(sorted(snapshot._m_cross.items())) == repr(sorted(ref_cross.items()))
            assert repr(sorted(snapshot._m_on.items())) == repr(sorted(ref_on.items()))


class TestNonEqSelCap:
    def test_cap_limits_ratio_to_one(self):
        from repro import NonEqSel

        snapshot = ProfileSnapshot({0: 100.0, 1: 100.0}, {0: 30.0, 1: 10.0})
        assert snapshot.sel_ratio(0) > 1.0
        capped = NonEqSel()
        assert capped.ratio(snapshot, 0) == 1.0

    def test_uncapped_returns_raw_eq6(self):
        from repro import NonEqSel

        snapshot = ProfileSnapshot({0: 100.0, 1: 100.0}, {0: 30.0, 1: 10.0})
        raw = NonEqSel(cap_at_one=False)
        assert raw.ratio(snapshot, 0) == pytest.approx(snapshot.sel_ratio(0))

    def test_ratios_below_one_unaffected_by_cap(self):
        from repro import NonEqSel

        snapshot = ProfileSnapshot({0: 100.0, 1: 100.0}, {0: 10.0, 1: 30.0})
        assert NonEqSel().ratio(snapshot, 0) == pytest.approx(0.5)


class TestTrueResultEstimate:
    def test_total_on_is_the_estimate(self):
        snapshot = ProfileSnapshot({0: 10.0, 2: 5.0}, {0: 3.0, 2: 4.0})
        assert snapshot.true_result_estimate() == pytest.approx(7.0)

    def test_includes_out_of_order_estimates(self):
        p = TupleProductivityProfiler(granularity_ms=10)
        p.record(_t(0), 10, 5, True)
        p.record(_t(25), None, None, False)  # adds estimated on=5
        assert p.peek_snapshot().true_result_estimate() == pytest.approx(10.0)

    def test_max_coarse_delay(self):
        snapshot = ProfileSnapshot({0: 1.0, 7: 1.0}, {})
        assert snapshot.max_coarse_delay == 7
