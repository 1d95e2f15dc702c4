"""Unit tests for the ADWIN change detector (repro.adwin)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adwin import Adwin

from .reference import ReferenceAdwin


def shifting_signal(seed, segments):
    """A signal of level-shifted segments, each with its own spread."""
    rng = random.Random(seed)
    return [
        rng.gauss(level, spread) if spread else float(level)
        for level, spread, length in segments
        for _ in range(length)
    ]


#: (level, spread, length): shifts big enough to cut, and flat stretches.
signal_segments = st.lists(
    st.tuples(
        st.sampled_from([0, 1, 5, 50, 400, 3_000]),
        st.sampled_from([0.0, 0.5, 3.0, 40.0]),
        st.integers(1, 300),
    ),
    min_size=1,
    max_size=6,
)


class TestAdwinBasics:
    def test_empty_window(self):
        adwin = Adwin()
        assert adwin.width == 0
        assert adwin.mean() == 0.0
        assert adwin.variance() == 0.0

    def test_width_counts_inserts(self):
        adwin = Adwin()
        for value in range(10):
            adwin.update(float(value))
        assert adwin.width == 10

    def test_mean_matches_arithmetic_mean(self):
        adwin = Adwin()
        values = [1.0, 2.0, 3.0, 4.0]
        for value in values:
            adwin.update(value)
        assert abs(adwin.mean() - 2.5) < 1e-9

    def test_total_tracks_sum(self):
        adwin = Adwin()
        for value in (5.0, 7.0, 9.0):
            adwin.update(value)
        assert abs(adwin.total - 21.0) < 1e-9

    def test_variance_zero_for_constant_signal(self):
        adwin = Adwin()
        for _ in range(100):
            adwin.update(3.0)
        assert adwin.variance() < 1e-9

    def test_invalid_delta_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            Adwin(delta=0.0)
        with pytest.raises(ValueError):
            Adwin(delta=1.5)

    def test_invalid_clock_rejected(self):
        import pytest

        # clock = 0 used to construct and then divide by zero on the
        # first update; the cut-check cadence needs clock >= 1.
        with pytest.raises(ValueError, match="clock"):
            Adwin(clock=0)
        with pytest.raises(ValueError, match="clock"):
            Adwin(clock=-3)
        adwin = Adwin(clock=1)
        adwin.update(1.0)
        assert adwin.width == 1


class TestAdwinBehaviour:
    def test_grows_on_stationary_input(self):
        rng = random.Random(1)
        adwin = Adwin()
        for _ in range(3_000):
            adwin.update(rng.gauss(10.0, 1.0))
        # On stationary data the window should keep (most of) the history.
        assert adwin.width > 2_000
        assert adwin.detections <= 2  # rare false alarms allowed

    def test_detects_abrupt_mean_shift(self):
        rng = random.Random(2)
        adwin = Adwin()
        for _ in range(1_500):
            adwin.update(rng.gauss(0.0, 0.5))
        width_before = adwin.width
        for _ in range(1_500):
            adwin.update(rng.gauss(50.0, 0.5))
        assert adwin.detections >= 1
        # Window must have been cut: far smaller than 3000 and the mean
        # must now reflect the new regime.
        assert adwin.width < width_before + 1_500
        assert adwin.mean() > 25.0

    def test_window_converges_to_new_regime(self):
        rng = random.Random(3)
        adwin = Adwin()
        for _ in range(2_000):
            adwin.update(rng.gauss(100.0, 2.0))
        for _ in range(2_000):
            adwin.update(rng.gauss(0.0, 2.0))
        assert adwin.mean() < 20.0

    def test_no_detection_for_tiny_drift(self):
        rng = random.Random(4)
        adwin = Adwin()
        for step in range(2_000):
            adwin.update(rng.gauss(10.0 + step * 1e-5, 1.0))
        assert adwin.detections <= 3

    def test_compression_bounds_bucket_count(self):
        adwin = Adwin(max_buckets=5)
        rng = random.Random(5)
        for _ in range(10_000):
            adwin.update(rng.random())
        total_buckets = sum(len(row) for row in adwin._totals)
        # max_buckets+1 per level, ~log2(n) levels.
        assert total_buckets <= (5 + 1) * 20

    def test_variance_positive_for_noisy_signal(self):
        rng = random.Random(6)
        adwin = Adwin()
        for _ in range(1_000):
            adwin.update(rng.gauss(0.0, 5.0))
        assert adwin.variance() > 1.0


class TestAgainstPerSampleReference:
    """Bulk inserts are the per-sample ADWIN2, bit for bit."""

    @given(
        st.integers(0, 2**16),
        signal_segments,
        st.lists(st.tuples(st.integers(1, 90), st.booleans()), min_size=1),
        st.integers(1, 40),
        st.integers(2, 6),
        st.sampled_from([0.002, 0.05]),
    )
    @settings(max_examples=80, deadline=None)
    def test_update_and_chunked_extend_match(
        self, seed, segments, chunks, clock, max_buckets, delta
    ):
        values = shifting_signal(seed, segments)
        ref = ReferenceAdwin(delta=delta, max_buckets=max_buckets, clock=clock)
        adwin = Adwin(delta=delta, max_buckets=max_buckets, clock=clock)
        start = 0
        for size, one_at_a_time in chunks * (len(values) // len(chunks) + 1):
            chunk = values[start:start + size]
            if not chunk:
                break
            start += size
            expected = [ref.update(v) for v in chunk]
            if one_at_a_time:
                cut = [adwin.update(v) for v in chunk]
                assert cut == expected
            else:
                assert adwin.extend(chunk) == any(expected)
            assert adwin.width == ref.width
            assert adwin.total == ref.total
            assert adwin._variance == ref._variance
            assert adwin.detections == ref.detections
        assert adwin.mean() == ref.mean()
        assert adwin.variance() == ref.variance()

    def test_single_bucket_rows_survive_a_cut(self):
        # max_buckets = 1 leaves rows empty between full ones; a cut that
        # empties the top row must not end the scan (the per-sample
        # reference raises IndexError on this signal).
        adwin = Adwin(max_buckets=1, clock=1)
        for value in [0.0] * 32 + [50.0] * 40:
            adwin.update(value)
        assert adwin.detections >= 1
        assert adwin.width == sum(
            len(row) << level for level, row in enumerate(adwin._totals)
        )

