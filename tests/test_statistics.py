"""Unit tests for the Statistics Manager (repro.core.statistics)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import StatisticsManager, StreamStatistics, StreamTuple, coarse_delay

from .reference import ReferenceStatisticsManager, ReferenceStreamStatistics

#: The six reads; each folds the queued tuples first.
READS = (
    "delay_pdf",
    "max_coarse_delay",
    "mean_ksync",
    "rate_per_ms",
    "window_length",
    "adwin_detections",
)


def _read(stats, name):
    value = getattr(stats, name)
    return repr(value() if callable(value) else value)


def _observe(manager, stream, ts, arrival, delay=None):
    t = StreamTuple(ts=ts, stream=stream, seq=0, arrival=arrival)
    # In the pipeline the K-slack buffer annotates delays; emulate that.
    t.delay = delay if delay is not None else 0
    manager.observe_arrival(t)
    return t


class TestCoarseDelay:
    def test_zero_maps_to_zero(self):
        assert coarse_delay(0, 10) == 0

    def test_buckets_are_left_open(self):
        # (0, g] → 1, (g, 2g] → 2
        assert coarse_delay(1, 10) == 1
        assert coarse_delay(10, 10) == 1
        assert coarse_delay(11, 10) == 2
        assert coarse_delay(20, 10) == 2

    def test_negative_clamped_to_zero(self):
        assert coarse_delay(-5, 10) == 0


class TestStreamStatistics:
    def test_pdf_of_no_observations_is_point_mass(self):
        s = StreamStatistics(granularity_ms=10)
        assert s.delay_pdf() == [1.0]

    def test_pdf_reflects_observed_delays(self):
        s = StreamStatistics(granularity_ms=10)
        for delay in (0, 0, 0, 10, 20):
            s.observe(delay, arrival_ms=0, ksync_ms=None)
        pdf = s.delay_pdf()
        assert pdf[0] == pytest.approx(0.6)
        assert pdf[1] == pytest.approx(0.2)
        assert pdf[2] == pytest.approx(0.2)

    def test_pdf_sums_to_one(self):
        s = StreamStatistics(granularity_ms=10)
        for delay in (0, 5, 13, 27, 41, 0, 8):
            s.observe(delay, arrival_ms=0, ksync_ms=None)
        assert sum(s.delay_pdf()) == pytest.approx(1.0)

    def test_max_coarse_delay(self):
        s = StreamStatistics(granularity_ms=10)
        for delay in (0, 35):
            s.observe(delay, arrival_ms=0, ksync_ms=None)
        assert s.max_coarse_delay() == 4  # 35 ∈ (30, 40]

    def test_rate_estimation(self):
        s = StreamStatistics(granularity_ms=10)
        for arrival in range(0, 1000, 100):
            s.observe(0, arrival_ms=arrival, ksync_ms=None)
        # 10 tuples over 900 ms span → 9 gaps / 900 ms = 0.01 per ms.
        assert s.rate_per_ms() == pytest.approx(0.01)

    def test_rate_needs_two_observations(self):
        s = StreamStatistics(granularity_ms=10)
        assert s.rate_per_ms() == 0.0
        s.observe(0, arrival_ms=5, ksync_ms=None)
        assert s.rate_per_ms() == 0.0

    def test_mean_ksync(self):
        s = StreamStatistics(granularity_ms=10)
        s.observe(0, arrival_ms=0, ksync_ms=100)
        s.observe(0, arrival_ms=1, ksync_ms=200)
        assert s.mean_ksync() == pytest.approx(150.0)

    def test_window_trimmed_after_change(self):
        # A large distribution change must shrink the ADWIN window, which
        # in turn drops old delays from the histogram.
        s = StreamStatistics(granularity_ms=10, adwin_delta=0.01)
        for _ in range(1_500):
            s.observe(0, arrival_ms=0, ksync_ms=None)
        for _ in range(1_500):
            s.observe(5_000, arrival_ms=0, ksync_ms=None)
        pdf = s.delay_pdf()
        # After the shift the window is dominated by the 5000 ms regime.
        assert pdf[0] < 0.5
        assert s.window_length < 3_000

    def test_invalid_granularity(self):
        with pytest.raises(ValueError):
            StreamStatistics(granularity_ms=0)


class TestStatisticsManager:
    def test_local_and_app_time(self):
        m = StatisticsManager(2, granularity_ms=10)
        _observe(m, 0, ts=100, arrival=100)
        _observe(m, 1, ts=50, arrival=101)
        assert m.local_time(0) == 100
        assert m.local_time(1) == 50
        assert m.app_time() == 100

    def test_local_time_never_decreases(self):
        m = StatisticsManager(1, granularity_ms=10)
        _observe(m, 0, ts=100, arrival=0)
        _observe(m, 0, ts=40, arrival=1)
        assert m.local_time(0) == 100

    def test_ksync_sampled_only_after_all_streams_seen(self):
        m = StatisticsManager(2, granularity_ms=10)
        _observe(m, 0, ts=100, arrival=0)
        # No S1 tuple yet → no ksync samples recorded anywhere.
        assert m.streams[0].mean_ksync() == 0.0
        _observe(m, 1, ts=40, arrival=1)
        _observe(m, 0, ts=110, arrival=2)
        # S0's sample: 110 - min(110, 40) = 70.
        assert m.streams[0].mean_ksync() == pytest.approx(70.0)

    def test_ksync_estimates_rebased_to_slowest(self):
        m = StatisticsManager(2, granularity_ms=10)
        _observe(m, 0, ts=100, arrival=0)
        _observe(m, 1, ts=40, arrival=1)
        _observe(m, 0, ts=110, arrival=2)
        _observe(m, 1, ts=50, arrival=3)
        estimates = m.ksync_estimates_ms()
        assert min(estimates) == pytest.approx(0.0)
        assert estimates[0] > estimates[1]

    def test_max_delay_over_all_streams(self):
        m = StatisticsManager(2, granularity_ms=10)
        _observe(m, 0, ts=100, arrival=0, delay=25)
        _observe(m, 1, ts=100, arrival=1, delay=250)
        # Bucket of 250 is 25 → 25 * 10 ms.
        assert m.max_delay_ms() == 250

    def test_unstamped_tuples_are_clocked_by_local_time(self):
        m = StatisticsManager(1, granularity_ms=10)
        for ts in (0, 100, 60, 200):  # the late tuple does not turn the clock back
            _observe(m, 0, ts=ts, arrival=-1)
        assert m.rates_per_ms() == [pytest.approx(3 / 200)]

    def test_a_stamp_wins_over_local_time(self):
        m = StatisticsManager(1, granularity_ms=10)
        for ts, arrival in ((0, 0), (100, 50), (200, 100)):
            _observe(m, 0, ts=ts, arrival=arrival)
        assert m.rates_per_ms() == [pytest.approx(2 / 100)]

    def test_bad_stream_index_rejected(self):
        m = StatisticsManager(1, granularity_ms=10)
        with pytest.raises(ValueError):
            _observe(m, 3, ts=0, arrival=0)

    def test_delay_pdfs_per_stream(self):
        m = StatisticsManager(2, granularity_ms=10)
        _observe(m, 0, ts=0, arrival=0, delay=0)
        _observe(m, 1, ts=0, arrival=0, delay=15)
        pdfs = m.delay_pdfs()
        assert pdfs[0] == [1.0]
        assert pdfs[1][2] == pytest.approx(1.0)


class TestFoldAgainstPerSampleReference:
    """Queued-and-folded statistics are the per-sample ones, bit for bit."""

    @given(
        st.integers(0, 2**16),
        st.lists(
            st.tuples(
                st.sampled_from([0, 3, 40, 900, 6_000]),
                st.sampled_from([0.0, 2.0, 30.0, 500.0]),
                st.integers(1, 400),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 300),
        st.lists(st.one_of(st.integers(1, 100), st.sampled_from(READS))),
        st.sampled_from([1, 10, 250]),
    )
    @settings(max_examples=60, deadline=None)
    def test_reads_match_under_any_interleaving(
        self, seed, segments, unsynced, ops, granularity
    ):
        rng = random.Random(seed)
        arrival = 0
        tuples = []
        for level, spread, length in segments:
            for _ in range(length):
                arrival += rng.randint(0, 4)
                ksync = None if len(tuples) < unsynced else rng.randint(0, 500)
                delay = max(0, int(rng.gauss(level, spread)))
                tuples.append((delay, arrival, ksync))
        stats = StreamStatistics(granularity)
        ref = ReferenceStreamStatistics(granularity)
        fed = 0
        for op in ops + [len(tuples)] + list(READS):
            if isinstance(op, int):
                for t in tuples[fed:fed + op]:
                    stats.observe(*t)
                    ref.observe(*t)
                fed = min(fed + op, len(tuples))
                assert stats.tuples_observed == ref.tuples_observed
                continue
            assert _read(stats, op) == _read(ref, op)
            adwin, ref_adwin = stats._adwin, ref._adwin
            assert adwin.width == ref_adwin.width
            assert repr(adwin.total) == repr(ref_adwin.total)
            assert repr(adwin._variance) == repr(ref_adwin._variance)
            assert adwin.detections == ref_adwin.detections


def _manager_reads(manager):
    """What the recall model reads, plus each stream's window length and
    ADWIN detections; ``repr`` keeps every float bit."""
    return repr(
        (
            manager.delay_pdfs(),
            manager.ksync_estimates_ms(),
            manager.rates_per_ms(),
            manager.max_delay_ms(),
            [s.window_length for s in manager.streams],
            [s.adwin_detections for s in manager.streams],
        )
    )


class TestObserveBatch:
    """``observe_batch`` over any split of the arrivals reads as one
    ``observe_arrival`` per tuple, and as the per-arrival reference that
    takes ``min`` over every local time at each arrival."""

    @given(
        st.integers(1, 3),
        st.integers(0, 2**16),
        st.integers(1, 300),
        st.integers(0, 200),
        st.lists(st.integers(1, 70), min_size=1, max_size=8),
        st.sampled_from([1, 10, 250]),
    )
    # One stream, batches of 20 and 30: they straddle ADWIN's fold points
    # (every 32nd sample) at 32, 64 and 96.
    @example(1, 0, 100, 0, [20, 30], 10)
    @settings(max_examples=60, deadline=None)
    def test_any_split_matches_per_tuple(
        self, num_streams, seed, length, late, sizes, granularity
    ):
        rng = random.Random(seed)
        tuples, clock, level = [], 0, 0
        for index in range(length):
            # The last stream stays silent for the first ``late`` arrivals.
            streams = num_streams if index >= late or num_streams == 1 else num_streams - 1
            clock += rng.randint(0, 30)
            if index % 60 == 0:
                level = rng.choice((0, 40, 900))
            t = StreamTuple(
                ts=max(0, clock - rng.choice((0, 0, 5, 80, 700))),
                stream=rng.randrange(streams),
                seq=index,
                # A third of the arrivals carry no stamp (arrival -1).
                arrival=-1 if rng.random() < 0.3 else clock,
            )
            t.delay = max(0, int(rng.gauss(level, 10)))
            tuples.append(t)
        batched = StatisticsManager(num_streams, granularity)
        twin = StatisticsManager(num_streams, granularity)
        reference = ReferenceStatisticsManager(num_streams, granularity)
        fed, call = 0, 0
        while fed < length:
            batch = tuples[fed : fed + sizes[call % len(sizes)]]
            fed, call = fed + len(batch), call + 1
            batched.observe_batch(batch)
            for t in batch:
                twin.observe_arrival(t)
                reference.observe_arrival(t)
            reads = _manager_reads(batched)
            assert reads == _manager_reads(twin) == _manager_reads(reference)
            assert batched.app_time() == twin.app_time()
            if len({t.stream for t in tuples[:fed]}) < num_streams:
                # No K_sync sample until every stream has been seen.
                assert batched.ksync_estimates_ms() == [0.0] * num_streams

    def test_bad_stream_index_raises_after_the_tuples_before_it(self):
        m = StatisticsManager(2, granularity_ms=10)
        good = StreamTuple(ts=5, stream=1, seq=0)
        with pytest.raises(ValueError):
            m.observe_batch([good, StreamTuple(ts=6, stream=2, seq=1)])
        assert m.local_time(1) == 5
        assert [s.tuples_observed for s in m.streams] == [0, 1]
