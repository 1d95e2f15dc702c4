"""Unit tests for the Buffer-Size Manager policies, Alg. 3 (repro.core.adaptation)."""

import math
import random

import pytest

from repro import (
    AdaptationContext,
    EqSel,
    FixedKPolicy,
    MaxKSlackPolicy,
    ModelBasedPolicy,
    NoKSlackPolicy,
    NonEqSel,
    PipelineConfig,
    QualityDrivenPipeline,
    ResultSizeMonitor,
    StatisticsManager,
    StreamTuple,
    equi_join_chain,
    make_d3_syn,
    replay,
    seconds,
)
from repro.core.adaptation import build_recall_model
from repro.core.model import RecallModel
from repro.core.profiler import ProfileSnapshot


def _observe(stats, stream, ts, arrival, delay):
    t = StreamTuple(ts=ts, stream=stream, seq=0, arrival=arrival)
    t.delay = delay
    stats.observe_arrival(t)


def _stats_two_streams(delays_per_stream, granularity=10, gap=100):
    """Two synchronized streams with given delay sequences."""
    stats = StatisticsManager(2, granularity_ms=granularity)
    clock = 0
    for position, (d0, d1) in enumerate(zip(*delays_per_stream)):
        clock += gap
        _observe(stats, 0, ts=clock, arrival=clock, delay=d0)
        _observe(stats, 1, ts=clock, arrival=clock, delay=d1)
    return stats


def _context(stats, profile=None, gamma=0.9, monitor=None, g=10, b=10,
             windows=(1_000, 1_000), interval=1_000, now=10_000):
    return AdaptationContext(
        statistics=stats,
        profile=profile,
        monitor=monitor or ResultSizeMonitor(period_ms=60_000, interval_ms=interval),
        gamma_target=gamma,
        interval_ms=interval,
        basic_window_ms=b,
        granularity_ms=g,
        window_sizes_ms=list(windows),
        now_ts=now,
        current_k_ms=0,
    )


class TestBaselinePolicies:
    def test_no_k_slack_always_zero(self):
        stats = _stats_two_streams([[0, 500, 0], [0, 0, 900]])
        assert NoKSlackPolicy().decide(_context(stats)) == 0

    def test_fixed_k_returns_constant(self):
        stats = _stats_two_streams([[0, 0], [0, 0]])
        assert FixedKPolicy(420).decide(_context(stats)) == 420

    def test_fixed_k_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedKPolicy(-1)

    def test_max_k_slack_tracks_running_maximum(self):
        policy = MaxKSlackPolicy()
        t = StreamTuple(ts=0, stream=0, seq=0)
        t.delay = 120
        assert policy.on_arrival(t) == 120
        t2 = StreamTuple(ts=0, stream=0, seq=1)
        t2.delay = 80
        assert policy.on_arrival(t2) is None  # no increase
        t3 = StreamTuple(ts=0, stream=0, seq=2)
        t3.delay = 300
        assert policy.on_arrival(t3) == 300
        stats = _stats_two_streams([[0], [0]])
        assert policy.decide(_context(stats)) == 300

    def test_interval_policies_ignore_arrivals(self):
        t = StreamTuple(ts=0, stream=0, seq=0)
        t.delay = 999
        assert NoKSlackPolicy().on_arrival(t) is None
        assert FixedKPolicy(5).on_arrival(t) is None


class TestModelBasedPolicy:
    def test_zero_k_when_streams_in_order(self):
        stats = _stats_two_streams([[0] * 50, [0] * 50])
        policy = ModelBasedPolicy(EqSel())
        assert policy.decide(_context(stats, gamma=0.999)) == 0

    def test_finds_k_covering_delay_mass(self):
        # Half the tuples of each stream are delayed by exactly 200 ms.
        # With Γ close to 1, K must cover (most of) that delay.
        delays = [0, 200] * 100
        stats = _stats_two_streams([delays, delays])
        policy = ModelBasedPolicy(EqSel())
        k = policy.decide(_context(stats, gamma=0.999))
        assert 100 <= k <= 210

    def test_lower_gamma_gives_smaller_k(self):
        delays = [0, 0, 0, 500] * 50  # 25% delayed by 500 ms
        stats = _stats_two_streams([delays, delays])
        high = ModelBasedPolicy(EqSel()).decide(_context(stats, gamma=0.999))
        low = ModelBasedPolicy(EqSel()).decide(_context(stats, gamma=0.7))
        assert low <= high
        assert low < 500

    def test_search_granularity_respected(self):
        delays = [0, 130] * 100
        stats = _stats_two_streams([delays, delays], granularity=50)
        policy = ModelBasedPolicy(EqSel())
        k = policy.decide(_context(stats, gamma=0.999, g=50))
        assert k % 50 == 0

    def test_search_stops_beyond_max_delay(self):
        delays = [0, 400] * 100
        stats = _stats_two_streams([delays, delays])
        policy = ModelBasedPolicy(EqSel())
        k = policy.decide(_context(stats, gamma=0.999))
        max_dh = stats.max_delay_ms()
        assert k <= max_dh + 10  # Alg. 3 exits at k* > MaxDH

    def test_overshoot_relaxes_next_interval(self):
        delays = [0, 300] * 100
        stats = _stats_two_streams([delays, delays])
        # Past intervals produced everything → instant requirement drops.
        monitor = ResultSizeMonitor(period_ms=10_000, interval_ms=1_000)
        for _ in range(9):
            monitor.record_true_estimate(100.0)
        monitor.record_produced(9_900, 900)
        profile = ProfileSnapshot({0: 1_000.0}, {0: 100.0})
        relaxed = ModelBasedPolicy(EqSel()).decide(
            _context(stats, profile=profile, gamma=0.95, monitor=monitor)
        )
        strict = ModelBasedPolicy(EqSel()).decide(_context(stats, gamma=0.95))
        assert relaxed <= strict

    def test_noneqsel_uses_learned_ratio(self):
        # Delayed tuples are *more* productive than punctual ones: the
        # NonEqSel ratio at small K is < 1, so NonEqSel needs a larger K
        # than EqSel to reach the same requirement.
        delays = [0, 300] * 100
        stats = _stats_two_streams([delays, delays])
        profile = ProfileSnapshot(
            {0: 1_000.0, 30: 1_000.0},  # equal cross sizes
            {0: 10.0, 30: 90.0},        # late tuples derive 9x the results
        )
        k_eq = ModelBasedPolicy(EqSel()).decide(
            _context(stats, profile=profile, gamma=0.9)
        )
        k_noneq = ModelBasedPolicy(NonEqSel()).decide(
            _context(stats, profile=profile, gamma=0.9)
        )
        assert k_noneq >= k_eq

    def test_diagnostics_exposed(self):
        delays = [0, 100] * 50
        stats = _stats_two_streams([delays, delays])
        policy = ModelBasedPolicy(EqSel())
        policy.decide(_context(stats, gamma=0.95))
        assert policy.last_search_steps >= 1
        assert 0.0 <= policy.last_instant_requirement <= 1.0


class TestShrinkDamping:
    def test_growth_is_instantaneous(self):
        delays = [0, 500] * 100
        stats = _stats_two_streams([delays, delays])
        policy = ModelBasedPolicy(EqSel(), shrink_damping=0.5)
        context = _context(stats, gamma=0.999)
        context.current_k_ms = 0
        k = policy.decide(context)
        assert k == policy.last_undamped_k  # no floor from K=0

    def test_shrink_limited_to_damping_floor(self):
        # In-order streams: the undamped search returns 0, but the floor
        # keeps half of the previous K.
        stats = _stats_two_streams([[0] * 50, [0] * 50])
        policy = ModelBasedPolicy(EqSel(), shrink_damping=0.5)
        context = _context(stats, gamma=0.9)
        context.current_k_ms = 1_000
        assert policy.decide(context) == 500
        assert policy.last_undamped_k == 0

    def test_zero_damping_is_paper_literal(self):
        stats = _stats_two_streams([[0] * 50, [0] * 50])
        policy = ModelBasedPolicy(EqSel(), shrink_damping=0.0)
        context = _context(stats, gamma=0.9)
        context.current_k_ms = 10_000
        assert policy.decide(context) == 0

    def test_invalid_damping_rejected(self):
        with pytest.raises(ValueError):
            ModelBasedPolicy(EqSel(), shrink_damping=1.0)
        with pytest.raises(ValueError):
            ModelBasedPolicy(EqSel(), shrink_damping=-0.5)

    def test_repeated_shrinks_decay_geometrically(self):
        stats = _stats_two_streams([[0] * 50, [0] * 50])
        policy = ModelBasedPolicy(EqSel(), shrink_damping=0.5)
        k = 8_000
        trajectory = []
        for _ in range(5):
            context = _context(stats, gamma=0.9)
            context.current_k_ms = k
            k = policy.decide(context)
            trajectory.append(k)
        assert trajectory == [4_000, 2_000, 1_000, 500, 250]


def _scan_from_zero(selectivity):
    """The same strategy, ratios included, with no declared cap: Alg. 3's
    scan from k* = 0, which the bisected start must reproduce."""
    twin = type(f"ScanFromZero{type(selectivity).__name__}", (type(selectivity),),
                {"ratio_cap": None})
    return twin()


class TestBinarySearch:
    """The bisected start of a capped strategy's search must agree with
    the Alg. 3 scan from zero, and pay fewer model evaluations for it."""

    def _policies(self, selectivity):
        return (
            ModelBasedPolicy(_scan_from_zero(selectivity), shrink_damping=0.0),
            ModelBasedPolicy(selectivity, shrink_damping=0.0),
        )

    @pytest.mark.parametrize("gamma", [0.7, 0.9, 0.99, 0.999])
    def test_matches_linear_scan_under_eqsel(self, gamma):
        delays = [0, 150, 0, 400] * 50
        stats = _stats_two_streams([delays, delays])
        linear, binary = self._policies(EqSel())
        k_linear = linear.decide(_context(stats, gamma=gamma))
        k_binary = binary.decide(_context(stats, gamma=gamma))
        assert k_binary == k_linear
        assert binary.last_search_steps == linear.last_search_steps

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.6, 0.7])
    def test_matches_linear_scan_under_noneqsel(self, gamma):
        # A learned ratio below 1 that dips again at coarse K 100: the
        # bound crosses early and the scan walks on past it, where a
        # skipped grid point would change k*.
        delays = [0, 300, 0, 1_000, 0, 1_500] * 40
        stats = _stats_two_streams([delays, delays])
        profile = ProfileSnapshot(
            {0: 1_000.0, 30: 1_000.0, 100: 1_000.0, 150: 1_000.0},
            {0: 10.0, 30: 60.0, 100: 20.0, 150: 90.0},
        )
        linear, binary = self._policies(NonEqSel())
        k_linear = linear.decide(_context(stats, profile=profile, gamma=gamma))
        k_binary = binary.decide(_context(stats, profile=profile, gamma=gamma))
        assert k_binary == k_linear
        assert binary.last_search_steps == linear.last_search_steps

    def test_zero_k_short_circuit(self):
        stats = _stats_two_streams([[0] * 50, [0] * 50])
        policy = ModelBasedPolicy(EqSel(), shrink_damping=0.0)
        assert policy.decide(_context(stats, gamma=0.99)) == 0
        assert policy.last_search_steps == 1

    def test_binary_uses_fewer_evaluations(self):
        delays = [0, 2_000] * 100  # MaxDH = 2000 → linear scan ~200 steps
        stats = _stats_two_streams([delays, delays])
        linear, binary = self._policies(EqSel())
        linear.decide(_context(stats, gamma=0.999))
        binary.decide(_context(stats, gamma=0.999))
        assert binary.last_model_evaluations < linear.last_model_evaluations / 4

    def test_unknown_search_rejected(self):
        # The bisected start is the only K search: there is no knob.
        with pytest.raises(TypeError):
            ModelBasedPolicy(EqSel(), search="binary")


class TestRatioCap:
    """The strategy declares the cap; no declaration, no skipped grid point."""

    def _steps_and_evaluations(self, selectivity):
        delays = [0, 2_000] * 100  # MaxDH = 2000: the scan from zero is ~200 steps
        stats = _stats_two_streams([delays, delays])
        policy = ModelBasedPolicy(selectivity, shrink_damping=0.0)
        k = policy.decide(_context(stats, gamma=0.999))
        return k, policy.last_search_steps, policy.last_model_evaluations

    def test_declared_caps(self):
        assert EqSel().ratio_cap == 1.0
        assert NonEqSel().ratio_cap == 1.0
        assert NonEqSel(cap_at_one=False).ratio_cap is None

    def test_a_strategy_without_a_cap_is_scanned_from_zero(self):
        class Doubling(EqSel):
            ratio_cap = None

            def ratio(self, snapshot, coarse_k):
                return 2.0

        for uncapped in (Doubling(), NonEqSel(cap_at_one=False)):
            k, steps, evaluations = self._steps_and_evaluations(uncapped)
            assert evaluations == steps == k // 10 + 1

    def test_a_capped_strategy_pays_the_bisection_and_a_short_scan(self):
        k, steps, evaluations = self._steps_and_evaluations(EqSel())
        assert steps == k // 10 + 1 > 100
        assert evaluations <= math.ceil(math.log2(200 + 2)) + 2

    def test_binary_search_reports_its_probes(self, monkeypatch):
        # Bisection probes and scanned points each evaluate Eq. 4 once:
        # the reported count is exactly what the search paid.
        calls = []
        original = RecallModel.produced_result_rate

        def counted(model, k_ms):
            calls.append(k_ms)
            return original(model, k_ms)

        monkeypatch.setattr(RecallModel, "produced_result_rate", counted)
        for selectivity in (EqSel(), _scan_from_zero(EqSel())):
            calls.clear()
            _, steps, evaluations = self._steps_and_evaluations(selectivity)
            assert evaluations == len(calls)
        assert evaluations == steps  # the uncapped twin probes only by scanning


class TestUnstampedInput:
    """Tuples without an arrival stamp (``arrival=-1``, the constructor
    default) used to give every stream rate 0, hence Eq. 1 true rate 0,
    hence γ = 1 at every K: the policy pinned K = 0 for the whole run."""

    def _run(self, stamped, policy):
        rng = random.Random(5)
        pending = []
        for stream in range(3):
            for position in range(2_000):
                ts = 10 * position + stream
                delay = rng.randint(1, 800) if rng.random() < 0.3 else 0
                pending.append((ts + delay, ts, stream, position, rng.randint(0, 9)))
        pending.sort()
        pipeline = QualityDrivenPipeline(
            PipelineConfig(
                window_sizes_ms=[1_000] * 3,
                condition=equi_join_chain("a1", 3),
                gamma=0.95,
                period_ms=seconds(10),
                interval_ms=seconds(1),
                basic_window_ms=10,
                granularity_ms=10,
                policy=policy,
                collect_results=False,
            )
        )
        for arrival, ts, stream, seq, value in pending:
            pipeline.process(
                StreamTuple(ts, {"a1": value}, stream, seq, arrival if stamped else -1)
            )
        pipeline.flush()
        return pipeline

    def test_unstamped_run_adapts_like_the_stamped_one(self):
        true_results = self._run(True, FixedKPolicy(800)).metrics.results_produced
        stamped = self._run(True, ModelBasedPolicy(NonEqSel()))
        unstamped = self._run(False, ModelBasedPolicy(NonEqSel()))
        assert len(unstamped.metrics.k_history) > 1
        # One tuple per 10 ms of application time on every stream.
        assert unstamped.statistics.rates_per_ms() == pytest.approx([0.1] * 3, rel=0.01)
        recall = unstamped.metrics.results_produced / true_results
        assert abs(recall - stamped.metrics.results_produced / true_results) <= 0.05
        assert recall > 0.9


class TestBuildRecallModel:
    def test_model_reflects_statistics(self):
        delays = [0, 0, 0, 0] * 25
        stats = _stats_two_streams([delays, delays])
        model = build_recall_model(_context(stats))
        assert model.in_order_probability(0, 0) == pytest.approx(1.0)
        # Rate: 2 streams at one tuple per 100 ms → 0.01/ms.
        assert model.inputs[0].rate_per_ms == pytest.approx(0.01, rel=0.05)


class _SearchStepLog(ModelBasedPolicy):
    """Alg. 3 with ``last_search_steps`` and ``last_model_evaluations``
    kept for every step, and the bisection's worst case at that step."""

    def __init__(self, selectivity):
        super().__init__(selectivity)
        self.search_steps = []
        self.model_evaluations = []
        self.bisection_bounds = []

    def decide(self, context):
        k = super().decide(context)
        self.search_steps.append(self.last_search_steps)
        self.model_evaluations.append(self.last_model_evaluations)
        grid = context.statistics.max_delay_ms() // context.granularity_ms
        self.bisection_bounds.append(math.ceil(math.log2(grid + 2)))
        return k


#: (selectivity, b, g) -> the most model evaluations the pinned run may pay
#: for its search steps.  Before the scan started at the bound's crossing
#: the two sums were equal: 48 208 and 36 522.
_PINNED_EVALUATION_CEILINGS = {(NonEqSel, 10, 1): 4_500, (EqSel, 10, 1): 1_000}


#: (selectivity, b, g) -> (k_history, results_produced, search steps per
#: adaptation step) of the run in ``TestKTrajectoryPinned``, recorded on the
#: commit before Alg. 3's scan moved into ``RecallModel`` (PR 20).  The four
#: (b, g) are the model's index paths: stride 10, stride 1, the staircase,
#: and neither of b and g dividing the other.
_PINNED_TRAJECTORIES = {
    (NonEqSel, 10, 1): (
        [(0, 0), (1000, 400), (2000, 200), (3000, 100), (4000, 50), (5000, 984),
         (6000, 492), (7000, 250), (8000, 125), (9000, 80), (10000, 40), (11000, 1601),
         (12000, 1101), (14000, 1551), (18000, 775), (19000, 387), (20000, 193),
         (21000, 1551), (22000, 775), (23000, 1551), (24000, 1901), (25000, 1900),
         (26000, 1901), (29000, 1900), (30000, 1901), (31000, 1951), (35000, 1930),
         (37000, 1951)],
        42_400,
        [401, 90, 35, 29, 985, 1, 251, 84, 81, 1, 1601, 1101, 1101, 1551, 1551, 1551,
         1551, 31, 1, 1, 1551, 331, 1551, 1901, 1901, 1901, 1901, 1901, 1901, 1901,
         1951, 1951, 1951, 1951, 1931, 1931, 1951, 1951, 1951, 1951],
    ),
    (NonEqSel, 10, 10): (
        [(0, 0), (1000, 400), (2000, 200), (3000, 100), (4000, 50), (5000, 990),
         (6000, 495), (7000, 250), (8000, 125), (9000, 80), (10000, 40), (11000, 1610),
         (12000, 1110), (14000, 1560), (18000, 780), (19000, 390), (20000, 195),
         (21000, 1560), (22000, 780), (23000, 1560), (24000, 1910), (25000, 1900),
         (26000, 1910), (29000, 1900), (30000, 1910), (31000, 1960), (35000, 1930),
         (37000, 1960)],
        42_400,
        [41, 10, 5, 4, 100, 1, 26, 10, 9, 1, 161, 111, 111, 156, 156, 156, 156, 4, 1, 1,
         156, 34, 156, 191, 191, 191, 191, 191, 191, 191, 196, 196, 196, 196, 194, 194,
         196, 196, 196, 196],
    ),
    (NonEqSel, 10, 100): (
        [(0, 0), (1000, 400), (2000, 200), (3000, 100), (5000, 1000), (6000, 500),
         (7000, 300), (8000, 150), (9000, 100), (11000, 1700), (12000, 1200),
         (14000, 1700), (15000, 1600), (16000, 1700), (18000, 850), (19000, 425),
         (20000, 212), (21000, 1700), (22000, 850), (23000, 1700), (24000, 2000),
         (25000, 1900), (27000, 2000), (31000, 2100), (35000, 2000), (37000, 2100),
         (38000, 2000), (39000, 2100), (40000, 2000)],
        42_481,
        [5, 2, 2, 2, 11, 1, 4, 2, 2, 2, 17, 12, 12, 17, 17, 17, 17, 2, 2, 1, 17, 5, 17,
         20, 20, 20, 20, 20, 20, 20, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21],
    ),
    (NonEqSel, 15, 10): (
        [(0, 0), (1000, 400), (2000, 200), (3000, 100), (4000, 50), (5000, 990),
         (6000, 495), (7000, 250), (8000, 125), (9000, 80), (10000, 40), (11000, 1610),
         (12000, 1110), (14000, 1560), (18000, 780), (19000, 390), (20000, 195),
         (21000, 1560), (22000, 780), (23000, 1560), (24000, 1910), (25000, 1900),
         (26000, 1910), (29000, 1900), (30000, 1910), (31000, 1960), (35000, 1930),
         (37000, 1960)],
        42_400,
        [41, 10, 5, 4, 100, 1, 26, 10, 9, 1, 161, 111, 111, 156, 156, 156, 156, 4, 1, 1,
         156, 34, 156, 191, 191, 191, 191, 191, 191, 191, 196, 196, 196, 196, 194, 194,
         196, 196, 196, 196],
    ),
    (EqSel, 10, 1): (
        [(0, 0), (1000, 393), (2000, 196), (3000, 98), (4000, 49), (5000, 250),
         (6000, 125), (7000, 62), (8000, 31), (9000, 15), (10000, 7), (11000, 1601),
         (12000, 1077), (13000, 1101), (14000, 1551), (15000, 1534), (17000, 767),
         (18000, 383), (19000, 191), (20000, 95), (21000, 1551), (22000, 775),
         (23000, 1551), (24000, 1901), (25000, 1879), (26000, 1901), (28000, 950),
         (29000, 475), (30000, 400), (31000, 1951), (32000, 975), (33000, 1951),
         (34000, 975), (35000, 1930), (37000, 1951)],
        42_012,
        [394, 40, 35, 29, 251, 35, 1, 1, 1, 1, 1601, 1078, 1101, 1551, 1535, 1535, 101,
         27, 1, 1, 1551, 131, 1551, 1901, 1880, 1901, 1901, 72, 82, 401, 1951, 132,
         1951, 132, 1931, 1931, 1951, 1951, 1951, 1951],
    ),
    (EqSel, 10, 10): (
        [(0, 0), (1000, 400), (2000, 200), (3000, 100), (4000, 50), (5000, 250),
         (6000, 125), (7000, 62), (8000, 31), (9000, 15), (10000, 7), (11000, 1610),
         (12000, 1080), (13000, 1110), (14000, 1560), (15000, 1540), (17000, 770),
         (18000, 385), (19000, 192), (20000, 96), (21000, 1560), (22000, 780),
         (23000, 1560), (24000, 1910), (25000, 1880), (26000, 1910), (28000, 955),
         (29000, 477), (30000, 400), (31000, 1960), (32000, 980), (33000, 1960),
         (34000, 980), (35000, 1930), (37000, 1960)],
        42_012,
        [41, 5, 5, 4, 26, 5, 1, 1, 1, 1, 161, 109, 111, 156, 155, 155, 11, 4, 1, 1, 156,
         14, 156, 191, 189, 191, 191, 9, 10, 41, 196, 15, 196, 15, 194, 194, 196, 196,
         196, 196],
    ),
    (EqSel, 10, 100): (
        [(0, 0), (1000, 400), (2000, 200), (3000, 100), (5000, 400), (6000, 200),
         (7000, 100), (8000, 50), (9000, 25), (10000, 12), (11000, 1700), (12000, 1100),
         (14000, 1700), (15000, 1600), (17000, 800), (18000, 400), (19000, 200),
         (20000, 100), (21000, 1700), (22000, 850), (23000, 1700), (24000, 2000),
         (25000, 1900), (27000, 2000), (28000, 1000), (29000, 500), (30000, 600),
         (31000, 2100), (32000, 1050), (33000, 2100), (34000, 1050), (35000, 2000),
         (36000, 1000), (37000, 2100), (38000, 1050), (39000, 2100), (40000, 1050)],
        42_043,
        [5, 2, 2, 2, 5, 2, 1, 1, 1, 1, 17, 12, 12, 17, 17, 17, 3, 2, 1, 1, 17, 3, 17,
         20, 20, 20, 20, 2, 2, 7, 21, 3, 21, 3, 21, 3, 21, 3, 21, 3],
    ),
    (EqSel, 15, 10): (
        [(0, 0), (1000, 400), (2000, 200), (3000, 100), (4000, 50), (5000, 250),
         (6000, 125), (7000, 62), (8000, 31), (9000, 15), (10000, 7), (11000, 1610),
         (12000, 1080), (13000, 1110), (14000, 1560), (15000, 1540), (17000, 770),
         (18000, 385), (19000, 192), (20000, 96), (21000, 1560), (22000, 780),
         (23000, 1560), (24000, 1910), (25000, 1880), (26000, 1910), (28000, 955),
         (29000, 477), (30000, 400), (31000, 1960), (32000, 980), (33000, 1960),
         (34000, 980), (35000, 1930), (37000, 1960)],
        42_012,
        [41, 5, 5, 4, 26, 5, 1, 1, 1, 1, 161, 109, 111, 156, 155, 155, 11, 4, 1, 1, 156,
         14, 156, 191, 189, 191, 191, 9, 10, 41, 196, 15, 196, 15, 194, 194, 196, 196,
         196, 196],
    ),
}


class TestKTrajectoryPinned:
    """Every float of Eqs. 1–6 feeds the K decision: a change of
    operation order anywhere in the model shows up here as a different K."""

    @pytest.mark.parametrize(
        "selectivity,b,g",
        list(_PINNED_TRAJECTORIES),
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_trajectory_is_bit_stable(self, selectivity, b, g):
        dataset = make_d3_syn(
            duration_ms=seconds(40), seed=7, inter_arrival_ms=50, max_delay_ms=2_000
        )
        policy = _SearchStepLog(selectivity())
        pipeline = QualityDrivenPipeline(
            PipelineConfig(
                # Not a multiple of either b: the last basic window is partial.
                window_sizes_ms=[2_050] * 3,
                condition=equi_join_chain("a1", 3),
                gamma=0.95,
                period_ms=seconds(10),
                interval_ms=seconds(1),
                basic_window_ms=b,
                granularity_ms=g,
                policy=policy,
                collect_results=False,
            )
        )
        replay(pipeline, dataset.arrivals())
        k_history, results_produced, search_steps = _PINNED_TRAJECTORIES[selectivity, b, g]
        assert pipeline.metrics.k_history == k_history
        assert pipeline.metrics.results_produced == results_produced
        assert policy.search_steps == search_steps
        # The skip changes what a step costs, never what it decides.
        for steps, paid, bisected in zip(
            search_steps, policy.model_evaluations, policy.bisection_bounds
        ):
            assert paid <= steps + bisected
        ceiling = _PINNED_EVALUATION_CEILINGS.get((selectivity, b, g))
        if ceiling is not None:
            assert sum(policy.model_evaluations) <= ceiling < sum(search_steps)
