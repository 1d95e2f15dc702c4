"""Unit tests for the recall model, Eqs. 1–5 (repro.core.model).

The optimized implementation (cumulative + strided prefix sums) is checked
against a direct brute-force evaluation of the paper's equations.
"""

import random
from bisect import bisect_right
from math import isfinite

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CumulativePdf,
    RecallModel,
    SelectivityStrategy,
    StreamModelInput,
)


# ----------------------------------------------------------------------
# brute-force references
# ----------------------------------------------------------------------

def brute_cdf(pdf, x):
    if x < 0:
        return 0.0
    return min(1.0, sum(pdf[: x + 1]))


def brute_window_cardinality(pdf, slack_ms, rate, window_ms, b, g):
    """Direct evaluation of Eq. 3 (summed over segments)."""
    n = (window_ms + b - 1) // b
    total = 0.0
    for segment in range(1, n):  # segments 1 .. n-1
        total += b * brute_cdf(pdf, (slack_ms + (segment - 1) * b) // g)
    total += (window_ms - (n - 1) * b) * brute_cdf(pdf, (slack_ms + (n - 1) * b) // g)
    return rate * total


def brute_gamma(inputs, k_ms, b, g, sel_ratio=1.0):
    """Direct evaluation of Eq. 5 via Eqs. 1 and 4."""
    true_rate = 0.0
    prod_rate = 0.0
    for i, s in enumerate(inputs):
        t = s.rate_per_ms
        p = s.rate_per_ms * brute_cdf(s.pdf, (k_ms + int(s.ksync_ms)) // g)
        for j, other in enumerate(inputs):
            if j == i:
                continue
            t *= other.rate_per_ms * other.window_ms
            p *= brute_window_cardinality(
                other.pdf, k_ms + int(other.ksync_ms), other.rate_per_ms,
                other.window_ms, b, g,
            )
        true_rate += t
        prod_rate += p
    if true_rate <= 0:
        return 1.0
    return max(0.0, min(1.0, sel_ratio * prod_rate / true_rate))


def _random_pdf(rng, size):
    weights = [rng.random() for _ in range(size)]
    total = sum(weights)
    return [w / total for w in weights]


# ----------------------------------------------------------------------
# CumulativePdf
# ----------------------------------------------------------------------

class TestCumulativePdf:
    def test_cdf_values(self):
        c = CumulativePdf([0.5, 0.3, 0.2])
        assert c.cdf(0) == pytest.approx(0.5)
        assert c.cdf(1) == pytest.approx(0.8)
        assert c.cdf(2) == pytest.approx(1.0)

    def test_cdf_out_of_range(self):
        c = CumulativePdf([0.5, 0.5])
        assert c.cdf(-1) == 0.0
        assert c.cdf(100) == pytest.approx(1.0)

    def test_empty_pdf_rejected(self):
        with pytest.raises(ValueError):
            CumulativePdf([])

    @pytest.mark.parametrize("step", [1, 2, 3, 7])
    def test_strided_sum_matches_direct(self, step):
        rng = random.Random(step)
        pdf = _random_pdf(rng, 37)
        c = CumulativePdf(pdf)
        for start in (0, 1, 5, 20, 36, 40, 100):
            for terms in (0, 1, 2, 10, 50):
                direct = sum(
                    brute_cdf(pdf, start + l * step) for l in range(terms)
                )
                assert c.strided_sum(start, step, terms) == pytest.approx(direct)

    def test_strided_sum_negative_start(self):
        pdf = [0.25, 0.25, 0.5]
        c = CumulativePdf(pdf)
        direct = sum(brute_cdf(pdf, -3 + l * 2) for l in range(6))
        assert c.strided_sum(-3, 2, 6) == pytest.approx(direct)

    def test_strided_sum_zero_terms(self):
        assert CumulativePdf([1.0]).strided_sum(0, 1, 0) == 0.0

    def test_strided_sum_invalid_step(self):
        with pytest.raises(ValueError):
            CumulativePdf([1.0]).strided_sum(0, 0, 3)


# ----------------------------------------------------------------------
# RecallModel
# ----------------------------------------------------------------------

def _inputs(m=2, rate=0.02, window=2_000, pdf=None, ksync=0.0):
    pdf = pdf if pdf is not None else [0.7, 0.1, 0.1, 0.1]
    return [
        StreamModelInput(pdf=list(pdf), ksync_ms=ksync, rate_per_ms=rate, window_ms=window)
        for _ in range(m)
    ]


class TestRecallModelBasics:
    def test_needs_two_streams(self):
        with pytest.raises(ValueError):
            RecallModel(_inputs(m=2)[:1], 10, 10)

    def test_invalid_b_or_g(self):
        with pytest.raises(ValueError):
            RecallModel(_inputs(), 0, 10)
        with pytest.raises(ValueError):
            RecallModel(_inputs(), 10, -1)

    def test_in_order_probability_grows_with_k(self):
        model = RecallModel(_inputs(), basic_window_ms=10, granularity_ms=10)
        probabilities = [model.in_order_probability(0, k) for k in (0, 10, 20, 30)]
        assert probabilities == sorted(probabilities)
        assert probabilities[0] == pytest.approx(0.7)
        assert probabilities[-1] == pytest.approx(1.0)

    def test_ksync_adds_to_slack(self):
        inputs = _inputs(ksync=20.0)
        model = RecallModel(inputs, basic_window_ms=10, granularity_ms=10)
        # slack = 0 + 20 → two buckets of pre-shift: cdf(2) = 0.9
        assert model.in_order_probability(0, 0) == pytest.approx(0.9)

    def test_true_result_rate_two_way_formula(self):
        inputs = [
            StreamModelInput(pdf=[1.0], ksync_ms=0, rate_per_ms=0.01, window_ms=1_000),
            StreamModelInput(pdf=[1.0], ksync_ms=0, rate_per_ms=0.02, window_ms=3_000),
        ]
        model = RecallModel(inputs, 10, 10)
        expected = 0.01 * (0.02 * 3_000) + 0.02 * (0.01 * 1_000)
        assert model.true_result_rate() == pytest.approx(expected)

    def test_gamma_is_one_for_in_order_streams(self):
        inputs = _inputs(pdf=[1.0])
        model = RecallModel(inputs, 10, 10)
        assert model.gamma(0) == pytest.approx(1.0)

    def test_gamma_reaches_one_at_large_k(self):
        model = RecallModel(_inputs(), 10, 10)
        assert model.gamma(1_000) == pytest.approx(1.0)

    def test_gamma_monotone_in_k(self):
        model = RecallModel(_inputs(m=3), 10, 10)
        gammas = [model.gamma(k) for k in range(0, 200, 10)]
        assert all(a <= b + 1e-12 for a, b in zip(gammas, gammas[1:]))

    def test_gamma_bounded(self):
        model = RecallModel(_inputs(), 10, 10)
        for k in (0, 10, 50, 10_000):
            assert 0.0 <= model.gamma(k, sel_ratio=5.0) <= 1.0

    def test_gamma_scales_with_sel_ratio(self):
        model = RecallModel(_inputs(), 10, 10)
        low = model.gamma(0, sel_ratio=0.5)
        high = model.gamma(0, sel_ratio=1.0)
        assert low == pytest.approx(high * 0.5, rel=1e-9)

    def test_zero_rate_gives_gamma_one(self):
        inputs = _inputs(rate=0.0)
        model = RecallModel(inputs, 10, 10)
        assert model.gamma(0) == 1.0

    def test_estimated_true_results_linear_in_interval(self):
        model = RecallModel(_inputs(), 10, 10)
        assert model.estimated_true_results(2_000) == pytest.approx(
            2 * model.estimated_true_results(1_000)
        )


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "b,g",
        [(10, 10), (10, 1), (10, 5), (100, 10), (10, 100), (10, 1000), (30, 7)],
    )
    def test_window_cardinality_matches_brute_force(self, b, g):
        rng = random.Random(b * 1_000 + g)
        pdf = _random_pdf(rng, 25)
        s = StreamModelInput(pdf=pdf, ksync_ms=35.0, rate_per_ms=0.015, window_ms=730)
        model = RecallModel([s, s], basic_window_ms=b, granularity_ms=g)
        for k in (0, g, 3 * g, 17 * g):
            expected = brute_window_cardinality(
                pdf, k + 35, 0.015, 730, b, g
            )
            assert model.expected_window_cardinality(0, k) == pytest.approx(expected)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("b,g", [(10, 10), (10, 100), (50, 10)])
    def test_gamma_matches_brute_force(self, m, b, g):
        rng = random.Random(m * 10_000 + b * 100 + g)
        inputs = []
        for _ in range(m):
            inputs.append(
                StreamModelInput(
                    pdf=_random_pdf(rng, rng.randint(5, 40)),
                    ksync_ms=rng.choice([0.0, 12.0, 57.0]),
                    rate_per_ms=rng.uniform(0.005, 0.05),
                    window_ms=rng.choice([500, 1_000, 2_050]),
                )
            )
        model = RecallModel(inputs, basic_window_ms=b, granularity_ms=g)
        for k in (0, g, 5 * g, 40 * g):
            assert model.gamma(k) == pytest.approx(
                brute_gamma(inputs, k, b, g), rel=1e-9
            )

    def test_single_segment_window_counts_only_in_order(self):
        # b >= W → n=1: the estimate must reduce to r*W*f(0) (paper note).
        pdf = [0.6, 0.4]
        s = StreamModelInput(pdf=pdf, ksync_ms=0, rate_per_ms=0.01, window_ms=100)
        model = RecallModel([s, s], basic_window_ms=500, granularity_ms=10)
        assert model.expected_window_cardinality(0, 0) == pytest.approx(
            0.01 * 100 * 0.6
        )


# ----------------------------------------------------------------------
# The bounded scan: first_sufficient_k(..., ratio_cap=...)
# ----------------------------------------------------------------------

def plain_scan(model, requirement, sel_ratio_at, max_k_ms):
    """Alg. 3 from zero, one ``gamma`` per grid point: what the bounded
    scan must return, ``(k*, grid points decided)``."""
    k_ms, steps = 0, 0
    while k_ms <= max_k_ms:
        steps += 1
        if model.gamma(k_ms, sel_ratio_at(k_ms // model.g)) >= requirement:
            break
        k_ms += model.g
    return k_ms, steps


def bounded_scan_cost(model, requirement, sel_ratio_at, max_k_ms, cap):
    """The bisect-then-scan that the ceiling skip replaced, verbatim:
    bisect for the cap bound's crossing, then one ``gamma`` per grid point
    from there.  Returns the model evaluations it paid — what
    ``first_sufficient_k`` must never exceed."""
    g, gamma = model.g, model.gamma
    start = bisected = 0
    if (
        cap is not None and isfinite(cap)
        and model._true_rate > 0.0 and requirement > 0.0
    ):
        threshold = requirement * (1.0 - model._guard)
        stop = max_k_ms // g + 1
        while start < stop:
            middle = (start + stop) // 2
            bisected += 1
            rate = model.produced_result_rate(middle * g)
            if cap * rate / model._true_rate < threshold:
                start = middle + 1
            else:
                stop = middle
    k_star = start * g
    steps = start
    while k_star <= max_k_ms:
        steps += 1
        if gamma(k_star, sel_ratio_at(k_star // g)) >= requirement:
            break
        k_star += g
    return bisected + steps - start


def point_scan(model, requirement, sel_ratio_at, max_k_ms, ratio_cap=None):
    """``first_sufficient_k`` before the constant-ratio run jump, verbatim:
    bisect, then decide one grid point at a time, skipping a point that a
    known ceiling rules out.  Returns ``((k*, steps), evaluations)`` —
    what the jump must reproduce, including what it pays."""
    g, true_rate = model.g, model._true_rate
    start = paid = credit = 0
    ceilings = []
    if (
        ratio_cap is not None and isfinite(ratio_cap)
        and true_rate > 0.0 and requirement > 0.0
    ):
        threshold = requirement * (1.0 - model._guard)
        stop = max_k_ms // g + 1
        while start < stop:
            middle = (start + stop) // 2
            paid += 1
            rate = model.produced_result_rate(middle * g)
            if ratio_cap * rate / true_rate < threshold:
                start = middle + 1
            else:
                stop = middle
                ceilings.append((middle, rate))
    k_star, steps, ahead = start * g, start, 2
    while k_star <= max_k_ms:
        ratio = sel_ratio_at(steps)  # steps is k_star's grid index here
        while ceilings and ceilings[-1][0] < steps:
            ceilings.pop()
        if credit and not ceilings:  # look ahead, paid by a skip
            probe = min(steps + ahead, max_k_ms // g)
            ceilings.append((probe, model.produced_result_rate(probe * g)))
            credit, ahead, paid = credit - 1, 2 * ahead, paid + 1
        if not ceilings:
            paid += 1
            estimate = model.gamma(k_star, ratio)
        else:
            ceiling, rate = ceilings[-1]
            estimate = ratio * rate / true_rate
            if estimate < threshold:
                credit += 1  # ruled out unevaluated; threshold <= requirement
            elif ceiling == steps:
                estimate = max(0.0, min(1.0, estimate))  # gamma's own operations
            else:
                paid += 1
                estimate = model.gamma(k_star, ratio)
        steps += 1
        if estimate >= requirement:
            break
        k_star += g
    return (k_star, steps), paid


#: The model's three index paths: g | b, b | g, neither.
INDEX_PATHS = [(10, 1), (10, 100), (30, 7)]

_LATE = [0.0] * 299 + [1.0]                       # all mass in the last bucket
_TINY = [1e-12] * 300 + [1.0 - 300e-12]           # masses the prefixes absorb
_RAGGED = _random_pdf(random.Random(23), 2_000)   # long rows: n² · u is largest


@pytest.mark.parametrize("b,g", INDEX_PATHS)
class TestBoundedScan:
    """The skip is exact: same ``(k*, steps)`` as the scan from zero."""

    def _check(self, model, requirement, ratio_at, max_k_ms, cap):
        expected = plain_scan(model, requirement, ratio_at, max_k_ms)
        assert model.first_sufficient_k(requirement, ratio_at, max_k_ms, cap) == expected
        assert model.last_evaluations <= expected[1] + (max_k_ms // model.g + 1).bit_length()

    @pytest.mark.parametrize("pdf", [_LATE, _TINY, _RAGGED], ids=["late", "tiny", "ragged"])
    @pytest.mark.parametrize("requirement", [0.0, 0.5, 0.95, 1.0])
    def test_adversarial_pdfs(self, b, g, pdf, requirement):
        model = RecallModel(_inputs(m=3, window=2_050, pdf=pdf, ksync=7.0), b, g)
        max_k_ms = (len(pdf) - 1) * g
        for cap in (1.0, 2.0):
            self._check(model, requirement, lambda coarse_k: 1.0, max_k_ms, cap)
        # A learned ratio that stays under the cap past the bound's crossing.
        self._check(
            model, requirement, lambda coarse_k: 0.25 + 0.75 * (coarse_k % 3 == 0),
            max_k_ms, 1.0,
        )

    def test_requirement_equal_to_an_estimate(self, b, g):
        """What the guard band is for.  On a flat stretch of the cdf the
        stride-prefix difference returns the same real sum rounded
        differently per offset, so the computed rate *falls* between some
        neighbouring grid points; with the requirement exactly γ at a grid
        point and the ratio on its cap, an unguarded bisection that lands
        on a low neighbour skips the answer (49 of 1 200 ties at g | b,
        107 at b | g, with the guard set to 0)."""
        pdf = [0.0] * 1_200
        pdf[0] = pdf[400] = pdf[800] = 0.3
        pdf[-1] = 0.1
        model = RecallModel(_inputs(m=4, window=205, pdf=pdf, ksync=12.5), b, g)
        max_k_ms = 1_199 * g
        rates = [model.produced_result_rate(index * g) for index in range(1_200)]
        falls = sum(later < earlier for earlier, later in zip(rates, rates[1:]))
        assert (falls > 0) == (b % g == 0 or g % b == 0)
        for index in range(0, 1_200, 7):
            self._check(model, rates[index] / model.true_result_rate(),
                        lambda coarse_k: 1.0, max_k_ms, 1.0)

        # The same ties under a ratio that changes per grid point, so a
        # ceiling's rate meets a different ratio at every point under it
        # (an unguarded ceiling skip misses index 12 at b | g).
        def ratio_at(coarse_k):
            return 1.0 - (coarse_k % 3) / 8

        for index in range(0, 1_200, 4):
            requirement = ratio_at(index) * rates[index] / model.true_result_rate()
            self._check(model, requirement, ratio_at, max_k_ms, 1.0)
            assert model.last_evaluations <= bounded_scan_cost(
                model, requirement, ratio_at, max_k_ms, 1.0
            )

    def test_skips_what_the_bound_rules_out(self, b, g):
        model = RecallModel(_inputs(m=3, window=2_050, pdf=_LATE), b, g)
        k_ms, steps = model.first_sufficient_k(0.95, lambda coarse_k: 1.0, 299 * g, 1.0)
        assert steps == k_ms // g + 1 > 100
        assert model.last_evaluations <= 2 + (300).bit_length()
        # No cap declared (the three-argument call): every grid point is paid for.
        assert model.first_sufficient_k(0.95, lambda coarse_k: 1.0, 299 * g) == (k_ms, steps)
        assert model.last_evaluations == steps

    def test_nothing_reaches_the_requirement(self, b, g):
        model = RecallModel(_inputs(m=2, pdf=_TINY), b, g)
        max_k_ms = 300 * g + g // 2
        for requirement, ratio in ((1.1, 1.0), (0.9, 0.5)):
            result = model.first_sufficient_k(requirement, lambda coarse_k: ratio, max_k_ms, 1.0)
            assert result == plain_scan(model, requirement, lambda coarse_k: ratio, max_k_ms)
            assert result == (301 * g, 301)

    def test_degenerate_inputs_scan_from_zero(self, b, g):
        ratio_at = lambda coarse_k: 1.0  # noqa: E731
        idle = RecallModel(_inputs(m=2, rate=0.0, pdf=_LATE), b, g)
        assert idle.first_sufficient_k(0.95, ratio_at, 299 * g, 1.0) == (0, 1)
        assert idle.last_evaluations == 1
        model = RecallModel(_inputs(m=2, pdf=_LATE), b, g)
        for cap in (None, float("inf"), float("nan")):
            assert model.first_sufficient_k(0.95, ratio_at, 299 * g, cap) == plain_scan(
                model, 0.95, ratio_at, 299 * g
            )
            assert model.last_evaluations == 300
        for max_k_ms in (g - 1, 0, -1):
            for requirement in (0.0, 0.95, 1.0):
                self._check(model, requirement, ratio_at, max_k_ms, 1.0)
        assert model.first_sufficient_k(0.95, ratio_at, -1, 1.0) == (0, 0)


# ----------------------------------------------------------------------
# The run jump: first_sufficient_k(..., breaks=...)
# ----------------------------------------------------------------------

@st.composite
def piecewise_scan_cases(draw):
    """A model on one of the three index paths, a piecewise-constant ratio
    with its break list, and a requirement that often ties an estimate."""
    b, g = draw(st.sampled_from(INDEX_PATHS))
    inputs = []
    for _ in range(draw(st.integers(2, 3))):
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).filter(any))
        late = [0.0] * draw(st.integers(0, 30))  # little in order at K = 0
        inputs.append(StreamModelInput(
            pdf=late + [w / sum(weights) for w in weights],
            ksync_ms=draw(st.sampled_from([0.0, 7.0, 57.0])),
            rate_per_ms=draw(st.floats(0.005, 0.05)),
            window_ms=draw(st.integers(1, 1_500)),
        ))
    longest = max(len(s.pdf) for s in inputs)  # the grid spans the pdfs
    max_k_ms = (longest + draw(st.integers(0, 5))) * g + draw(st.integers(0, g - 1))
    points = max_k_ms // g + 1
    breaks = sorted(draw(st.sets(st.integers(1, points + 3), max_size=12)))
    values = draw(st.lists(st.floats(0.1, 1.0), min_size=len(breaks), max_size=len(breaks)))
    values.append(1.0)  # Eq. 6 reads 1 past the last occupied delay
    cap = draw(st.sampled_from([1.0, None]))
    if cap is None:  # uncapped: the ratio may exceed 1
        values = [value * draw(st.sampled_from([1.0, 1.5])) for value in values]
    tie = draw(st.one_of(st.none(), st.integers(0, points - 1)))
    requirement = draw(st.floats(0.01, 1.0))
    return inputs, b, g, breaks, values, cap, tie, requirement, max_k_ms


class TestRunJumpProperties:
    @given(piecewise_scan_cases())
    @settings(max_examples=150, deadline=None)
    def test_the_jump_is_the_point_by_point_scan(self, case):
        """Whatever the break list — none, the true one, or ``[]`` under a
        constant ratio — the scan returns the ``(k*, steps)`` and pays the
        model evaluations of the point-by-point loop."""
        inputs, b, g, breaks, values, cap, tie, requirement, max_k_ms = case
        model = RecallModel(inputs, basic_window_ms=b, granularity_ms=g)

        def ratio_at(coarse_k):
            return values[bisect_right(breaks, coarse_k)]

        def constant_at(coarse_k):
            return values[0]

        for sel_ratio_at, true_breaks in ((ratio_at, breaks), (constant_at, [])):
            if tie is not None:  # the requirement ties an estimate exactly
                requirement = model.gamma(tie * g, sel_ratio_at(tie))
            expected, paid = point_scan(model, requirement, sel_ratio_at, max_k_ms, cap)
            for given_breaks in (None, true_breaks):
                assert model.first_sufficient_k(
                    requirement, sel_ratio_at, max_k_ms, cap, given_breaks
                ) == expected
                assert model.last_evaluations == paid

    @pytest.mark.parametrize("b,g", INDEX_PATHS)
    def test_a_strategy_without_breaks_scans_every_point(self, b, g):
        """A strategy that leaves ``ratio_breaks`` at its default is asked
        for its ratio at every grid point the scan decides; declaring the
        same constant ratio as such rules its runs out whole."""

        class Halving(SelectivityStrategy):
            ratio_cap = 1.0

            def ratio(self, snapshot, coarse_k):
                return 0.5

        strategy = Halving()
        assert strategy.ratio_breaks(None) is None
        model = RecallModel(_inputs(m=3, window=2_050, pdf=_RAGGED), b, g)
        max_k_ms = (len(_RAGGED) - 1) * g
        calls = []

        def sel_ratio_at(coarse_k):
            calls.append(coarse_k)
            return strategy.ratio(None, coarse_k)

        expected, paid = point_scan(model, 0.4, sel_ratio_at, max_k_ms, 1.0)
        scanned, calls[:] = calls[:], []
        assert model.first_sufficient_k(
            0.4, sel_ratio_at, max_k_ms, 1.0, strategy.ratio_breaks(None)
        ) == expected
        assert model.last_evaluations == paid
        assert calls == scanned == list(range(scanned[0], expected[1]))
        # The same constant ratio declared as one: each run goes at once.
        calls.clear()
        assert model.first_sufficient_k(0.4, sel_ratio_at, max_k_ms, 1.0, []) == expected
        assert model.last_evaluations == paid
        assert len(calls) < len(scanned)
