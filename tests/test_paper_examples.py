"""Worked examples from the paper's figures (Fig. 1, Fig. 3, Fig. 5).

These tests pin the framework's behaviour to the scenarios the paper uses
to motivate and explain the approach.  Fig. 3 is covered in
``test_kslack.py``; here we cover the Fig. 1 join effects and the Fig. 5
selectivity effects.
"""

import pytest

from repro import (
    EquiPredicate,
    FixedKPolicy,
    JoinCondition,
    MSWJOperator,
    NoKSlackPolicy,
    PipelineConfig,
    QualityDrivenPipeline,
    StreamTuple,
    from_tuple_specs,
    replay,
)


def _letter_condition():
    return JoinCondition([EquiPredicate(0, "letter", 1, "letter")])


def _fig1_dataset():
    """The Fig. 1 scenario: W1 = W2 = 2 time units (ms here).

    S1 (capitals): A1 B3 E5 B6 C4 B7 D8 — C4 is out of order.
    S2 (lowercase): b2 c3 a4 e5 d6 e7 — e7 arrives after D8.
    True results: (B3,b2)@3 (C4,c3)@4 (E5,e5)@5 (E5,e7)@7 (D8,d6)@8.
    """
    specs = [
        (0, 1, {"letter": "a"}),   # A1
        (1, 2, {"letter": "b"}),   # b2
        (0, 3, {"letter": "b"}),   # B3
        (1, 3, {"letter": "c"}),   # c3
        (1, 4, {"letter": "a"}),   # a4
        (0, 5, {"letter": "e"}),   # E5
        (1, 5, {"letter": "e"}),   # e5
        (0, 6, {"letter": "b"}),   # B6
        (0, 4, {"letter": "c"}),   # C4  (out of order in S1)
        (1, 6, {"letter": "d"}),   # d6
        (0, 7, {"letter": "b"}),   # B7
        (0, 8, {"letter": "d"}),   # D8
        (1, 7, {"letter": "e"}),   # e7  (arrives after D8)
    ]
    return from_tuple_specs(specs, num_streams=2, name="fig1")


def _run_pipeline(dataset, policy, initial_k=0):
    pipeline = QualityDrivenPipeline(
        PipelineConfig(
            window_sizes_ms=[2, 2],
            condition=_letter_condition(),
            gamma=0.9,
            period_ms=100,
            interval_ms=100,
            basic_window_ms=1,
            granularity_ms=1,
            policy=policy,
            initial_k_ms=initial_k,
        )
    )
    return replay(pipeline, dataset.arrivals())


def _labels(results):
    def label(r):
        a, b = r.components
        return (a["letter"].upper() + str(a.ts), b["letter"] + str(b.ts))

    return {(label(r), r.ts) for r in results}


FIG1_TRUE_RESULTS = {
    (("B3", "b2"), 3),
    (("C4", "c3"), 4),
    (("E5", "e5"), 5),
    (("E5", "e7"), 7),
    (("D8", "d6"), 8),
}


class TestFig1:
    def test_complete_disorder_handling_recovers_all_results(self):
        ds = _fig1_dataset()
        results = _run_pipeline(ds, FixedKPolicy(10), initial_k=10)
        assert _labels(results) == FIG1_TRUE_RESULTS

    def test_complete_handling_output_is_ordered(self):
        ds = _fig1_dataset()
        results = _run_pipeline(ds, FixedKPolicy(10), initial_k=10)
        timestamps = [r.ts for r in results]
        assert timestamps == sorted(timestamps)

    def test_no_handling_misses_c4_result(self):
        ds = _fig1_dataset()
        results = _run_pipeline(ds, NoKSlackPolicy())
        produced = _labels(results)
        assert (("C4", "c3"), 4) not in produced  # the figure's missed result
        assert produced < FIG1_TRUE_RESULTS  # strict subset: quality loss

    def test_no_handling_still_finds_punctual_results(self):
        ds = _fig1_dataset()
        results = _run_pipeline(ds, NoKSlackPolicy())
        assert (("B3", "b2"), 3) in _labels(results)


class TestFig5:
    """Selectivity under out-of-order arrivals (paper Fig. 5, Sec. IV-B)."""

    def _run_operator(self, arrival_specs):
        """Feed the join operator directly; return (results, sel numerator/denominator)."""
        records = []
        op = MSWJOperator(
            [3, 3],
            _letter_condition(),
            productivity_callback=lambda t, nx, non, ok: records.append(
                (nx, non, ok)
            ),
        )
        results = []
        for stream, ts, letter in arrival_specs:
            t = StreamTuple(ts=ts, values={"letter": letter}, stream=stream, seq=ts)
            results.extend(op.process(t))
        cross = sum(nx for nx, _, ok in records if ok)
        on = sum(non for _, non, ok in records if ok)
        return results, on, cross

    def test_in_order_selectivity_one_third(self):
        # Arrival (a): A1 b1 B2 b2 C3 b3 — selectivity 3/9 = 1/3.
        results, on, cross = self._run_operator(
            [
                (0, 1, "a"),
                (1, 1, "b"),
                (0, 2, "b"),
                (1, 2, "b"),
                (0, 3, "c"),
                (1, 3, "b"),
            ]
        )
        assert len(results) == 3
        assert on / cross == pytest.approx(1 / 3)

    def test_out_of_order_b2_loses_all_results(self):
        # Case (b): B2 reaches the join out of order → it never probes, and
        # the b-tuples that arrive later find no B2 in the window scope
        # probe-wise... B2 is inserted, so later b tuples still match it.
        results, on, cross = self._run_operator(
            [
                (0, 1, "a"),
                (1, 1, "b"),
                (1, 2, "b"),
                (0, 3, "c"),
                (0, 2, "b"),  # out of order: skipped probe, inserted
                (1, 3, "b"),  # still joins with the inserted B2
            ]
        )
        # (B2,b1) and (B2,b2) are lost; (B2,b3) survives via insertion.
        assert len(results) == 1
        assert on / cross < 1 / 3

    def test_selectivity_differs_from_ideal_under_disorder(self):
        # The point of Fig. 5: sel(K) != sel in general.  Compare the two
        # runs' observed selectivities.
        __, on_a, cross_a = self._run_operator(
            [
                (0, 1, "a"),
                (1, 1, "b"),
                (0, 2, "b"),
                (1, 2, "b"),
                (0, 3, "c"),
                (1, 3, "b"),
            ]
        )
        __, on_b, cross_b = self._run_operator(
            [
                (0, 1, "a"),
                (1, 1, "b"),
                (1, 2, "b"),
                (0, 3, "c"),
                (0, 2, "b"),
                (1, 3, "b"),
            ]
        )
        assert on_a / cross_a != on_b / cross_b
