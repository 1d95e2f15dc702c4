"""Unit tests for the join condition algebra (repro.join.conditions)."""

import itertools

import pytest

from repro import (
    BandPredicate,
    EquiPredicate,
    JoinCondition,
    MSWJOperator,
    Predicate,
    StreamTuple,
    ThetaPredicate,
    equi_join_chain,
    star_equi_join,
)
from repro.distributed.tree import TreeJoinOperator


def _t(stream, **values):
    return StreamTuple(ts=0, values=values, stream=stream)


class TestEquiPredicate:
    def test_evaluate_match(self):
        p = EquiPredicate(0, "a", 1, "b")
        assert p.evaluate({0: _t(0, a=5), 1: _t(1, b=5)})

    def test_evaluate_mismatch(self):
        p = EquiPredicate(0, "a", 1, "b")
        assert not p.evaluate({0: _t(0, a=5), 1: _t(1, b=6)})

    def test_streams_property(self):
        assert EquiPredicate(0, "a", 2, "a").streams == frozenset({0, 2})

    def test_side_for_both_directions(self):
        p = EquiPredicate(0, "a", 1, "b")
        assert p.side_for(0) == ("a", 1, "b")
        assert p.side_for(1) == ("b", 0, "a")

    def test_side_for_unreferenced_stream(self):
        with pytest.raises(ValueError):
            EquiPredicate(0, "a", 1, "b").side_for(2)

    def test_same_stream_rejected(self):
        with pytest.raises(ValueError):
            EquiPredicate(0, "a", 0, "b")


class TestBandPredicate:
    def test_within_band(self):
        p = BandPredicate(0, "x", 1, "x", band=2.0)
        assert p.evaluate({0: _t(0, x=10), 1: _t(1, x=12)})

    def test_outside_band(self):
        p = BandPredicate(0, "x", 1, "x", band=2.0)
        assert not p.evaluate({0: _t(0, x=10), 1: _t(1, x=13)})

    def test_band_is_inclusive(self):
        p = BandPredicate(0, "x", 1, "x", band=3)
        assert p.evaluate({0: _t(0, x=0), 1: _t(1, x=3)})

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            BandPredicate(0, "x", 1, "x", band=-1)


class TestThetaPredicate:
    def test_arbitrary_function(self):
        p = ThetaPredicate((0, 1), lambda a, b: a["x"] * b["x"] > 10)
        assert p.evaluate({0: _t(0, x=3), 1: _t(1, x=4)})
        assert not p.evaluate({0: _t(0, x=1), 1: _t(1, x=4)})

    def test_argument_order_matches_streams(self):
        p = ThetaPredicate((1, 0), lambda b, a: b["x"] - a["x"] == 1)
        assert p.evaluate({0: _t(0, x=1), 1: _t(1, x=2)})

    def test_duplicate_streams_rejected(self):
        with pytest.raises(ValueError):
            ThetaPredicate((0, 0), lambda a, b: True)

    def test_empty_streams_rejected(self):
        with pytest.raises(ValueError):
            ThetaPredicate((), lambda: True)


class TestJoinCondition:
    def test_cross_join(self):
        c = JoinCondition()
        assert c.is_cross_join
        assert c.evaluate({})

    def test_conjunction_requires_all(self):
        c = JoinCondition(
            [EquiPredicate(0, "a", 1, "a"), EquiPredicate(1, "b", 2, "b")]
        )
        bound = {0: _t(0, a=1), 1: _t(1, a=1, b=2), 2: _t(2, b=2)}
        assert c.evaluate(bound)
        bound[2] = _t(2, b=99)
        assert not c.evaluate(bound)

    def test_referenced_streams(self):
        c = JoinCondition([EquiPredicate(0, "a", 2, "a")])
        assert c.referenced_streams() == frozenset({0, 2})

    def test_indexed_attributes_deduplicated(self):
        c = JoinCondition(
            [EquiPredicate(0, "a", 1, "a"), EquiPredicate(0, "a", 2, "a")]
        )
        assert c.indexed_attributes(0) == ["a"]
        assert c.indexed_attributes(1) == ["a"]

    def test_theta_predicates_not_indexed(self):
        c = JoinCondition([ThetaPredicate((0, 1), lambda a, b: True)])
        assert c.indexed_attributes(0) == []

    def test_equi_lookups_only_for_bound_streams(self):
        c = JoinCondition(
            [EquiPredicate(0, "a", 1, "a"), EquiPredicate(1, "b", 2, "b")]
        )
        assert c.equi_lookups(1, frozenset({0})) == [("a", 0, "a")]
        assert c.equi_lookups(1, frozenset({0, 2})) == [
            ("a", 0, "a"),
            ("b", 2, "b"),
        ]
        assert c.equi_lookups(1, frozenset()) == []

    def test_predicates_closed_by(self):
        p01 = EquiPredicate(0, "a", 1, "a")
        p12 = EquiPredicate(1, "b", 2, "b")
        c = JoinCondition([p01, p12])
        # Binding stream 1 with only 0 bound closes p01 but not p12.
        assert c.predicates_closed_by(1, frozenset({0})) == [p01]
        # Binding stream 2 afterwards closes p12.
        assert c.predicates_closed_by(2, frozenset({0, 1})) == [p12]

    def test_predicates_closed_by_excludes_already_closed(self):
        p01 = EquiPredicate(0, "a", 1, "a")
        c = JoinCondition([p01])
        # Binding stream 2 does not re-close p01.
        assert c.predicates_closed_by(2, frozenset({0, 1})) == []


class _Above(Predicate):
    """``S0.x > S1.x`` with only ``evaluate``: the base-class ``select``."""

    streams = frozenset((0, 1))

    def __init__(self, streams=(0, 1)):
        self.streams = frozenset(streams)

    def evaluate(self, bound):
        return (bound[0].get("x") or 0) > (bound[1].get("x") or 0)


class TestSelect:
    """``select`` keeps exactly the candidates ``evaluate`` accepts, in
    order, whichever side of the predicate the candidate stream is."""

    VALUES = [{}, {"x": None}, {"x": 0}, {"x": 1}, {"x": 1.0}, {"x": 2}, {"x": 5}]

    @pytest.mark.parametrize(
        "predicate",
        [
            EquiPredicate(0, "x", 1, "x"),
            BandPredicate(0, "x", 1, "x", 1),
            ThetaPredicate((1, 0), lambda b, a: (a.get("x") or 0) < (b.get("x") or 0) + 2),
            _Above(),
        ],
        ids=["equi", "band", "theta-reversed", "custom"],
    )
    @pytest.mark.parametrize("stream", [0, 1])
    def test_select_keeps_what_evaluate_accepts(self, predicate, stream):
        other = 1 - stream
        candidates = [_t(stream, **values) for values in self.VALUES]
        for values in self.VALUES:
            bound = {other: _t(other, **values)}
            expected = [
                c for c in candidates if predicate.evaluate({**bound, stream: c})
            ]
            assert list(predicate.select(stream, bound, iter(candidates))) == expected
            assert bound == {other: bound[other]}  # left as it was

    def test_select_pulls_one_candidate_at_a_time(self):
        calls = []
        theta = ThetaPredicate((0, 1), lambda a, b: calls.append(a["x"]) or a["x"] > 1)
        candidates = (_t(0, x=x) for x in itertools.count())  # endless
        survivors = theta.select(0, {1: _t(1)}, candidates)
        assert calls == []  # nothing is tested before it is asked for
        assert next(survivors)["x"] == 2
        assert calls == [0, 1, 2]


class TestSingleStreamPredicates:
    """A predicate on one stream alone would be skipped by the MSWJ probe
    whenever that stream triggers (no depth binds the trigger) and by the
    tree join (a leaf covers it), so a condition refuses it; filtering the
    stream before the join is order-independent everywhere."""

    @pytest.mark.parametrize(
        "predicate",
        [ThetaPredicate((0,), lambda a: a["v"] > 5), _Above(streams=(0,))],
        ids=["theta", "custom"],
    )
    def test_condition_rejects_a_single_stream_predicate(self, predicate):
        with pytest.raises(ValueError, match="filter the stream before the join"):
            JoinCondition([EquiPredicate(0, "a", 1, "a"), predicate])

    @pytest.mark.parametrize("v", [1, 7])
    def test_filtered_input_joins_alike_in_every_arrival_order(self, v):
        def passes(t):
            return t.stream != 0 or t["v"] > 5

        counts = []
        for first in (0, 1):  # which stream's tuple arrives first
            arrivals = [
                StreamTuple(10 + rank, {"v": v}, stream=stream, seq=0)
                for rank, stream in enumerate((first, 1 - first))
            ]
            arrivals = [t for t in arrivals if passes(t)]
            for collect in (True, False):
                op = MSWJOperator([1_000, 1_000], JoinCondition(), collect_results=collect)
                outputs = [op.process(t) for t in arrivals]
                counts.append(sum(len(o) if collect else o for o in outputs))
            tree = TreeJoinOperator([1_000, 1_000], JoinCondition())
            produced = [r for t in arrivals for r in tree.process(t)] + tree.flush()
            counts.append(len(produced))
        assert counts == [1 if v > 5 else 0] * 6


class TestConditionFactories:
    def test_equi_join_chain_shape(self):
        c = equi_join_chain("a1", 3)
        assert len(c.predicates) == 2
        assert c.referenced_streams() == frozenset({0, 1, 2})

    def test_chain_semantics_transitive_match(self):
        c = equi_join_chain("a1", 3)
        bound = {i: _t(i, a1=7) for i in range(3)}
        assert c.evaluate(bound)
        bound[2] = _t(2, a1=8)
        assert not c.evaluate(bound)

    def test_star_equi_join_shape(self):
        c = star_equi_join(0, {1: "a1", 2: "a2", 3: "a3"})
        assert len(c.predicates) == 3
        assert c.indexed_attributes(0) == ["a1", "a2", "a3"]
        assert c.indexed_attributes(2) == ["a2"]

    def test_star_semantics(self):
        c = star_equi_join(0, {1: "a1", 2: "a2"})
        bound = {
            0: _t(0, a1=1, a2=2),
            1: _t(1, a1=1),
            2: _t(2, a2=2),
        }
        assert c.evaluate(bound)
        bound[1] = _t(1, a1=9)
        assert not c.evaluate(bound)
