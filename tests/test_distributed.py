"""Tests for the tree-of-binary-joins execution (repro.distributed, paper Sec. V)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EquiPredicate,
    JoinCondition,
    MSWJOperator,
    StreamTuple,
    ThetaPredicate,
    equi_join_chain,
    star_equi_join,
)
from repro.distributed.tree import PartialResult, TreeJoinOperator
from repro.streams.source import Dataset

from .reference import reference_join, result_key_set


def _t(stream, ts, seq=None, **values):
    return StreamTuple(
        ts=ts, values=values, stream=stream, seq=ts if seq is None else seq
    )


def _random_dataset(num_streams, count, seed, domain=3, span=400):
    rng = random.Random(seed)
    tuples = []
    seqs = [0] * num_streams
    for position in range(count):
        stream = rng.randrange(num_streams)
        tuples.append(
            StreamTuple(
                ts=rng.randrange(span),
                values={"v": rng.randrange(domain)},
                stream=stream,
                seq=seqs[stream],
                arrival=position,
            )
        )
        seqs[stream] += 1
    return Dataset(tuples, num_streams=num_streams)


def _run_tree(dataset, windows, condition):
    tree = TreeJoinOperator(windows, condition)
    produced = []
    for t in dataset.sorted_by_timestamp():
        produced.extend(tree.process(t))
    produced.extend(tree.flush())
    return produced


class TestPartialResult:
    def test_timestamp_is_max_component(self):
        p = PartialResult({0: _t(0, 10), 1: _t(1, 30)})
        assert p.ts == 30

    def test_expiry_is_min_reach(self):
        p = PartialResult({0: _t(0, 10), 1: _t(1, 30)})
        # W = [100, 50]: expiry = min(10+100, 30+50) = 80.
        assert p.expiry([100, 50]) == 80

    def test_of_base_tuple_carries_delay(self):
        base = _t(0, 10)
        base.delay = 7
        p = PartialResult.of(base)
        assert p.delay == 7
        assert p.components == {0: base}


class TestTreeEquivalence:
    """On ordered input the tree must produce exactly the MJoin result set."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_way_equi(self, seed):
        ds = _random_dataset(2, 70, seed)
        windows = [150, 150]
        condition = JoinCondition([EquiPredicate(0, "v", 1, "v")])
        produced = _run_tree(ds, windows, condition)
        expected = reference_join(ds, windows, condition)
        assert result_key_set(produced) == result_key_set(expected)
        assert len(produced) == len(expected)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_three_way_chain(self, seed):
        ds = _random_dataset(3, 50, seed)
        windows = [120, 100, 140]
        condition = equi_join_chain("v", 3)
        produced = _run_tree(ds, windows, condition)
        expected = reference_join(ds, windows, condition)
        assert result_key_set(produced) == result_key_set(expected)

    def test_four_way_star(self):
        ds = _random_dataset(4, 40, seed=6, domain=2)
        windows = [100] * 4
        condition = star_equi_join(0, {1: "v", 2: "v", 3: "v"})
        produced = _run_tree(ds, windows, condition)
        expected = reference_join(ds, windows, condition)
        assert result_key_set(produced) == result_key_set(expected)

    def test_theta_condition(self):
        ds = _random_dataset(2, 50, seed=7, domain=10)
        windows = [120, 120]
        condition = JoinCondition(
            [ThetaPredicate((0, 1), lambda a, b: a["v"] + b["v"] >= 9)]
        )
        produced = _run_tree(ds, windows, condition)
        expected = reference_join(ds, windows, condition)
        assert result_key_set(produced) == result_key_set(expected)

    def test_matches_mjoin_operator_output(self):
        ds = _random_dataset(3, 60, seed=8)
        windows = [100, 100, 100]
        condition = equi_join_chain("v", 3)
        tree_results = _run_tree(ds, windows, condition)
        mjoin = MSWJOperator(windows, condition)
        mjoin_results = []
        for t in ds.sorted_by_timestamp():
            mjoin_results.extend(mjoin.process(t))
        assert result_key_set(tree_results) == result_key_set(mjoin_results)


class TestTreeLifecycle:
    """Regression tests for the end-of-stream surface (ISSUE 10 bugfixes)."""

    CONDITION = JoinCondition([EquiPredicate(0, "v", 1, "v")])

    def test_close_stream_releases_gated_partner(self):
        # A lone stream-0 tuple sits gated in node 0's synchronizer until
        # stream 1 produces or ends; closing stream 1 must release it
        # (and produce nothing, as no partner exists).
        tree = TreeJoinOperator([1_000, 1_000], self.CONDITION)
        tree.process(_t(0, 100, v=1))
        assert tree.nodes[0]._sync.buffered == 1
        released = tree.close_stream(1)
        assert released == []
        assert tree.nodes[0]._sync.buffered == 0

    def test_close_all_streams_equals_flush(self):
        ds = _random_dataset(3, 60, seed=11)
        windows = [120, 100, 140]
        condition = equi_join_chain("v", 3)
        flushed = _run_tree(ds, windows, condition)

        closed_tree = TreeJoinOperator(windows, condition)
        produced = []
        for t in ds.sorted_by_timestamp():
            produced.extend(closed_tree.process(t))
        for stream in range(3):
            produced.extend(closed_tree.close_stream(stream))
        assert result_key_set(produced) == result_key_set(flushed)
        assert len(produced) == len(flushed)
        # The closure cascaded down the left-deep chain: every node is
        # exhausted and its synchronizer holds no composite.
        for node in closed_tree.nodes:
            assert node.exhausted
            assert node._sync.buffered == 0

    def test_close_matches_pipeline_close_semantics(self):
        # Differential against MSWJOperator: per-stream closure releases
        # gated tuples but never invents results the m-way join would not
        # produce — the final set equals the reference regardless of the
        # order streams end in.
        ds = _random_dataset(3, 50, seed=12)
        windows = [110, 110, 110]
        condition = equi_join_chain("v", 3)
        expected = reference_join(ds, windows, condition)
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2]):
            tree = TreeJoinOperator(windows, condition)
            produced = []
            for t in ds.sorted_by_timestamp():
                produced.extend(tree.process(t))
            for stream in order:
                produced.extend(tree.close_stream(stream))
            assert result_key_set(produced) == result_key_set(expected)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), num_streams=st.integers(2, 4), seed=st.integers(0, 10**6))
    def test_mid_stream_closes_match_reference_over_fed_tuples(
        self, data, num_streams, seed
    ):
        # Streams end at random points of the sorted feed; a closed
        # stream's later tuples are never fed.  The results (closures
        # included) must be exactly the join of what *was* fed.
        windows = data.draw(
            st.lists(st.integers(50, 400), min_size=num_streams, max_size=num_streams)
        )
        dataset = _random_dataset(num_streams, 9 * num_streams, seed)
        arrivals = dataset.sorted_by_timestamp()
        close_at = data.draw(
            st.lists(
                st.integers(0, len(arrivals)),
                min_size=num_streams,
                max_size=num_streams,
            )
        )
        condition = equi_join_chain("v", num_streams)
        tree = TreeJoinOperator(windows, condition)
        produced, fed = [], []
        for position, t in enumerate(arrivals):
            for stream, at in enumerate(close_at):
                if at == position:
                    produced.extend(tree.close_stream(stream))
            if position < close_at[t.stream]:
                produced.extend(tree.process(t))
                fed.append(t)
        produced.extend(tree.flush())
        fed.sort(key=lambda t: t.arrival)
        expected = reference_join(Dataset(fed, num_streams), windows, condition)
        assert result_key_set(produced) == result_key_set(expected)
        assert len(produced) == len(expected)

    def test_close_stream_is_idempotent_and_rejects_feed(self):
        tree = TreeJoinOperator([1_000, 1_000], self.CONDITION)
        tree.process(_t(0, 100, v=1))
        tree.close_stream(0)
        assert tree.close_stream(0) == []
        with pytest.raises(ValueError):
            tree.process(_t(0, 200, v=1, seq=1))
        with pytest.raises(ValueError):
            tree.close_stream(9)

    def test_result_buffer_trimmed_on_drain(self):
        # Soak-style bounded-residency check: in collect mode the drained
        # prefix must leave the operator, not accumulate for the stream's
        # lifetime (pre-fix `_drain` sliced but never trimmed).
        tree = TreeJoinOperator([50, 50], self.CONDITION)
        total = 0
        for i in range(300):
            total += len(tree.process(_t(0, i * 10, seq=i, v=1)))
            total += len(tree.process(_t(1, i * 10 + 1, seq=i, v=1)))
            assert len(tree._results) == 0, "drained results left resident"
        total += len(tree.flush())
        assert total == tree.results_produced > 0

    def test_expiry_cached_after_first_call(self):
        p = PartialResult({0: _t(0, 10), 1: _t(1, 30)})
        windows = [100, 50]
        assert p._expiry is None
        assert p.expiry(windows) == 80
        assert p._expiry == 80
        # Mutating the windows afterwards must not change the cached value
        # (window sizes are fixed per operator for a composite's lifetime).
        windows[1] = 9_999
        assert p.expiry(windows) == 80


class TestTreeDisorderBehaviour:
    def test_out_of_order_base_tuple_insert_only(self):
        windows = [1_000, 1_000]
        tree = TreeJoinOperator(windows, JoinCondition([EquiPredicate(0, "v", 1, "v")]))
        tree.process(_t(0, 100, v=1))
        tree.process(_t(1, 100, v=1))
        tree.flush()
        assert tree.results_produced == 1

    def test_count_only_mode(self):
        tree = TreeJoinOperator(
            [1_000, 1_000],
            JoinCondition([EquiPredicate(0, "v", 1, "v")]),
            collect_results=False,
        )
        total = tree.process(_t(0, 100, v=1))
        total += tree.process(_t(1, 150, v=1))
        total += tree.flush()
        assert total == 1

    def test_needs_two_streams(self):
        with pytest.raises(ValueError):
            TreeJoinOperator([100], JoinCondition())

    def test_bad_stream_rejected(self):
        tree = TreeJoinOperator([100, 100], JoinCondition())
        with pytest.raises(ValueError):
            tree.process(_t(5, 10))

    def test_delay_annotation_propagates(self):
        captured = []
        tree = TreeJoinOperator([1_000, 1_000], JoinCondition())
        original_sink = tree._root_sink

        def capture(item):
            captured.append(item.delay)
            original_sink(item)

        tree.nodes[-1]._output = capture
        first = _t(0, 100)
        first.delay = 0
        late = _t(1, 150)
        late.delay = 42
        tree.process(first)
        tree.process(late)
        tree.flush()
        assert captured == [42]
