"""Property-based tests (hypothesis) on the core invariants.

Covered invariants:

* K-slack conservation and ordering guarantees;
* the Synchronizer's merge/ordering guarantees;
* Theorem 1 (Same-K policy): per-stream buffer configurations are
  equivalent to one shared buffer size;
* MSWJ correctness against the brute-force reference on arbitrary inputs;
* produced ⊆ true under any disorder-handling configuration;
* model invariants (monotonicity, normalization) on arbitrary pdfs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CumulativePdf,
    EquiPredicate,
    FixedKPolicy,
    JoinCondition,
    KSlackBuffer,
    MSWJOperator,
    NexmarkConfig,
    PipelineConfig,
    ProfileSnapshot,
    QualityDrivenPipeline,
    RecallModel,
    StreamModelInput,
    StreamTuple,
    Synchronizer,
    auction_bid_query,
    compute_truth,
    make_auction_bids,
    run_partitioned,
)
from repro.streams.source import Dataset

from .reference import reference_join, result_key_set
from .test_model import bounded_scan_cost, brute_gamma, plain_scan

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

timestamps = st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=60)
small_k = st.integers(min_value=0, max_value=100)


def _stream(ts_list, stream=0):
    return [
        StreamTuple(ts=ts, stream=stream, seq=seq, arrival=seq)
        for seq, ts in enumerate(ts_list)
    ]


@st.composite
def random_dataset(draw, num_streams=2, max_tuples=40, domain=3, span=200):
    count = draw(st.integers(min_value=num_streams, max_value=max_tuples))
    tuples = []
    seqs = [0] * num_streams
    for position in range(count):
        stream = draw(st.integers(min_value=0, max_value=num_streams - 1))
        t = StreamTuple(
            ts=draw(st.integers(min_value=0, max_value=span)),
            values={"v": draw(st.integers(min_value=0, max_value=domain - 1))},
            stream=stream,
            seq=seqs[stream],
            arrival=position,
        )
        seqs[stream] += 1
        tuples.append(t)
    return Dataset(tuples, num_streams=num_streams)


# ----------------------------------------------------------------------
# K-slack properties
# ----------------------------------------------------------------------

class TestKSlackProperties:
    @given(timestamps, small_k)
    @settings(max_examples=200)
    def test_conservation(self, ts_list, k):
        buffer = KSlackBuffer(k)
        out = []
        for t in _stream(ts_list):
            out.extend(buffer.process(t))
        out.extend(buffer.flush())
        assert sorted(x.ts for x in out) == sorted(ts_list)
        assert len(out) == len(ts_list)

    @given(timestamps)
    @settings(max_examples=200)
    def test_k_at_least_max_delay_sorts_fully(self, ts_list):
        local = 0
        max_delay = 0
        for ts in ts_list:
            local = max(local, ts)
            max_delay = max(max_delay, local - ts)
        buffer = KSlackBuffer(max_delay)
        out = []
        for t in _stream(ts_list):
            out.extend(buffer.process(t))
        out.extend(buffer.flush())
        released = [x.ts for x in out]
        assert released == sorted(released)

    @given(timestamps, small_k)
    @settings(max_examples=200)
    def test_residual_delay_bounded(self, ts_list, k):
        """Any tuple's disorder in the output is reduced by at least K."""
        buffer = KSlackBuffer(k)
        out = []
        for t in _stream(ts_list):
            out.extend(buffer.process(t))
        out.extend(buffer.flush())
        # Residual delay in the output stream: max over running high-water.
        high = 0
        for t in out:
            residual = high - t.ts
            if residual > 0:
                assert residual <= max(0, t.delay - k)
            high = max(high, t.ts)

    @given(timestamps, small_k, small_k)
    @settings(max_examples=100)
    def test_release_prefix_independent_of_later_shrink(self, ts_list, k1, k2):
        """Shrinking K mid-stream releases exactly the newly eligible set."""
        big, small = max(k1, k2), min(k1, k2)
        buffer = KSlackBuffer(big)
        for t in _stream(ts_list):
            buffer.process(t)
        released = buffer.set_k(small)
        bound = buffer.local_time - small
        assert all(t.ts + small <= buffer.local_time for t in released)
        assert all(entry[0] > bound for entry in buffer._heap)


# ----------------------------------------------------------------------
# Synchronizer properties
# ----------------------------------------------------------------------

class TestSynchronizerProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 200)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=200)
    def test_conservation(self, specs):
        sync = Synchronizer(2)
        seen = []
        for seq, (stream, ts) in enumerate(specs):
            seen.extend(sync.process(StreamTuple(ts=ts, stream=stream, seq=seq)))
        seen.extend(sync.flush())
        assert len(seen) == len(specs)
        assert sorted(t.ts for t in seen) == sorted(ts for _, ts in specs)

    @given(timestamps, timestamps)
    @settings(max_examples=200)
    def test_sorted_inputs_merge_sorted(self, ts_a, ts_b):
        sync = Synchronizer(2)
        a = sorted(ts_a)
        b = sorted(ts_b)
        out = []
        # Interleave arrivals round-robin (each stream internally sorted).
        streams = [list(reversed(a)), list(reversed(b))]
        seq = 0
        while streams[0] or streams[1]:
            for index in (0, 1):
                if streams[index]:
                    ts = streams[index].pop()
                    out.extend(
                        sync.process(StreamTuple(ts=ts, stream=index, seq=seq))
                    )
                    seq += 1
        out.extend(sync.flush())
        released = [t.ts for t in out]
        assert released == sorted(released)


# ----------------------------------------------------------------------
# Theorem 1: the Same-K policy
# ----------------------------------------------------------------------
#
# The theorem's equivalence argument assumes the synchronizer absorbs the
# leading streams' residual disorder in its buffer.  That is exact when
# every stream's residual (post-K-slack) delay stays below its timestamp
# lead over the slowest stream, so no tuple takes Alg. 1's immediate-
# forwarding straggler path; we generate in that regime (leads >= 70 ms,
# jitter <= 20 ms, K <= 30 ms) and require *exact* join-output equality.
# (Outside the regime the equivalence is approximate.)

def _skewed_streams(num_streams, offsets, jitter_pattern, steps, step_ms=10):
    """Lock-step streams with constant offsets and periodic disorder."""
    streams = []
    for i in range(num_streams):
        tuples = []
        for n in range(steps):
            arrival = (n + 1) * step_ms
            jitter = jitter_pattern[n % len(jitter_pattern)]
            ts = max(0, arrival - offsets[i] - jitter)
            tuples.append(
                StreamTuple(
                    ts=ts, stream=i, seq=n, arrival=arrival, values={"v": n % 3}
                )
            )
        streams.append(tuples)
    merged = []
    for n in range(steps):
        for i in range(num_streams):
            merged.append(streams[i][n])
    return merged


def _join_output(merged, num_streams, k_values, windows):
    """Full front end (K-slack per stream + Synchronizer) into an MSWJ."""
    buffers = [KSlackBuffer(k) for k in k_values]
    sync = Synchronizer(num_streams)
    condition = JoinCondition(
        [EquiPredicate(i, "v", i + 1, "v") for i in range(num_streams - 1)]
    )
    op = MSWJOperator(windows, condition)
    out = []

    def feed(released):
        for e in released:
            for emitted in sync.process(e):
                out.extend(op.process(emitted))

    for t in merged:
        clone = StreamTuple(
            ts=t.ts, stream=t.stream, seq=t.seq, arrival=t.arrival, values=t.values
        )
        feed(buffers[t.stream].process(clone))
    for i, buffer in enumerate(buffers):
        feed(buffer.flush())
        for emitted in sync.close_stream(i):
            out.extend(op.process(emitted))
    for emitted in sync.flush():
        out.extend(op.process(emitted))
    return result_key_set(out)


class TestSameKTheorem:
    @given(st.integers(0, 1_000_000))
    @settings(max_examples=60, deadline=None)
    def test_per_stream_config_equivalent_to_same_k(self, seed):
        rng = random.Random(seed)
        num_streams = rng.choice([2, 3, 4])
        # Stream 0 is the slowest by a wide margin (lead >= 70 ms).
        offsets = [100] + [rng.randrange(0, 4) * 10 for _ in range(num_streams - 1)]
        jitter_pattern = [0] + [rng.randrange(0, 3) * 10 for _ in range(3)]
        k_values = [rng.randrange(0, 4) * 10 for _ in range(num_streams)]
        merged = _skewed_streams(num_streams, offsets, jitter_pattern, steps=50)

        local = {}
        for t in merged:
            local[t.stream] = max(local.get(t.stream, 0), t.ts)
        i_t = [local[i] for i in range(num_streams)]
        same_k = min(i_t) - min(i_t[i] - k_values[i] for i in range(num_streams))

        windows = [100] * num_streams
        per_stream = _join_output(merged, num_streams, k_values, windows)
        shared = _join_output(merged, num_streams, [same_k] * num_streams, windows)
        assert per_stream == shared


# ----------------------------------------------------------------------
# MSWJ against the reference, and produced ⊆ true
# ----------------------------------------------------------------------

class TestJoinProperties:
    @given(random_dataset())
    @settings(max_examples=60, deadline=None)
    def test_sorted_replay_matches_reference(self, ds):
        windows = [100, 100]
        condition = JoinCondition([EquiPredicate(0, "v", 1, "v")])
        op = MSWJOperator(windows, condition)
        produced = []
        for t in ds.sorted_by_timestamp():
            produced.extend(op.process(t))
        expected = reference_join(ds, windows, condition)
        assert result_key_set(produced) == result_key_set(expected)

    @given(random_dataset(), st.integers(0, 150))
    @settings(max_examples=60, deadline=None)
    def test_produced_is_subset_of_truth(self, ds, k):
        """Under any (incomplete) disorder handling, produced ⊆ true."""
        windows = [100, 100]
        condition = JoinCondition([EquiPredicate(0, "v", 1, "v")])
        truth = compute_truth(ds, windows, condition, keep_keys=True)

        buffers = [KSlackBuffer(k) for _ in range(2)]
        sync = Synchronizer(2)
        op = MSWJOperator(windows, condition)
        produced = []
        for t in ds.arrivals():
            for released in buffers[t.stream].process(t):
                for emitted in sync.process(released):
                    produced.extend(op.process(emitted))
        for i, buffer in enumerate(buffers):
            for released in buffer.flush():
                for emitted in sync.process(released):
                    produced.extend(op.process(emitted))
            for emitted in sync.close_stream(i):
                produced.extend(op.process(emitted))
        for emitted in sync.flush():
            produced.extend(op.process(emitted))

        produced_keys = result_key_set(produced)
        assert produced_keys <= truth.keys
        assert len(produced) == len(produced_keys)  # no duplicates

    @given(random_dataset())
    @settings(max_examples=30, deadline=None)
    def test_large_k_recovers_all_results(self, ds):
        windows = [400, 400]
        condition = JoinCondition([EquiPredicate(0, "v", 1, "v")])
        truth = compute_truth(ds, windows, condition, keep_keys=True)
        k = max(300, ds.max_delay())

        buffers = [KSlackBuffer(k) for _ in range(2)]
        sync = Synchronizer(2)
        op = MSWJOperator(windows, condition)
        produced = []
        for t in ds.arrivals():
            for released in buffers[t.stream].process(t):
                for emitted in sync.process(released):
                    produced.extend(op.process(emitted))
        for i, buffer in enumerate(buffers):
            for released in buffer.flush():
                for emitted in sync.process(released):
                    produced.extend(op.process(emitted))
            for emitted in sync.close_stream(i):
                produced.extend(op.process(emitted))
        for emitted in sync.flush():
            produced.extend(op.process(emitted))
        assert result_key_set(produced) == truth.keys


# ----------------------------------------------------------------------
# NEXMark-style workload configs (repro.streams.nexmark)
# ----------------------------------------------------------------------
#
# The workload suite must uphold the engine's core guarantees on
# *arbitrary* configurations, not just the curated defaults: whatever
# the rates, phases, skews and disorder, (a) a disordered replay
# produces a subset of the true results, and (b) under lossless
# settings the partitioned engine's merged output is identical at any
# shard count.  Sizes are kept small (seconds of stream time, coarse
# gaps) so hypothesis can explore the config space.


@st.composite
def nexmark_configs(draw):
    return NexmarkConfig(
        num_bid_channels=draw(st.integers(min_value=1, max_value=2)),
        num_phases=draw(st.integers(min_value=1, max_value=4)),
        phase_duration_ms=draw(st.sampled_from([600, 1_000, 1_600])),
        seed=draw(st.integers(min_value=0, max_value=10_000)),
        auction_domain=draw(st.integers(min_value=2, max_value=8)),
        auction_gap_ms=draw(st.sampled_from([60, 90])),
        bid_gap_ms=draw(st.sampled_from([40, 70])),
        max_delay_ms=draw(st.sampled_from([0, 150, 400])),
    )


def _nexmark_setup(config):
    dataset = make_auction_bids(config)
    condition = auction_bid_query(config.num_bid_channels)
    windows = [400] * dataset.num_streams
    return dataset, condition, windows


class TestNexmarkWorkloadProperties:
    @given(nexmark_configs(), st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None)
    def test_produced_is_subset_of_truth(self, config, k):
        """Any disorder handling on any workload config: produced ⊆ true."""
        dataset, condition, windows = _nexmark_setup(config)
        truth = compute_truth(dataset, windows, condition, keep_keys=True)
        pipeline = QualityDrivenPipeline(
            PipelineConfig(
                window_sizes_ms=windows,
                condition=condition,
                policy=FixedKPolicy(k),
                initial_k_ms=k,
            )
        )
        produced = []
        for t in dataset.arrivals():
            produced.extend(pipeline.process(t))
        produced.extend(pipeline.flush())
        produced_keys = result_key_set(produced)
        assert produced_keys <= truth.keys
        assert len(produced) == len(produced_keys)  # no duplicates

    @given(nexmark_configs())
    @settings(max_examples=10, deadline=None)
    def test_shard_count_output_identity(self, config):
        """Lossless K: merged output identical at shards 1/2/3."""
        dataset, condition, windows = _nexmark_setup(config)
        k = dataset.max_delay()

        def lossless():
            return PipelineConfig(
                window_sizes_ms=windows,
                condition=condition,
                policy=FixedKPolicy(k),
                initial_k_ms=k,
            )

        def canonical(results):
            return sorted((r.ts, r.key()) for r in results)

        reference = None
        for shards in (1, 2, 3):
            outputs, _ = run_partitioned(
                dataset, lossless(), shards, chunk_size=64
            )
            if reference is None:
                reference = canonical(outputs)
            else:
                assert canonical(outputs) == reference


# ----------------------------------------------------------------------
# Output-side operators
# ----------------------------------------------------------------------

class TestResultSorterProperties:
    @given(timestamps, small_k)
    @settings(max_examples=150)
    def test_output_always_ordered_and_conserved(self, ts_list, k):
        from repro import JoinResult, ResultSorter

        sorter = ResultSorter(k)
        emitted = []
        for seq, ts in enumerate(ts_list):
            result = JoinResult(ts, (StreamTuple(ts=ts, stream=0, seq=seq),))
            emitted.extend(sorter.process(result))
        emitted.extend(sorter.flush())
        released = [r.ts for r in emitted]
        # In-order contract and conservation (emitted + discarded = input).
        assert released == sorted(released)
        assert len(emitted) + sorter.discarded == len(ts_list)

    @given(timestamps)
    @settings(max_examples=100)
    def test_large_k_discards_nothing(self, ts_list):
        from repro import JoinResult, ResultSorter

        span = max(ts_list) if ts_list else 0
        sorter = ResultSorter(span + 1)
        for seq, ts in enumerate(ts_list):
            sorter.process(JoinResult(ts, (StreamTuple(ts=ts, stream=0, seq=seq),)))
        sorter.flush()
        assert sorter.discarded == 0


class TestWatermarkProperties:
    @given(timestamps, small_k)
    @settings(max_examples=150)
    def test_conservation(self, ts_list, bound):
        from repro.core.watermarks import WatermarkFrontEnd

        front = WatermarkFrontEnd(num_streams=1, bound_ms=bound)
        out = []
        for seq, ts in enumerate(ts_list):
            out.extend(front.process(StreamTuple(ts=ts, stream=0, seq=seq)))
        out.extend(front.flush(0))
        assert sorted(t.ts for t in out) == sorted(ts_list)

    @given(timestamps)
    @settings(max_examples=100)
    def test_bound_at_max_delay_sorts_fully(self, ts_list):
        from repro.core.watermarks import WatermarkFrontEnd

        local = 0
        max_delay = 0
        for ts in ts_list:
            local = max(local, ts)
            max_delay = max(max_delay, local - ts)
        front = WatermarkFrontEnd(num_streams=1, bound_ms=max_delay)
        out = []
        for seq, ts in enumerate(ts_list):
            out.extend(front.process(StreamTuple(ts=ts, stream=0, seq=seq)))
        out.extend(front.flush(0))
        released = [t.ts for t in out]
        assert released == sorted(released)


# ----------------------------------------------------------------------
# Model properties
# ----------------------------------------------------------------------

pdf_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=30
).filter(lambda ws: sum(ws) > 0)


class TestModelProperties:
    @given(pdf_strategy)
    @settings(max_examples=100)
    def test_cdf_monotone_and_bounded(self, weights):
        total = sum(weights)
        pdf = [w / total for w in weights]
        c = CumulativePdf(pdf)
        values = [c.cdf(x) for x in range(-2, len(pdf) + 5)]
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in values)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    @given(pdf_strategy, pdf_strategy)
    @settings(max_examples=60)
    def test_gamma_monotone_in_k(self, weights_a, weights_b):
        def normalize(ws):
            total = sum(ws)
            return [w / total for w in ws]

        inputs = [
            StreamModelInput(normalize(weights_a), 0.0, 0.01, 500),
            StreamModelInput(normalize(weights_b), 0.0, 0.02, 700),
        ]
        model = RecallModel(inputs, basic_window_ms=10, granularity_ms=10)
        gammas = [model.gamma(k) for k in range(0, 400, 10)]
        assert all(a <= b + 1e-9 for a, b in zip(gammas, gammas[1:]))
        assert all(0.0 <= g <= 1.0 for g in gammas)


@st.composite
def scan_cases(draw):
    """A model on any of the three index paths, with K_sync slack and
    windows whose last basic window is partial, plus a search to run."""
    b, g = draw(st.sampled_from(
        [(10, 1), (10, 10), (30, 10), (10, 100), (10, 50), (15, 10), (30, 7)]
    ))
    inputs = []
    for _ in range(draw(st.integers(2, 4))):
        weights = draw(pdf_strategy)
        total = sum(weights)
        inputs.append(StreamModelInput(
            pdf=[w / total for w in weights],
            ksync_ms=draw(st.sampled_from([0.0, 7.0, 12.5, 57.0, 230.0])),
            rate_per_ms=draw(st.floats(0.005, 0.05)),
            window_ms=draw(st.integers(1, 1_500).filter(lambda w: w % b)),
        ))
    ratios = draw(st.lists(st.floats(0.0, 1.5), min_size=1, max_size=20))
    requirement = draw(st.floats(0.0, 1.1))
    max_k_ms = draw(st.integers(0, 35 * g))
    return inputs, b, g, ratios, requirement, max_k_ms


@st.composite
def per_point_scan_cases(draw):
    """:func:`scan_cases` with one learned ratio per grid point (``max_k_ms
    // g + 1`` of them), so the ratio changes under every ceiling."""
    inputs, b, g, _, requirement, max_k_ms = draw(scan_cases())
    points = max_k_ms // g + 1
    ratios = draw(st.lists(st.floats(0.0, 1.5), min_size=points, max_size=points))
    return inputs, b, g, ratios, requirement, max_k_ms


class TestScanProperties:
    @given(scan_cases())
    @settings(max_examples=150, deadline=None)
    def test_scan_is_the_first_sufficient_single_candidate(self, case):
        inputs, b, g, ratios, requirement, max_k_ms = case
        model = RecallModel(inputs, basic_window_ms=b, granularity_ms=g)
        # No K enters Eq. 1: it belongs to the step, not to a candidate.
        model.true_result_rate = None

        def sel_ratio_at(coarse_k):
            return ratios[min(coarse_k, len(ratios) - 1)]

        k_ms, steps = 0, 0
        while k_ms <= max_k_ms:
            steps += 1
            gamma = model.gamma(k_ms, sel_ratio_at(k_ms // g))
            assert gamma == pytest.approx(
                brute_gamma(inputs, k_ms, b, g, sel_ratio_at(k_ms // g)), rel=1e-9
            )
            if gamma >= requirement:
                break
            k_ms += g
        assert model.first_sufficient_k(requirement, sel_ratio_at, max_k_ms) == (
            k_ms, steps,
        )


class TestBoundedScanProperties:
    @given(scan_cases(), st.sampled_from(["one", "max", "two"]))
    @settings(max_examples=200, deadline=None)
    def test_the_skip_never_changes_the_scan(self, case, cap_kind):
        """Whatever the learned ratios do under their cap, starting the
        scan at the bound's crossing returns the ``(k*, steps)`` of the
        scan from zero."""
        inputs, b, g, ratios, requirement, max_k_ms = case
        cap = {"one": 1.0, "max": max(ratios), "two": 2.0}[cap_kind]
        ratios = [min(ratio, cap) for ratio in ratios]
        model = RecallModel(inputs, basic_window_ms=b, granularity_ms=g)

        def sel_ratio_at(coarse_k):
            return ratios[min(coarse_k, len(ratios) - 1)]

        expected = plain_scan(model, requirement, sel_ratio_at, max_k_ms)
        assert model.first_sufficient_k(requirement, sel_ratio_at, max_k_ms, cap) == expected
        assert model.last_evaluations <= expected[1] + (max_k_ms // g + 1).bit_length()

    @given(per_point_scan_cases(), st.sampled_from(["one", "max", "two"]))
    @settings(max_examples=200, deadline=None)
    def test_ceilings_keep_the_scan_and_never_outpay_it(self, case, cap_kind):
        """With a ratio of its own at every grid point, skipping the points
        a known rate rules out still returns the ``(k*, steps)`` of the scan
        from zero, for no more model evaluations than bisect-then-scan."""
        inputs, b, g, ratios, requirement, max_k_ms = case
        cap = {"one": 1.0, "max": max(ratios), "two": 2.0}[cap_kind]
        ratios = [min(ratio, cap) for ratio in ratios]
        model = RecallModel(inputs, basic_window_ms=b, granularity_ms=g)
        sel_ratio_at = ratios.__getitem__

        expected = plain_scan(model, requirement, sel_ratio_at, max_k_ms)
        assert model.first_sufficient_k(requirement, sel_ratio_at, max_k_ms, cap) == expected
        assert model.last_evaluations <= bounded_scan_cost(
            model, requirement, sel_ratio_at, max_k_ms, cap
        )


sparse_map = st.dictionaries(
    st.integers(0, 60), st.integers(0, 10**9).map(lambda n: n / 1024), max_size=25
)


class TestLazySnapshotProperties:
    @given(sparse_map, sparse_map, st.booleans())
    @settings(max_examples=150)
    def test_lazy_tables_equal_the_eager_loop(self, m_cross, m_on, totals_first):
        snapshot = ProfileSnapshot(m_cross, m_on)
        top = max(m_cross) if m_cross else 0
        cum_cross, cum_on = [], []
        acc_cross = acc_on = 0.0
        for d in range(top + 1):
            acc_cross += m_cross.get(d, 0.0)
            acc_on += m_on.get(d, 0.0)
            cum_cross.append(acc_cross)
            cum_on.append(acc_on)
        if totals_first:  # whichever accessor comes first builds the tables
            assert (snapshot.total_cross, snapshot.total_on) == (acc_cross, acc_on)
        assert snapshot.max_coarse_delay == top
        for k in range(-2, top + 3):
            at = min(k, top)
            cross_k = cum_cross[at] if k >= 0 else 0.0
            on_k = cum_on[at] if k >= 0 else 0.0
            assert snapshot.cumulative_cross(k) == cross_k
            assert snapshot.cumulative_on(k) == on_k
            if cross_k <= 0.0 or acc_on <= 0.0:
                assert snapshot.sel_ratio(k) == 1.0
            else:
                assert snapshot.sel_ratio(k) == (on_k / cross_k) * (acc_cross / acc_on)
        assert (snapshot.total_cross, snapshot.total_on) == (acc_cross, acc_on)
        assert snapshot.true_result_estimate() == acc_on

    def test_maps_are_not_read_until_eq6_or_a_total_needs_them(self):
        reads = []

        class Watched(dict):
            def items(self):
                reads.append("items")
                return super().items()

        snapshot = ProfileSnapshot(Watched({0: 4.0, 9: 1.0}), Watched({0: 2.0}), 7.5)
        assert snapshot.true_result_estimate() == 7.5
        assert snapshot.max_coarse_delay == 9
        assert reads == []
        assert snapshot.sel_ratio(0) == pytest.approx((2.0 / 4.0) * (5.0 / 2.0))
        assert reads == ["items", "items"]
        snapshot.cumulative_on(3)
        assert reads == ["items", "items"]


class TestOccupiedDelayProperties:
    @given(sparse_map, sparse_map)
    @settings(max_examples=150)
    def test_eq6_is_constant_between_breaks(self, m_cross, m_on):
        """Eq. 6 changes only at an occupied delay: on every ``[k, next
        break)`` it reads one value, the eager per-point ratio."""
        snapshot = ProfileSnapshot(m_cross, m_on)
        top = snapshot.max_coarse_delay
        breaks = snapshot.occupied_delays
        assert breaks == sorted(d for d in set(m_cross) | set(m_on) if d <= top)
        acc_cross = sum(m_cross.get(d, 0.0) for d in range(top + 1))
        acc_on = sum(m_on.get(d, 0.0) for d in range(top + 1))
        cross_k = on_k = 0.0
        for k in range(top + 3):
            if k <= top:  # the sums saturate at MaxDM
                cross_k += m_cross.get(k, 0.0)
                on_k += m_on.get(k, 0.0)
            if cross_k <= 0.0 or acc_on <= 0.0:
                eager = 1.0
            else:
                eager = (on_k / cross_k) * (acc_cross / acc_on)
            assert snapshot.sel_ratio(k) == eager
            if k not in breaks and k > 0:
                assert snapshot.sel_ratio(k) == snapshot.sel_ratio(k - 1)
