"""WindowStore contract tests: TieredStore ≡ InMemoryStore.

The store abstraction's whole promise is that the choice of state
representation changes the memory shape of the join, never its output.
These tests pin that promise at three levels:

* **operation equivalence** (hypothesis) — arbitrary interleavings of
  insert / expire / extract_state / adopt_frozen leave both stores with
  the same observable surface (length, tuple order, lookups, counts);
* **an independent oracle** (hypothesis) — the two stores share their
  hot tier, so the same interleavings also run against a plain-list
  model of the contract, for each store on its own;
* **migration round-trips** (hypothesis) — ``extract_state`` at random
  cut points, shipped through ``encode_state``/``decode_state`` and a
  real pickle, adopts into either store kind with identical content
  (including the column fast path that moves cold segments without
  decoding);
* **pipeline byte-identity** — full pipelines over the tiered store
  produce the exact result sequence and ``JoinStatistics`` of the
  in-memory store, across serial/process executors, shard counts, and
  live rebalancing.

Plus unit coverage for the tiered mechanics the equivalence tests rely
on: compaction/freeze accounting, bucket-granular expiry, the decode
cache, summary-based probe skipping, and per-store metrics surfaced
through ``PipelineMetrics``.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    EquiPredicate,
    InMemoryStore,
    JoinCondition,
    PartitionedPipeline,
    PipelineConfig,
    PipelineMetrics,
    QualityDrivenPipeline,
    StreamTuple,
    TieredStore,
    TieredStoreConfig,
    make_store,
    replay,
    seconds,
)
from repro.core.blocks import (
    ColdSegment,
    decode_state,
    encode_state,
    freeze_segment,
    segment_column,
    thaw_segment,
)
from repro.workloads import fixed_k_config

ATTRS = ("v",)
DOMAIN = 5

SMALL_TIERED = TieredStoreConfig(hot_budget=8, bucket_span_ms=50, cache_tuples=16)


def make_tuple(ts, value, seq, stream=0):
    return StreamTuple(
        ts=ts, values={"v": value}, stream=stream, seq=seq, arrival=seq
    )


def store_pair(tiered_config=SMALL_TIERED):
    return InMemoryStore(ATTRS), TieredStore(ATTRS, tiered_config)


def observe(store):
    """The full observable surface of one store, as plain data."""
    return {
        "len": len(store),
        "tuples": list(store.tuples()),
        "lookups": {
            value: list(store.lookup("v", value)) for value in range(DOMAIN)
        },
        "counts": {value: store.count("v", value) for value in range(DOMAIN)},
    }


def flatten(items):
    """Extracted state items as plain tuples (cold segments decoded)."""
    out = []
    for item in items:
        if isinstance(item, ColdSegment):
            out.extend(thaw_segment(item))
        else:
            out.append(item)
    return out


class ListModel:
    """The window-state contract spelled as a plain list in insertion
    order — shares no code with either store."""

    def __init__(self):
        self.rows = []

    def insert(self, t):
        self.rows.append(t)

    def expire_before(self, bound_ts):
        before = len(self.rows)
        self.rows = [t for t in self.rows if t.ts >= bound_ts]
        return before - len(self.rows)

    def extract_state(self, classify):
        groups, kept = {}, []
        for t in self.rows:
            group = classify(t)
            if group is None:
                kept.append(t)
            else:
                groups.setdefault(group, []).append(t)
        self.rows = kept
        return groups

    def adopt_frozen(self, segment):
        self.rows.extend(thaw_segment(segment))

    def lookup(self, attr, value):
        return [t for t in self.rows if t.get(attr) == value]


def assert_equivalent(memory, tiered):
    seen = observe(tiered)
    assert observe(memory) == seen
    assert seen["counts"] == {v: len(found) for v, found in seen["lookups"].items()}


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def op_sequences(draw, max_ops=60):
    """Arbitrary interleavings of the four state-changing operations."""
    count = draw(st.integers(min_value=1, max_value=max_ops))
    ops = []
    seq = 0
    for _ in range(count):
        kind = draw(
            st.sampled_from(
                ["insert", "insert", "insert", "expire", "extract", "adopt"]
            )
        )
        if kind == "insert":
            ops.append(
                (
                    "insert",
                    draw(st.integers(min_value=0, max_value=400)),
                    draw(st.integers(min_value=0, max_value=DOMAIN - 1)),
                    seq,
                )
            )
            seq += 1
        elif kind == "expire":
            ops.append(("expire", draw(st.integers(min_value=0, max_value=450))))
        elif kind == "extract":
            ops.append(
                ("extract", draw(st.integers(min_value=0, max_value=DOMAIN - 1)))
            )
        else:
            size = draw(st.integers(min_value=1, max_value=5))
            batch = []
            base = draw(st.integers(min_value=0, max_value=350))
            for _ in range(size):
                batch.append(
                    (
                        base + draw(st.integers(min_value=0, max_value=40)),
                        draw(st.integers(min_value=0, max_value=DOMAIN - 1)),
                        seq,
                    )
                )
                seq += 1
            ops.append(("adopt", batch))
    return ops


def apply_op(store, op):
    """Apply one op; return the comparable outcome."""
    if op[0] == "insert":
        store.insert(make_tuple(op[1], op[2], op[3]))
        return None
    if op[0] == "expire":
        return store.expire_before(op[1])
    if op[0] == "extract":
        target = op[1]
        groups = store.extract_state(
            lambda t: "moved" if t.get("v") == target else None
        )
        return flatten(groups.get("moved", []))
    batch = [make_tuple(ts, value, seq) for ts, value, seq in op[1]]
    slots = list(range(len(batch)))
    store.adopt_frozen(freeze_segment(batch, slots, ATTRS))
    return None


# ---------------------------------------------------------------------------
# hypothesis: operation equivalence
# ---------------------------------------------------------------------------


class TestOperationEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=op_sequences())
    def test_arbitrary_op_interleavings_match_in_memory(self, ops):
        memory, tiered = store_pair()
        for op in ops:
            assert apply_op(memory, op) == apply_op(tiered, op)
            assert_equivalent(memory, tiered)

    @settings(max_examples=30, deadline=None)
    @given(
        ops=op_sequences(),
        budget=st.integers(min_value=1, max_value=32),
        span=st.integers(min_value=10, max_value=200),
        cache=st.integers(min_value=1, max_value=64),
    )
    def test_equivalence_is_config_independent(self, ops, budget, span, cache):
        """Any tier geometry — tiny budgets, tiny caches, odd spans —
        yields the same observable behavior."""
        memory, tiered = store_pair(
            TieredStoreConfig(
                hot_budget=budget, bucket_span_ms=span, cache_tuples=cache
            )
        )
        for op in ops:
            assert apply_op(memory, op) == apply_op(tiered, op)
        assert_equivalent(memory, tiered)

    @settings(max_examples=30, deadline=None)
    @given(ops=op_sequences())
    def test_eviction_counts_and_metrics_track_content(self, ops):
        memory, tiered = store_pair()
        evicted = 0
        for op in ops:
            left = apply_op(memory, op)
            right = apply_op(tiered, op)
            assert left == right
            if op[0] == "expire":
                evicted += left
        for store in (memory, tiered):
            m = store.metrics()
            assert m.evicted == evicted
            assert m.resident_objects >= 0
        tm = tiered.metrics()
        assert tm.hot_objects + tm.cold_tuples == len(tiered)
        assert memory.metrics().resident_objects == len(memory)


# ---------------------------------------------------------------------------
# hypothesis: each store against the plain-list model
# ---------------------------------------------------------------------------


class TestListModelOracle:
    @pytest.mark.parametrize(
        "make",
        [lambda: InMemoryStore(ATTRS), lambda: TieredStore(ATTRS, SMALL_TIERED)],
        ids=["memory", "tiered"],
    )
    @settings(max_examples=60, deadline=None)
    @given(ops=op_sequences())
    def test_store_matches_plain_list_model(self, make, ops):
        store, model = make(), ListModel()
        for op in ops:
            # expire_before's count, extract_state's tuples in slot order
            assert apply_op(store, op) == apply_op(model, op)
            assert len(store) == len(model.rows)
            assert list(store.tuples()) == model.rows
            for value in range(DOMAIN):
                expected = model.lookup("v", value)
                assert list(store.lookup("v", value)) == expected
                assert store.count("v", value) == len(expected)


# ---------------------------------------------------------------------------
# hypothesis: migration round-trips at random cut points
# ---------------------------------------------------------------------------


@st.composite
def migration_cases(draw):
    count = draw(st.integers(min_value=1, max_value=50))
    inserts = [
        (
            draw(st.integers(min_value=0, max_value=400)),
            draw(st.integers(min_value=0, max_value=DOMAIN - 1)),
            seq,
        )
        for seq in range(count)
    ]
    expire_to = draw(st.integers(min_value=0, max_value=200))
    # The cut: which attribute values migrate, and to which destination.
    cut = {
        value: draw(
            st.sampled_from([None, "d0", "d1"])
        )
        for value in range(DOMAIN)
    }
    return inserts, expire_to, cut


class TestMigrationRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(case=migration_cases(), column_fast_path=st.booleans())
    def test_extract_state_matches_and_round_trips(self, case, column_fast_path):
        inserts, expire_to, cut = case
        memory, tiered = store_pair()
        for ts, value, seq in inserts:
            memory.insert(make_tuple(ts, value, seq))
            tiered.insert(make_tuple(ts, value, seq))
        memory.expire_before(expire_to)
        tiered.expire_before(expire_to)

        def classify(t):
            return cut[t.get("v")]

        kwargs = (
            {"partition_attr": "v", "value_classifier": cut.get}
            if column_fast_path
            else {}
        )
        mem_groups = memory.extract_state(classify)
        tier_groups = tiered.extract_state(classify, **kwargs)
        # Sources agree after the carve-out.
        assert_equivalent(memory, tiered)
        assert set(mem_groups) == set(tier_groups)
        for group, items in mem_groups.items():
            # The in-memory store moves plain tuples in slot order; the
            # tiered store may ship whole cold segments — flattened,
            # both spell out the same tuple sequence.
            assert flatten(tier_groups[group]) == items

            # Ship the tiered group through the real wire path (encode,
            # pickle, decode) and adopt into fresh stores of each kind:
            # both destinations must agree with each other.
            block = encode_state(0, 1, (), tier_groups[group], [])
            window_items, pending = decode_state(
                pickle.loads(pickle.dumps(block, protocol=5))
            )
            assert pending == []
            dest_memory, dest_tiered = store_pair()
            for dest in (dest_memory, dest_tiered):
                for item in window_items:
                    if isinstance(item, ColdSegment):
                        dest.adopt_frozen(item)
                    else:
                        dest.insert(item)
            assert_equivalent(dest_memory, dest_tiered)
            assert list(dest_memory.tuples()) == items

    @settings(max_examples=30, deadline=None)
    @given(case=migration_cases())
    def test_column_fast_path_agrees_with_tuple_classification(self, case):
        """The value-level classifier and the tuple-level classifier
        must carve out identical groups — this is what lets cold
        segments move without decoding."""
        inserts, expire_to, cut = case
        _, with_column = store_pair()
        _, without_column = store_pair()
        for ts, value, seq in inserts:
            with_column.insert(make_tuple(ts, value, seq))
            without_column.insert(make_tuple(ts, value, seq))
        with_column.expire_before(expire_to)
        without_column.expire_before(expire_to)

        def classify(t):
            return cut[t.get("v")]

        fast = with_column.extract_state(
            classify, partition_attr="v", value_classifier=cut.get
        )
        slow = without_column.extract_state(classify)

        def flat(groups):
            return {group: flatten(items) for group, items in groups.items()}

        assert flat(fast) == flat(slow)
        assert_equivalent(with_column, without_column)


# ---------------------------------------------------------------------------
# pipeline byte-identity (the acceptance bar)
# ---------------------------------------------------------------------------

CONDITION = JoinCondition([EquiPredicate(0, "k", 1, "k")])


def run_pipeline(store, shards=1, executor="serial", rebalance=False,
                 tuples=3000):
    config = fixed_k_config(300, [seconds(3), seconds(3)], CONDITION, True, store)
    kwargs = {}
    if rebalance:
        kwargs = dict(rebalance=True, rebalance_interval=400)
    rng = random.Random(11)
    arrivals = (
        StreamTuple(
            ts=i * 2,
            values={"k": rng.randrange(17)},
            stream=i % 2,
            seq=i // 2,
            arrival=i * 2,
        )
        for i in range(tuples)
    )
    with PartitionedPipeline(
        config, shards, executor=executor, batch_size=64, **kwargs
    ) as pipeline:
        out = replay(pipeline, arrivals)
        stats = pipeline.join_statistics()
        metrics = pipeline.metrics
    return (
        sorted((r.ts, tuple(c.seq for c in r.components)) for r in out),
        stats,
        metrics,
    )


TIERED = TieredStoreConfig(hot_budget=64, bucket_span_ms=200, cache_tuples=128)


class TestPipelineByteIdentity:
    @pytest.fixture(scope="class")
    def baseline(self):
        return run_pipeline(None)

    @pytest.mark.parametrize(
        "shards,executor,rebalance",
        [
            (1, "serial", False),
            (2, "serial", False),
            (4, "serial", False),
            (2, "serial", True),
            (4, "serial", True),
            (2, "process", True),
        ],
    )
    def test_tiered_matches_in_memory(self, baseline, shards, executor,
                                      rebalance):
        results, stats, _ = run_pipeline(
            TIERED, shards=shards, executor=executor, rebalance=rebalance
        )
        assert results == baseline[0]
        assert stats == baseline[1]

    def test_tiered_metrics_report_bounded_hot_tier(self, baseline):
        _, _, metrics = run_pipeline(TIERED)
        caps = TIERED.hot_budget + max(1, TIERED.hot_budget // 8)
        assert len(metrics.stream_hot_objects) == 2
        for hot in metrics.stream_hot_objects:
            # Sampled peak stays within budget + active-bucket slack
            # (bounded here by one bucket of the 2-ms-spaced stream).
            assert hot <= caps + TIERED.bucket_span_ms
        assert any(b > 0 for b in metrics.stream_encoded_bytes)
        assert metrics.decode_misses > 0
        in_memory_metrics = baseline[2]
        assert in_memory_metrics.stream_encoded_bytes in ([0, 0], [])
        # Both stores evict the same expired tuples.
        assert metrics.stream_evicted == in_memory_metrics.stream_evicted

    def test_serial_pipeline_process_equivalence(self, baseline):
        """The plain (non-partitioned) pipeline honors config.store too."""
        pipeline = QualityDrivenPipeline(
            fixed_k_config(300, [seconds(3), seconds(3)], CONDITION, True, TIERED)
        )
        rng = random.Random(11)
        out = []
        for i in range(3000):
            t = StreamTuple(
                ts=i * 2,
                values={"k": rng.randrange(17)},
                stream=i % 2,
                seq=i // 2,
                arrival=i * 2,
            )
            out.extend(pipeline.process(t))
        out.extend(pipeline.flush())
        assert (
            sorted((r.ts, tuple(c.seq for c in r.components)) for r in out)
            == baseline[0]
        )
        assert [w.store.__class__ for w in pipeline.join.windows] == [
            TieredStore, TieredStore
        ]


# ---------------------------------------------------------------------------
# unit coverage: tiered mechanics
# ---------------------------------------------------------------------------


class TestTieredMechanics:
    def test_compaction_freezes_completed_buckets_only(self):
        store = TieredStore(ATTRS, TieredStoreConfig(hot_budget=4,
                                                     bucket_span_ms=100))
        for seq, ts in enumerate([10, 20, 30, 40, 110, 120, 130, 140]):
            store.insert(make_tuple(ts, seq % DOMAIN, seq))
        store.insert(make_tuple(210, "active", 8))
        m = store.metrics()
        assert m.freezes >= 1
        assert m.cold_tuples > 0
        assert m.encoded_bytes > 0
        # The active bucket (ts 210) never freezes: its tuple is found
        # among the resident objects, with no decode traffic.
        assert m.hot_objects >= 1
        assert [t.ts for t in store.lookup("v", "active")] == [210]
        after = store.metrics()
        assert (after.decode_hits, after.decode_misses) == (
            m.decode_hits, m.decode_misses
        )
        assert len(store) == 9

    def test_bucket_granular_expiry_drops_whole_segments(self):
        store = TieredStore(ATTRS, TieredStoreConfig(hot_budget=2,
                                                     bucket_span_ms=100))
        for seq, ts in enumerate([10, 20, 110, 120, 210, 220, 310]):
            store.insert(make_tuple(ts, seq % DOMAIN, seq))
        before = store.metrics()
        assert before.cold_tuples > 0
        removed = store.expire_before(200)
        assert removed == 4
        assert sorted(t.ts for t in store.tuples()) == [210, 220, 310]
        assert store.metrics().evicted == 4

    def test_straddler_segments_thaw_for_exact_expiry(self):
        store = TieredStore(ATTRS, TieredStoreConfig(hot_budget=2,
                                                     bucket_span_ms=100))
        for seq, ts in enumerate([110, 190, 250, 260, 350]):
            store.insert(make_tuple(ts, seq % DOMAIN, seq))
        # Bucket 1 holds {110, 190}; expiring to 150 straddles it.
        removed = store.expire_before(150)
        assert removed == 1
        assert sorted(t.ts for t in store.tuples()) == [190, 250, 260, 350]
        assert store.metrics().thaws >= 1

    def test_lookup_skips_segments_via_summaries(self):
        store = TieredStore(ATTRS, TieredStoreConfig(hot_budget=2,
                                                     bucket_span_ms=100))
        for seq, ts in enumerate([10, 20, 30, 40, 150, 260]):
            store.insert(make_tuple(ts, 1, seq))
        store.insert(make_tuple(270, 2, 6))
        misses_before = store.metrics().decode_misses
        # Value 3 appears nowhere: the summaries answer without decoding.
        assert list(store.lookup("v", 3)) == []
        assert store.metrics().decode_misses == misses_before

    def test_decode_cache_hits_on_repeated_probes(self):
        store = TieredStore(ATTRS, TieredStoreConfig(hot_budget=2,
                                                     bucket_span_ms=100,
                                                     cache_tuples=64))
        for seq, ts in enumerate([10, 20, 30, 150, 260]):
            store.insert(make_tuple(ts, 1, seq))
        list(store.lookup("v", 1))
        misses = store.metrics().decode_misses
        list(store.lookup("v", 1))
        after = store.metrics()
        assert after.decode_misses == misses
        assert after.decode_hits > 0

    def test_adopt_frozen_falls_back_without_summaries(self):
        batch = [make_tuple(10, 1, 0), make_tuple(20, 2, 1)]
        segment = freeze_segment(batch, [0, 1], ())  # no summaries
        store = TieredStore(ATTRS, SMALL_TIERED)
        store.adopt_frozen(segment)
        assert list(store.lookup("v", 1)) == [batch[0]]
        assert store.metrics().cold_tuples == 0  # decoded, not kept frozen

    def test_segment_column_and_summaries(self):
        batch = [make_tuple(10, 1, 0), make_tuple(20, 2, 1)]
        segment = freeze_segment(batch, [4, 7], ATTRS)
        assert segment.slots == (4, 7)
        assert segment.min_ts == 10 and segment.max_ts == 20
        assert segment.summaries["v"] == frozenset({1, 2})
        assert segment_column(segment, "v") == [1, 2]
        assert segment_column(segment, "absent") == [None, None]
        assert segment.encoded_bytes > 0
        assert thaw_segment(segment) == batch

    def test_make_store_dispatch(self):
        assert isinstance(make_store(None, ATTRS), InMemoryStore)
        assert isinstance(make_store("memory", ATTRS), InMemoryStore)
        assert isinstance(make_store("tiered", ATTRS), TieredStore)
        tiered = make_store(SMALL_TIERED, ATTRS)
        assert isinstance(tiered, TieredStore)
        assert tiered.config is SMALL_TIERED
        with pytest.raises(ValueError):
            make_store("bogus", ATTRS)

    def test_tiered_config_validation(self):
        with pytest.raises(ValueError):
            TieredStoreConfig(hot_budget=0)
        with pytest.raises(ValueError):
            TieredStoreConfig(bucket_span_ms=0)
        with pytest.raises(ValueError):
            TieredStoreConfig(cache_tuples=-1)
        # 0 is legal: it disables the decode cache (one transient entry).
        assert TieredStoreConfig(cache_tuples=0).cache_tuples == 0

    def test_store_spec_pickles_inside_config(self):
        config = PipelineConfig(
            window_sizes_ms=[seconds(1), seconds(1)],
            condition=CONDITION,
            store=SMALL_TIERED,
        )
        clone = pickle.loads(pickle.dumps(config, protocol=5))
        assert clone.store == SMALL_TIERED


# ---------------------------------------------------------------------------
# metrics plumbing
# ---------------------------------------------------------------------------


class TestMetricsPlumbing:
    def test_merge_sums_stream_state_lists_with_padding(self):
        a = PipelineMetrics(
            stream_resident_objects=[10, 20],
            stream_hot_objects=[5, 6],
            stream_encoded_bytes=[100, 200],
            stream_evicted=[3, 4],
            decode_hits=7,
            decode_misses=9,
        )
        b = PipelineMetrics(
            stream_resident_objects=[1, 2, 3],
            stream_evicted=[1],
            decode_hits=1,
        )
        merged = PipelineMetrics.merge([a, b])
        assert merged.stream_resident_objects == [11, 22, 3]
        assert merged.stream_hot_objects == [5, 6]
        assert merged.stream_encoded_bytes == [100, 200]
        assert merged.stream_evicted == [4, 4]
        assert merged.decode_hits == 8
        assert merged.decode_misses == 9

    def test_window_store_metrics_surface(self):
        memory, tiered = store_pair()
        for seq in range(20):
            memory.insert(make_tuple(seq * 10, seq % DOMAIN, seq))
            tiered.insert(make_tuple(seq * 10, seq % DOMAIN, seq))
        mm, tm = memory.metrics(), tiered.metrics()
        assert mm.resident_objects == mm.hot_objects == 20
        assert mm.encoded_bytes == 0
        assert tm.hot_objects < 20  # bounded: segments froze
        assert tm.hot_objects + tm.cold_tuples == 20
        assert tm.encoded_bytes > 0
