"""Tests for skew-aware slot routing and live shard rebalancing.

The load-bearing property is *routing transparency*: with lossless
disorder handling (fixed K covering the realized max delay), enabling
rebalancing — including actual mid-run state migrations — changes
neither the canonical merged result sequence nor the summed
``JoinStatistics`` at any shard count.  Rebalancing is a pure
performance knob (ISSUE 4 acceptance criterion), proven here at
shards 1/2/4 under the serial executor and under the process executor
on both transports.
"""

import os
import random
import subprocess
import sys

import pytest

from repro import (
    FixedKPolicy,
    JoinCondition,
    KeyRouter,
    MigrationSpec,
    KSlackBuffer,
    PartitionedPipeline,
    PipelineConfig,
    QualityDrivenPipeline,
    Rebalancer,
    SerialExecutor,
    ShardExecutor,
    StateBlock,
    StreamTuple,
    Synchronizer,
    SlidingWindow,
    TRANSPORT_BLOCKS,
    TRANSPORT_SHM,
    ZipfValueSampler,
    equi_join_chain,
    from_tuple_specs,
    replay,
    run_partitioned,
    seconds,
)
from repro.core.blocks import decode_state, encode_state
from repro.parallel.router import stable_hash
from repro.parallel.shard import slot_classifier
from repro.workloads import fixed_k_config, interleaved_dataset
from repro.workloads.soak import canonical_results


def skewed_dataset(num_tuples=3_000, z=1.2, domain=64, seed=5, max_delay=400):
    """Three interleaved streams whose join key is Zipf(z)-distributed."""
    return interleaved_dataset(
        f"zipf-{z}", num_tuples, 15, max_delay, domain, seed, zipf=z
    )


def _lossless_config(dataset, collect=True):
    return fixed_k_config(
        dataset.max_delay(), [seconds(1)] * 3, equi_join_chain("a1", 3), collect
    )


def _drive(dataset, config, shards, rebalance, **kwargs):
    """Feed per-tuple, flush; return (canonical seq, stats, pipeline)."""
    pipeline = PartitionedPipeline(
        config, shards, rebalance=rebalance, **kwargs
    )
    with pipeline:
        outputs = replay(pipeline, dataset.arrivals())
        stats = pipeline.join_statistics()
        metrics = pipeline.metrics
    return canonical_results(outputs), stats, metrics, pipeline


# ----------------------------------------------------------------------
# the tentpole property: rebalancing is invisible in the results
# ----------------------------------------------------------------------


class TestRebalancingTransparency:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sequence_and_stats_identical_to_static_routing(self, shards):
        dataset = skewed_dataset()
        static_seq, static_stats, static_m, _ = _drive(
            dataset, _lossless_config(dataset), shards, rebalance=False
        )
        adaptive_seq, adaptive_stats, adaptive_m, pipeline = _drive(
            dataset,
            _lossless_config(dataset),
            shards,
            rebalance=True,
            rebalance_interval=512,
            rebalance_threshold=1.05,
        )
        if shards > 1:
            # Not vacuous: state really migrated mid-run.
            assert pipeline.rebalances > 0
            assert pipeline.slots_moved > 0
        assert adaptive_seq == static_seq
        assert adaptive_stats == static_stats
        assert adaptive_m.tuples_processed == len(dataset)
        assert static_m.tuples_processed == len(dataset)
        assert adaptive_m.results_produced == static_m.results_produced

    @pytest.mark.parametrize("transport", [TRANSPORT_BLOCKS, TRANSPORT_SHM])
    def test_process_executor_migrates_identically(self, transport):
        dataset = skewed_dataset(num_tuples=2_500)
        config = _lossless_config(dataset)
        static_seq, static_stats, _, _ = _drive(
            dataset, config, 2, rebalance=False,
            executor="process", transport=transport, batch_size=128,
        )
        serial_seq, serial_stats, _, _ = _drive(
            dataset, _lossless_config(dataset), 2, rebalance=False
        )
        assert (static_seq, static_stats) == (serial_seq, serial_stats)
        adaptive_seq, adaptive_stats, _, pipeline = _drive(
            dataset,
            _lossless_config(dataset),
            2,
            rebalance=True,
            rebalance_interval=512,
            rebalance_threshold=1.05,
            executor="process",
            transport=transport,
            batch_size=128,
        )
        assert pipeline.rebalances > 0
        assert adaptive_seq == static_seq
        assert adaptive_stats == static_stats

    def test_batched_driver_matches_per_tuple_with_rebalancing(self):
        dataset = skewed_dataset(num_tuples=2_500)
        per_tuple, _, _, _ = _drive(
            dataset,
            _lossless_config(dataset),
            4,
            rebalance=True,
            rebalance_interval=512,
            rebalance_threshold=1.05,
        )
        outputs, _ = run_partitioned(
            dataset,
            _lossless_config(dataset),
            4,
            chunk_size=256,
            rebalance=True,
            rebalance_interval=512,
        )
        assert canonical_results(outputs) == per_tuple

    def test_count_only_mode_counts_match(self):
        dataset = skewed_dataset(num_tuples=2_500)
        static_count, _ = run_partitioned(
            dataset, _lossless_config(dataset, collect=False), 4
        )
        adaptive_count, _ = run_partitioned(
            dataset,
            _lossless_config(dataset, collect=False),
            4,
            rebalance=True,
            rebalance_interval=512,
        )
        assert adaptive_count == static_count

    @pytest.mark.parametrize("shards", [2, 4])
    def test_cross_stream_timestamp_lag_stays_identical(self, shards):
        # Stream 1 trails stream 0 by 200 ms in timestamp while both are
        # internally in order, so the per-stream realized delay — and
        # thus the "lossless" fixed K — is 0, and only the
        # synchronizer's completeness gate keeps the static run exact.
        # The migration barrier must not outrun that gate: its forced
        # drain is floored at beacon - max observed arrival lag
        # (regression for exactly this scenario).
        rng = random.Random(3)
        sampler = ZipfValueSampler(list(range(1, 33)), 1.2, rng)
        specs = []
        for i in range(2_000):
            ts = 300 + i * 20
            specs.append((0, ts, {"a1": sampler.sample()}))
            specs.append((1, ts - 200, {"a1": sampler.sample()}))
        dataset = from_tuple_specs(specs, num_streams=2)
        assert dataset.max_delay() == 0  # in order per stream
        config = lambda: PipelineConfig(  # noqa: E731
            window_sizes_ms=[seconds(1)] * 2,
            condition=equi_join_chain("a1", 2),
            policy=FixedKPolicy(0),
            initial_k_ms=0,
        )
        static_seq, static_stats, _, _ = _drive(
            dataset, config(), shards, rebalance=False
        )
        adaptive_seq, adaptive_stats, _, pipeline = _drive(
            dataset,
            config(),
            shards,
            rebalance=True,
            rebalance_interval=256,
            rebalance_threshold=1.05,
        )
        assert pipeline.rebalances > 0
        assert adaptive_seq == static_seq
        assert adaptive_stats == static_stats

    def test_silent_stream_gates_the_barrier_drain(self):
        # Stream 2 stays silent for most of the run, then delivers a
        # low-timestamp backlog at the end.  The completeness gate holds
        # the other streams' tuples for it, and the migration barrier's
        # forced drain — floored at the per-stream progress minimum —
        # must not outrun that gate (regression: an observed-lag
        # heuristic misses a stream that has routed nothing yet).
        rng = random.Random(9)
        sampler = ZipfValueSampler(list(range(1, 17)), 1.2, rng)
        specs = []
        for i in range(1_200):
            specs.append((i % 2, 500 + i * 10, {"a1": sampler.sample()}))
        for i in range(240):
            specs.append((2, 200 + i * 10, {"a1": sampler.sample()}))
        dataset = from_tuple_specs(specs, num_streams=3)
        assert dataset.max_delay() == 0  # in order per stream
        config = lambda: PipelineConfig(  # noqa: E731
            window_sizes_ms=[seconds(2)] * 3,
            condition=equi_join_chain("a1", 3),
            policy=FixedKPolicy(0),
            initial_k_ms=0,
        )
        static_seq, static_stats, _, _ = _drive(
            dataset, config(), 4, rebalance=False
        )
        adaptive_seq, adaptive_stats, _, pipeline = _drive(
            dataset,
            config(),
            4,
            rebalance=True,
            rebalance_interval=256,
            rebalance_threshold=1.05,
        )
        assert pipeline.rebalances > 0
        assert adaptive_seq == static_seq
        assert adaptive_stats == static_stats

    def test_small_rebalance_interval_still_plans(self):
        # Regression: the planner's min-sample gate must scale down with
        # the check interval, or counters decayed at every check would
        # never reach it and rebalancing would silently stay off.
        dataset = skewed_dataset(num_tuples=2_000)
        pipeline = PartitionedPipeline(
            _lossless_config(dataset, collect=False), 4,
            rebalance=True, rebalance_interval=64,
        )
        with pipeline:
            replay(pipeline, dataset.arrivals())
        assert pipeline.rebalances > 0

    def test_executor_submitted_counters_track_routing(self):
        dataset = skewed_dataset(num_tuples=1_000)
        pipeline = PartitionedPipeline(
            _lossless_config(dataset, collect=False), 3
        )
        with pipeline:
            replay(pipeline, dataset.arrivals())
        # Exact routing: executor-side per-shard submissions mirror the
        # router's shard-load counters and account for every tuple.
        assert pipeline.executor.submitted == pipeline.router.shard_loads
        assert sum(pipeline.executor.submitted) == len(dataset)
        # Broadcast: no routing counters exist; the executor's are the
        # only per-shard load record, one copy of the stream per shard.
        config = PipelineConfig(
            window_sizes_ms=[seconds(1)] * 2,
            condition=JoinCondition([]),
            policy=FixedKPolicy(0),
            collect_results=False,
        )
        specs = [(i % 2, i * 10, {"a1": i % 5}) for i in range(90)]
        broadcast_dataset = from_tuple_specs(specs, num_streams=2)
        pipeline = PartitionedPipeline(config, 3)
        with pipeline:
            replay(pipeline, broadcast_dataset.arrivals())
        assert pipeline.executor.submitted == [90, 90, 90]

    def test_adaptive_routing_reduces_imbalance_under_skew(self):
        dataset = skewed_dataset()
        _, _, _, static = _drive(
            dataset, _lossless_config(dataset), 4, rebalance=False
        )
        _, _, _, adaptive = _drive(
            dataset,
            _lossless_config(dataset),
            4,
            rebalance=True,
            rebalance_interval=512,
        )

        from repro import load_imbalance

        assert load_imbalance(adaptive.router.shard_loads) < load_imbalance(
            static.router.shard_loads
        )


# ----------------------------------------------------------------------
# router: slot table semantics + edge cases (satellite)
# ----------------------------------------------------------------------


class TestSlotRouting:
    def test_initial_table_reproduces_static_modulo_hashing(self):
        # slots = 64 × shards is a multiple of shards, so the identity
        # table makes slot routing == direct stable_hash % num_shards.
        router = KeyRouter(equi_join_chain("a1", 3), 3, 4)
        assert router.slot_table == [s % 4 for s in range(router.num_slots)]
        for value in list(range(200)) + ["x", "hot", None, (1, 2)]:
            t = StreamTuple(ts=1, values={"a1": value}, stream=0)
            assert router.shard_of(t) == stable_hash(value) % 4

    def test_route_batch_agrees_with_shard_of_and_counts_loads(self):
        router = KeyRouter(equi_join_chain("a1", 2), 2, 3)
        batch = [
            StreamTuple(ts=i, values={"a1": i % 11}, stream=i % 2,
                        arrival=i + 5)
            for i in range(100)
        ]
        routed = router.route_batch(batch)
        for shard, shard_batch in enumerate(routed):
            for t in shard_batch:
                assert router.shard_of(t) == shard
        assert sum(router.slot_loads) == 100
        assert router.shard_loads == [len(b) for b in routed]
        assert router.watermark_ts == 104  # max(arrival, ts) over batch
        # Per-stream progress: stream 0 saw even i up to 98, stream 1 odd
        # i up to 99 — the min is the completeness-gate drain floor.
        assert router.stream_progress_ts == [98, 99]

    def test_route_batch_empty_batch(self):
        router = KeyRouter(equi_join_chain("a1", 2), 2, 3)
        assert router.route_batch([]) == [[], [], []]
        assert sum(router.slot_loads) == 0
        router_broadcast = KeyRouter(JoinCondition([]), 2, 3)
        assert router_broadcast.route_batch([]) is None

    def test_reassign_moves_future_tuples_and_validates(self):
        router = KeyRouter(equi_join_chain("a1", 2), 2, 2)
        t = StreamTuple(ts=1, values={"a1": 7}, stream=0)
        slot = router.slot_of(t)
        old = router.shard_of(t)
        router.reassign({slot: 1 - old})
        assert router.shard_of(t) == 1 - old
        with pytest.raises(ValueError):
            router.reassign({router.num_slots: 0})
        with pytest.raises(ValueError):
            router.reassign({0: 99})

    def test_broadcast_condition_rejects_rebalancing(self):
        config = PipelineConfig(
            window_sizes_ms=[seconds(1)] * 2,
            condition=JoinCondition([]),  # cross join: no partition key
            policy=FixedKPolicy(0),
        )
        with pytest.raises(ValueError, match="broadcast"):
            PartitionedPipeline(config, 2, rebalance=True)
        with pytest.raises(ValueError):
            Rebalancer(KeyRouter(JoinCondition([]), 2, 2))

    def test_single_key_all_hot_stream_never_moves(self):
        # One key = one slot; LPT can isolate it but never split it, so
        # the plan can't beat the current max and must decline.
        specs = [(i % 3, i * 25, {"a1": 1}) for i in range(800)]
        dataset = from_tuple_specs(specs, num_streams=3)
        seq, stats, metrics, pipeline = _drive(
            dataset,
            _lossless_config(dataset),
            4,
            rebalance=True,
            rebalance_interval=256,
            rebalance_threshold=1.05,
        )
        assert pipeline.rebalances == 0
        assert pipeline.slots_moved == 0
        static_seq, static_stats, _, _ = _drive(
            dataset, _lossless_config(dataset), 4, rebalance=False
        )
        assert seq == static_seq
        assert stats == static_stats

    def test_slot_assignment_deterministic_across_processes(self):
        # String hashing is seed-randomized per interpreter; the slot
        # computation must not be.  A fork()ed child inherits the parent
        # seed, so spawn a *fresh* interpreter.
        keys = ["alpha", "beta", "hot-key", "δ", 7, 7.0, (1, "x"), None]
        code = (
            "from repro.parallel.router import KeyRouter, stable_hash\n"
            "from repro import equi_join_chain\n"
            "r = KeyRouter(equi_join_chain('a1', 3), 3, 4)\n"
            f"keys = {keys!r}\n"
            "print([stable_hash(k) % r.num_slots for k in keys])\n"
            "print(r.slot_table)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), "..", "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        env.pop("PYTHONHASHSEED", None)
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, check=True,
            ).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        router = KeyRouter(equi_join_chain("a1", 3), 3, 4)
        local = [stable_hash(k) % router.num_slots for k in keys]
        assert outputs[0].splitlines()[0] == repr(local)


# ----------------------------------------------------------------------
# rebalancer planning
# ----------------------------------------------------------------------


class TestRebalancerPlanning:
    def _router_with_loads(self, loads_by_slot, shards=2):
        router = KeyRouter(equi_join_chain("a1", 2), 2, shards)
        for slot, load in loads_by_slot.items():
            router.slot_loads[slot] = load
        return router

    def test_no_plan_below_threshold(self):
        router = self._router_with_loads({0: 500, 1: 500})  # slots 0/1 on shards 0/1
        assert Rebalancer(router, threshold=1.25).plan() is None

    def test_no_plan_below_min_sample(self):
        router = self._router_with_loads({0: 30})
        assert Rebalancer(router, threshold=1.05, min_sample=256).plan() is None

    def test_lpt_isolates_hot_slot_and_balances_rest(self):
        # Hot slot 0 plus four warm slots all on shard 0 (even slots).
        router = self._router_with_loads(
            {0: 400, 2: 100, 4: 100, 6: 100, 8: 100}
        )
        rebalancer = Rebalancer(router, threshold=1.25)
        moves = rebalancer.plan()
        assert moves  # shard 0 carried everything
        new_table = list(router.slot_table)
        for slot, dest in moves.items():
            new_table[slot] = dest
        shard_loads = [0, 0]
        for slot, load in {0: 400, 2: 100, 4: 100, 6: 100, 8: 100}.items():
            shard_loads[new_table[slot]] += load
        assert max(shard_loads) == 400  # hot slot isolated, warm moved off
        assert new_table[0] == 0  # stickiness: hot slot stays put

    def test_zero_load_slots_never_move(self):
        router = self._router_with_loads({0: 400, 2: 300})
        moves = Rebalancer(router, threshold=1.05).plan() or {}
        moved = set(moves)
        assert moved <= {0, 2}

    def test_plan_decays_counters(self):
        router = self._router_with_loads({0: 400, 2: 100})
        Rebalancer(router, threshold=1.05).plan()
        assert router.slot_loads[0] == 200
        assert router.slot_loads[2] == 50

    def test_plan_declines_when_no_improvement_possible(self):
        # All load on one slot: isolation cannot lower the max.
        router = self._router_with_loads({0: 1_000})
        assert Rebalancer(router, threshold=1.05).plan() is None


# ----------------------------------------------------------------------
# state-migration primitives
# ----------------------------------------------------------------------


class TestMigrationPrimitives:
    def test_kslack_advance_clock_releases_watermarked(self):
        buffer = KSlackBuffer(100)
        held = buffer.process(StreamTuple(ts=50, stream=0))
        assert held == []
        released = buffer.advance_clock(200)
        assert [t.ts for t in released] == [50]
        assert buffer.advance_clock(150) == []  # clock never regresses
        assert buffer.local_time == 200

    def test_kslack_extract_keeps_clock_and_order(self):
        buffer = KSlackBuffer(1_000)
        for ts in (30, 10, 20):
            buffer.process(StreamTuple(ts=ts, values={"a1": ts}, stream=0))
        extracted = buffer.extract(lambda t: t["a1"] != 20)
        assert [t.ts for t in extracted] == [10, 30]
        assert buffer.buffered == 1
        assert buffer.local_time == 30
        # Remaining tuple still releases normally.
        assert [t.ts for t in buffer.flush()] == [20]

    def test_kslack_adopt_keeps_annotation_and_clock(self):
        buffer = KSlackBuffer(100)
        buffer.process(StreamTuple(ts=500, stream=0))  # clock 500
        held = StreamTuple(ts=450, stream=0)
        held.delay = 77  # annotated at the source buffer
        ripe = StreamTuple(ts=350, stream=0)
        ripe.delay = 5
        # Adoption is two-phase: inserting never releases — even in this
        # deliberately inverted order (high ts first), the single drain
        # afterwards hands back only what the clock permits, in ts order.
        buffer.adopt(held)
        buffer.adopt(ripe)
        released = buffer.drain_ready()
        assert released == [ripe]  # 350 <= 500 - K; 450 stays buffered
        assert ripe.delay == 5 and held.delay == 77  # never re-annotated
        assert buffer.local_time == 500  # adoption never advances iT
        assert buffer.tuples_seen == 1  # migrants aren't re-counted
        assert buffer.buffered == 2  # ts=450 adoptee + the buffer's own ts=500

    def test_synchronizer_drain_below_preserves_order_and_tsync(self):
        sync = Synchronizer(2)
        assert sync.process(StreamTuple(ts=10, stream=0)) == []
        assert sync.process(StreamTuple(ts=30, stream=0)) == []
        emitted = sync.drain_below(20)
        assert [t.ts for t in emitted] == [10]
        assert sync.t_sync == 10
        assert sync.buffered == 1
        # A later completeness drain continues above the watermark.
        emitted = sync.process(StreamTuple(ts=40, stream=1))
        assert [t.ts for t in emitted] == [30]

    def test_synchronizer_extract_updates_gating(self):
        sync = Synchronizer(2)
        sync.process(StreamTuple(ts=10, values={"a1": 1}, stream=0))
        extracted = sync.extract(lambda t: t["a1"] == 1)
        assert [t.ts for t in extracted] == [10]
        assert sync.buffered == 0
        # Stream 0 empty again: a lone stream-1 tuple must not emit.
        assert sync.process(StreamTuple(ts=20, values={"a1": 2}, stream=1)) == []

    def test_window_extract_preserves_bucket_order(self):
        window = SlidingWindow(seconds(10), indexed_attributes=("a1",))
        tuples = [
            StreamTuple(ts=ts, values={"a1": ts % 2}, stream=0, seq=i)
            for i, ts in enumerate((5, 4, 9, 2, 1))
        ]
        for t in tuples:
            window.insert(t)
        extracted = window.extract_state(lambda t: "peer" if t["a1"] == 1 else None)["peer"]
        # Insertion order among extracted (ts odd): 5, 9, 1 — not sorted.
        assert [t.ts for t in extracted] == [5, 9, 1]
        assert window.cardinality == 2
        assert [t.ts for t in window.lookup("a1", 0)] == [4, 2]
        peer = SlidingWindow(seconds(10), indexed_attributes=("a1",))
        for t in extracted:
            peer.insert(t)
        assert [t.ts for t in peer.lookup("a1", 1)] == [5, 9, 1]

    def test_state_block_codec_round_trip(self):
        window = [
            StreamTuple(ts=5, values={"a1": 1, "b": None}, stream=0, seq=0,
                        arrival=6),
            StreamTuple(ts=7, values={"a1": 2}, stream=1, seq=0, arrival=9),
        ]
        window[0].delay = 3
        pending = [StreamTuple(ts=11, values={"a1": 1}, stream=2, seq=1,
                               arrival=12)]
        block = encode_state(0, 1, (3, 5), window, pending)
        assert isinstance(block, StateBlock)
        decoded_window, decoded_pending = decode_state(block)
        assert decoded_window == window
        assert decoded_window[0].delay == 3
        assert decoded_window[0].values == {"a1": 1, "b": None}
        assert decoded_pending == pending

    def test_slot_classifier_mirrors_router(self):
        router = KeyRouter(equi_join_chain("a1", 3), 3, 4)
        moves = {router.slot_of(StreamTuple(ts=1, values={"a1": 9}, stream=0)): 2}
        spec = MigrationSpec(
            moves=moves,
            attr_by_stream=("a1", "a1", "a1"),
            num_slots=router.num_slots,
            beacon_ts=0,
        )
        classify = slot_classifier(spec)
        assert classify(StreamTuple(ts=1, values={"a1": 9}, stream=1)) == 2
        miss = StreamTuple(ts=1, values={"a1": 10}, stream=0)
        if router.slot_of(miss) not in moves:
            assert classify(miss) is None

    def test_prepare_and_adopt_round_trip_between_pipelines(self):
        dataset = skewed_dataset(num_tuples=1_200, domain=8)
        config = _lossless_config(dataset)
        source = QualityDrivenPipeline(config)
        dest = QualityDrivenPipeline(config)
        for t in dataset.arrivals():
            source.process(t)
        beacon = max(max(t.arrival, t.ts) for t in dataset.arrivals())
        classify = lambda t: "dest" if t["a1"] == 1 else None  # noqa: E731
        outputs, window_groups, pending_groups = source.prepare_migration(
            classify, beacon
        )
        window_tuples = window_groups.get("dest", [])
        pending = pending_groups.get("dest", [])
        assert set(window_groups) <= {"dest"}
        assert set(pending_groups) <= {"dest"}
        assert all(t["a1"] == 1 for t in window_tuples)
        assert all(t["a1"] == 1 for t in pending)
        # Source windows hold nothing of the moved key anymore.
        for window in source.join.windows:
            assert all(t["a1"] != 1 for t in window.tuples())
        dest.adopt_migration(window_tuples, pending)
        total = sum(w.cardinality for w in dest.join.windows) + sum(
            k.buffered for k in dest.kslacks
        ) + dest.synchronizer.buffered
        assert total == len(window_tuples) + len(pending)

    def test_migrate_refused_after_flush(self):
        dataset = skewed_dataset(num_tuples=300, domain=4)
        pipeline = QualityDrivenPipeline(_lossless_config(dataset))
        pipeline.flush()
        with pytest.raises(RuntimeError):
            pipeline.prepare_migration(lambda t: True, 0)
        with pytest.raises(RuntimeError):
            pipeline.adopt_migration([], [])

    def test_custom_executor_without_migration_support_fails_fast(self):
        dataset = skewed_dataset(num_tuples=300, domain=4)
        config = _lossless_config(dataset)

        class Minimal(ShardExecutor):
            """Implements only the abstract surface — no migrate/adopt."""

            def __init__(self, config, num_shards):
                super().__init__(config, num_shards)
                self._inner = SerialExecutor(config, num_shards)

            def submit_batch(self, shard, batch):
                return self._inner.submit_batch(shard, batch)

            def finish(self):
                return self._inner.finish()

        # Rejected at construction (not mid-run with state already fed):
        with pytest.raises(ValueError, match="state-migration protocol"):
            PartitionedPipeline(
                config,
                2,
                executor=lambda c, n: Minimal(c, n),
                rebalance=True,
            )
        # Without rebalancing the same executor is fine, and the base
        # defaults still refuse a direct migrate call (defense in depth).
        pipeline = PartitionedPipeline(
            config, 2, executor=lambda c, n: Minimal(c, n)
        )
        with pytest.raises(RuntimeError, match="state migration"):
            pipeline.executor.migrate(0, None)
