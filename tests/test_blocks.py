"""Columnar block-transport suite: codec round-trips + transport invariance.

Two layers of contract:

* **Codec** — ``decode(encode(batch))`` must reproduce the tuples
  exactly (equality, ``delay``/``arrival`` annotations, attribute
  access) for arbitrary payload shapes: ``None`` values, mixed value
  types, attribute sets that differ across tuples in one block, empty
  batches, unicode attribute names.  Schema negotiation must intern each
  attribute set once per encoder/decoder pair.
* **Transport invariance** — the columnar wire format is a pure
  transport optimization: partitioned runs over block transport must
  produce byte-identical result sequences, ``JoinStatistics`` and merged
  ``PipelineMetrics`` (deterministic fields) versus the serial
  executor (which never encodes anything), at shards 1/2/4, in
  collected and count-only modes.
"""

import gc
import multiprocessing
import pickle
import random
import threading
import types
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    MISSING,
    TRANSPORT_BLOCKS,
    BandPredicate,
    BlockDecoder,
    BlockEncoder,
    JoinCondition,
    JoinResult,
    PartitionedPipeline,
    PipelineConfig,
    ProcessExecutor,
    StreamTuple,
    ThetaPredicate,
    equi_join_chain,
    from_tuple_specs,
    make_d3_syn,
    replay,
    seconds,
)
from repro.core.blocks import ResultAccumulator, ResultBlock
from repro.core.pipeline import QualityDrivenPipeline
from repro.parallel.channel import Channel
from repro.parallel.shard import (
    MSG_BATCH,
    MSG_CHECKPOINT,
    MSG_FLUSH,
    CheckpointRequest,
    checkpoint_shard_state,
    shard_worker,
)
from repro.workloads import fixed_k_config

CONDITION = equi_join_chain("a1", 3)


def _roundtrip(batch, encoder=None, decoder=None):
    """Encode → pickle (protocol 5, as the pipe does) → decode."""
    encoder = encoder or BlockEncoder()
    decoder = decoder or BlockDecoder()
    block = pickle.loads(pickle.dumps(encoder.encode(batch), protocol=5))
    return decoder.decode(block)


def _assert_tuples_identical(decoded, original):
    assert decoded == original
    for d, o in zip(decoded, original):
        assert d.delay == o.delay
        assert d.arrival == o.arrival
        assert d.values == o.values
        for name, value in o.values.items():
            assert d[name] == value or (value != value)  # NaN-safe access


# ----------------------------------------------------------------------
# codec round-trips
# ----------------------------------------------------------------------


class TestCodecRoundTrip:
    def test_empty_batch(self):
        assert _roundtrip([]) == []

    def test_uniform_payloads(self):
        batch = [
            StreamTuple(ts=i * 10, values={"a1": i % 4, "v": float(i)},
                        stream=i % 3, seq=i, arrival=i * 10 + 3)
            for i in range(50)
        ]
        for t in batch:
            t.delay = t.seq % 7
        _assert_tuples_identical(_roundtrip(batch), batch)

    def test_none_value_distinct_from_missing_attribute(self):
        with_none = StreamTuple(ts=1, values={"a1": 1, "x": None}, stream=0, seq=0)
        without_x = StreamTuple(ts=2, values={"a1": 2}, stream=1, seq=1)
        decoded = _roundtrip([with_none, without_x])
        assert decoded[0].values == {"a1": 1, "x": None}
        assert "x" in decoded[0].values and decoded[0]["x"] is None
        assert "x" not in decoded[1].values
        assert decoded[1].get("x", "absent") == "absent"

    def test_mixed_value_types_and_unicode_keys(self):
        batch = [
            StreamTuple(ts=0, values={"ключ": "значение", "n": 1}, stream=0, seq=0),
            StreamTuple(ts=1, values={"ключ": (1, "two"), "n": 2.5}, stream=1, seq=1),
            StreamTuple(ts=2, values={"ключ": [1, 2], "n": None, "émoji🎯": {"a": 1}},
                        stream=2, seq=2),
        ]
        _assert_tuples_identical(_roundtrip(batch), batch)

    def test_empty_payloads(self):
        batch = [StreamTuple(ts=i, stream=i % 2, seq=i) for i in range(5)]
        _assert_tuples_identical(_roundtrip(batch), batch)

    def test_schema_interned_once_per_attribute_set(self):
        encoder, decoder = BlockEncoder(), BlockDecoder()
        a = [StreamTuple(ts=1, values={"a1": 1, "b": 2}, stream=0, seq=0)]
        b = [StreamTuple(ts=2, values={"b": 3, "a1": 4}, stream=0, seq=1)]
        c = [StreamTuple(ts=3, values={"c": 5}, stream=0, seq=2)]
        first = encoder.encode(a)
        again = encoder.encode(b)  # same attribute *set*, other dict order
        other = encoder.encode(c)
        assert first.attributes is not None  # schema travels inline once
        assert again.attributes is None      # ...then only by id
        assert again.schema_id == first.schema_id
        assert other.schema_id != first.schema_id
        assert decoder.decode(first) == a
        assert decoder.decode(again) == b
        assert decoder.decode(other) == c

    def test_decoder_rejects_unknown_schema(self):
        encoder = BlockEncoder()
        encoder.encode([StreamTuple(ts=1, values={"a1": 1}, stream=0, seq=0)])
        later = encoder.encode([StreamTuple(ts=2, values={"a1": 2}, stream=0, seq=1)])
        assert later.attributes is None
        with pytest.raises(ValueError):
            BlockDecoder().decode(later)  # fresh decoder never saw the schema

    def test_missing_sentinel_pickle_stable(self):
        assert pickle.loads(pickle.dumps(MISSING, protocol=5)) is MISSING

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),  # ts
                st.dictionaries(
                    st.text(min_size=1, max_size=8),
                    st.one_of(
                        st.none(),
                        st.integers(),
                        st.floats(allow_nan=False),
                        st.text(max_size=12),
                        st.tuples(st.integers(), st.text(max_size=4)),
                    ),
                    max_size=5,
                ),
                st.integers(min_value=0, max_value=4),       # stream
                st.integers(min_value=-500, max_value=500),  # delay
            ),
            max_size=40,
        )
    )
    def test_property_roundtrip(self, rows):
        batch = []
        for seq, (ts, values, stream, delay) in enumerate(rows):
            t = StreamTuple(ts=ts, values=values, stream=stream, seq=seq,
                            arrival=ts + max(0, delay))
            t.delay = delay
            batch.append(t)
        _assert_tuples_identical(_roundtrip(batch), batch)


class TestResultBlock:
    def _results(self, num=30, share=3):
        rng = random.Random(11)
        pool = [
            StreamTuple(ts=i * 5, values={"a1": i % share, "v": i},
                        stream=i % 3, seq=i)
            for i in range(12)
        ]
        results = []
        for i in range(num):
            comps = tuple(
                pool[rng.randrange(len(pool))] for _ in range(3)
            )
            results.append(JoinResult(max(c.ts for c in comps), comps))
        return results

    def test_roundtrip_preserves_results(self):
        results = self._results()
        encoder, decoder = BlockEncoder(), BlockDecoder()
        block = pickle.loads(
            pickle.dumps(encoder.encode_results(results), protocol=5)
        )
        decoded = decoder.decode_results(block)
        assert decoded == results
        assert [r.ts for r in decoded] == [r.ts for r in results]

    def test_component_sharing_restored(self):
        # One window tuple feeding many results must decode to ONE object
        # shared across those results, as the operator produced it.
        results = self._results()
        block = BlockEncoder().encode_results(results)
        assert len(block.components) < 3 * len(results)  # interning happened
        decoded = BlockDecoder().decode_results(block)
        seen = {}
        for r in decoded:
            for c in r.components:
                key = c.identity()
                if key in seen:
                    assert c is seen[key]
                else:
                    seen[key] = c

    def test_empty_results(self):
        block = BlockEncoder().encode_results([])
        assert (block.arity, block.ts, block.component_indexes) == (0, [], [])
        assert BlockDecoder().decode_results(block) == []

    def test_arity_zero_block_keeps_one_result_per_timestamp(self):
        # Nothing encodes this, but a column decode must not truncate
        # it to nothing: zip() over no columns is empty.
        block = ResultBlock(0, [3, 4], [], BlockEncoder().encode([]))
        decoded = BlockDecoder().decode_results(block)
        assert [(r.ts, r.components) for r in decoded] == [(3, ()), (4, ())]

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda flat, n: flat[:-1], "component indexes"),  # short
            (lambda flat, n: flat[:-3], "component indexes"),  # a whole row short
            (lambda flat, n: flat + [0], "component indexes"),  # long
            (lambda flat, n: flat[:4] + [n] + flat[5:], "outside"),
            (lambda flat, n: flat[:4] + [-1] + flat[5:], "outside"),
        ],
    )
    def test_decode_rejects_a_misshapen_block(self, damage, message):
        block = BlockEncoder().encode_results(self._results())
        block.component_indexes = damage(
            block.component_indexes, len(block.components)
        )
        with pytest.raises(ValueError, match=message):
            BlockDecoder().decode_results(block)

    @staticmethod
    def _encode_results_reference(results):
        """The per-result interning loop ``encode_results`` used to be."""
        ts_col, flat, distinct, index_of = [], [], [], {}
        for result in results:
            ts_col.append(result.ts)
            for component in result.components:
                idx = index_of.get(id(component))
                if idx is None:
                    idx = index_of[id(component)] = len(distinct)
                    distinct.append(component)
                flat.append(idx)
        arity = len(results[0].components) if results else 0
        return ResultBlock(arity, ts_col, flat, BlockEncoder().encode(distinct))

    @pytest.mark.parametrize("cuts", [(), (0,), (7, 7, 19), (1, 2, 3, 29, 30)])
    def test_accumulator_ships_the_bytes_of_one_shot_encoding(self, cuts):
        results = self._results()
        expected = pickle.dumps(self._encode_results_reference(results), protocol=5)
        assert pickle.dumps(BlockEncoder().encode_results(results), protocol=5) == expected
        accumulator = ResultAccumulator()
        bounds = [0, *cuts, len(results)]
        for start, stop in zip(bounds, bounds[1:]):
            accumulator.extend(results[start:stop])  # some of them empty
        assert pickle.dumps(accumulator.block(BlockEncoder()), protocol=5) == expected

    def test_accumulator_restarted_at_a_checkpoint_ships_only_the_rest(self):
        # A checkpoint takes the block and the worker starts a fresh
        # accumulator: the delta after it is numbered from zero again.
        results = self._results()
        first, rest = ResultAccumulator(), ResultAccumulator()
        first.extend(results[:11])
        first.extend([])
        taken = pickle.dumps(first.block(BlockEncoder()), protocol=5)
        rest.extend(results[11:20])
        rest.extend(results[20:])
        remainder = pickle.dumps(rest.block(BlockEncoder()), protocol=5)
        reference = self._encode_results_reference
        assert taken == pickle.dumps(reference(results[:11]), protocol=5)
        assert remainder == pickle.dumps(reference(results[11:]), protocol=5)
        decoded = BlockDecoder().decode_results(pickle.loads(taken))
        assert decoded == results[:11]


# ----------------------------------------------------------------------
# transport invariance (acceptance: byte-identical sequences/stats/metrics)
# ----------------------------------------------------------------------


def _dataset(duration_s=8, seed=31):
    return make_d3_syn(
        duration_ms=seconds(duration_s), seed=seed, inter_arrival_ms=50
    )


def _config(dataset, collect=True, adaptive=False):
    windows = [seconds(2)] * 3
    if not adaptive:
        return fixed_k_config(dataset.max_delay(), windows, CONDITION, collect)
    return PipelineConfig(
        window_sizes_ms=windows,
        condition=CONDITION,
        gamma=0.9,
        period_ms=seconds(10),
        interval_ms=seconds(1),
        initial_k_ms=0,
        collect_results=collect,
    )


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _sequence(results):
    return [(r.ts, r.key()) for r in results]


def _metric_fields(metrics):
    """The deterministic fields of merged PipelineMetrics (wall-clock
    ``adaptation_seconds`` excluded)."""
    return {
        "k_history": metrics.k_history,
        "shard_k_histories": metrics.shard_k_histories,
        "adaptations": metrics.adaptations,
        "results_produced": metrics.results_produced,
        "tuples_processed": metrics.tuples_processed,
        "latency_sum_ms": metrics.latency_sum_ms,
        "latency_count": metrics.latency_count,
        "latency_max_ms": metrics.latency_max_ms,
    }


def _run(dataset, config, shards, executor="serial",
         transport=TRANSPORT_BLOCKS, chunk_size=128, per_tuple=False):
    """Drive a PartitionedPipeline; return (outputs, metrics, join stats)."""
    pipeline = PartitionedPipeline(
        config, shards, executor=executor, batch_size=64, transport=transport
    )
    with pipeline:
        outputs = replay(
            pipeline, dataset.arrivals(), 1 if per_tuple else chunk_size
        )
        return outputs, pipeline.metrics, pipeline.join_statistics()


class TestTransportInvariance:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_blocks_match_serial_batched_engine(self, shards):
        dataset = _dataset()
        serial, m_serial, s_serial = _run(
            dataset, _config(dataset), shards, executor="serial"
        )
        blocks, m_blocks, s_blocks = _run(
            dataset, _config(dataset), shards, executor="process",
            transport=TRANSPORT_BLOCKS,
        )
        # Serial returns immediate results in per-shard production order;
        # the process executor defers everything to flush, which emits
        # the canonical (ts, key) order — identical multiset, and equal
        # sequences once both sides are canonicalized.
        assert sorted(_sequence(blocks)) == sorted(_sequence(serial))
        # Everything arrives at flush under the process executor, so its
        # whole sequence is the canonical order itself.
        assert _sequence(blocks) == sorted(_sequence(blocks))
        assert s_blocks == s_serial
        assert _metric_fields(m_blocks) == _metric_fields(m_serial)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_count_only_mode(self, shards):
        dataset = _dataset(seed=37)
        serial, m_serial, s_serial = _run(
            dataset, _config(dataset, collect=False), shards, executor="serial"
        )
        blocks, m_blocks, s_blocks = _run(
            dataset, _config(dataset, collect=False), shards,
            executor="process", transport=TRANSPORT_BLOCKS,
        )
        assert blocks == serial
        assert s_blocks == s_serial
        assert _metric_fields(m_blocks) == _metric_fields(m_serial)

    def test_adaptive_run_k_trajectories_identical(self):
        # ModelBasedPolicy adapts K per shard; the transport must not
        # perturb a single adaptation decision.
        dataset = _dataset(seed=43)
        blocks, m_blocks, s_blocks = _run(
            dataset, _config(dataset, adaptive=True), 2, executor="process",
            transport=TRANSPORT_BLOCKS,
        )
        serial, m_serial, s_serial = _run(
            dataset, _config(dataset, adaptive=True), 2, executor="serial"
        )
        assert _sequence(blocks) == sorted(_sequence(serial))
        assert s_blocks == s_serial
        assert _metric_fields(m_blocks) == _metric_fields(m_serial)

    def test_per_tuple_submission_over_blocks(self):
        # The submit() accumulation path (process() driver) must encode
        # the same blocks the batched driver does.
        dataset = _dataset(duration_s=6, seed=47)
        per_tuple, _, s_pt = _run(
            dataset, _config(dataset), 2, executor="process",
            transport=TRANSPORT_BLOCKS, per_tuple=True,
        )
        batched, _, s_b = _run(
            dataset, _config(dataset), 2, executor="process",
            transport=TRANSPORT_BLOCKS,
        )
        assert _sequence(per_tuple) == _sequence(batched)
        assert s_pt == s_b

    def test_broadcast_condition_over_blocks(self):
        # Non-partitionable condition: every shard receives the full
        # burst; shard-0 emission must reproduce the serial run.
        specs = [(i % 2, 100 * i, {"a1": i % 5}) for i in range(80)]
        dataset = from_tuple_specs(specs, num_streams=2)
        condition = JoinCondition([BandPredicate(0, "a1", 1, "a1", 1.0)])
        config = fixed_k_config(
            dataset.max_delay(), [seconds(2)] * 2, condition, True
        )
        serial, _, s_serial = _run(dataset, config, 3, executor="serial")
        blocks, _, s_blocks = _run(
            dataset, config, 3, executor="process", transport=TRANSPORT_BLOCKS
        )
        assert serial  # fixture actually joins
        assert sorted(_sequence(blocks)) == sorted(_sequence(serial))
        assert s_blocks == s_serial

    def test_rejects_unknown_transport(self):
        dataset = _dataset(duration_s=2)
        with pytest.raises(ValueError):
            ProcessExecutor(_config(dataset), 2, transport="carrier-pigeon")


# ----------------------------------------------------------------------
# executor lifecycle (startup-failure unwind)
# ----------------------------------------------------------------------


class TestWorkerWire:
    def test_worker_ships_the_bytes_one_shot_encoding_would(self):
        """The worker keeps a block under construction, not results: what
        it ships at a checkpoint and at the flush must still be, byte
        for byte, the one-shot encoding of the results a plain pipeline
        derives from the same batches — an empty batch and the
        checkpoint's accumulator restart included."""
        dataset = _dataset()
        config = _config(dataset)
        encoder = BlockEncoder()
        wire = [
            pickle.dumps(encoder.encode(batch), protocol=5)
            for batch in [*_chunks(list(dataset.arrivals()), 40), []]
        ]
        cut = len(wire) // 2
        wire.insert(cut, wire.pop())  # the empty batch, mid-stream

        parent_end, worker_end = multiprocessing.Pipe()
        worker = threading.Thread(target=shard_worker, args=(worker_end, 0, config))
        worker.start()
        channel = Channel(parent_end)
        try:
            for data in wire[: cut + 1]:
                channel.send((MSG_BATCH, pickle.loads(data)))
            channel.send((MSG_CHECKPOINT, CheckpointRequest(0, cut + 1)))
            assert channel.poll(30)
            tag, record = channel.recv()
            assert tag == MSG_CHECKPOINT
            for data in wire[cut + 1 :]:
                channel.send((MSG_BATCH, pickle.loads(data)))
            channel.send((MSG_FLUSH, None))
            assert channel.poll(30)
            tag, outcome = channel.recv()
            assert tag == "ok"
        finally:
            worker.join(timeout=30)
            channel.close()
        assert not worker.is_alive()

        # The same run in this thread, results kept as objects (the
        # checkpoint barrier included: it reorders same-ts tuples in
        # flight, so what follows it is only comparable with it).
        plain, decoder = QualityDrivenPipeline(config), BlockDecoder()
        request = CheckpointRequest(0, cut + 1)
        before, after = [], []
        for data in wire[: cut + 1]:
            before += plain.process_batch(decoder.decode(pickle.loads(data)))
        before += checkpoint_shard_state(plain, 0, request)[1]
        for data in wire[cut + 1 :]:
            after += plain.process_batch(decoder.decode(pickle.loads(data)))
        after += plain.flush()
        assert before and after
        reference = TestResultBlock._encode_results_reference
        for shipped, results in ((record.outputs, before), (outcome.outputs, after)):
            assert len(shipped) == len(results)
            assert pickle.dumps(shipped, protocol=5) == pickle.dumps(
                reference(results), protocol=5
            )


class TestWorkerCollectorState:
    """The worker handles each message with the cyclic collector paused
    and puts it back as found before its reply goes out: a probe sees it
    off, the host sees its own state again after every reply."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        was_enabled = gc.isenabled()
        yield
        (gc.enable if was_enabled else gc.disable)()

    @staticmethod
    def _start(config):
        parent_end, worker_end = multiprocessing.Pipe()
        worker = threading.Thread(target=shard_worker, args=(worker_end, 0, config))
        worker.start()
        return worker, Channel(parent_end)

    @staticmethod
    def _reply(channel):
        assert channel.poll(30)
        return channel.recv()

    @pytest.mark.parametrize("host_enabled", [True, False])
    def test_paused_in_the_probe_and_restored_after_each_reply(self, host_enabled):
        dataset = _dataset(duration_s=4)
        seen = []

        def recording(a, c):
            seen.append(gc.isenabled())
            return True

        condition = JoinCondition(
            [*CONDITION.predicates, ThetaPredicate((0, 2), recording)]
        )
        config = replace(_config(dataset), condition=condition)
        encoder = BlockEncoder()
        batches = [encoder.encode(b) for b in _chunks(list(dataset.arrivals()), 40)]
        cut = len(batches) // 2
        (gc.enable if host_enabled else gc.disable)()

        worker, channel = self._start(config)
        try:
            for block in batches[:cut]:
                channel.send((MSG_BATCH, block))
            channel.send((MSG_CHECKPOINT, CheckpointRequest(0, cut)))
            assert self._reply(channel)[0] == MSG_CHECKPOINT
            assert gc.isenabled() is host_enabled
            for block in batches[cut:]:
                channel.send((MSG_BATCH, block))
            channel.send((MSG_FLUSH, None))
            assert self._reply(channel)[0] == "ok"
            assert gc.isenabled() is host_enabled
        finally:
            worker.join(timeout=30)
            channel.close()
        assert seen and not any(seen)

        worker, channel = self._start(config)
        try:
            channel.send((MSG_BATCH, batches[0]))
            channel.send(("carrier-pigeon", None))
            tag, text = self._reply(channel)
            assert tag == "error" and "carrier-pigeon" in text
            assert gc.isenabled() is host_enabled
        finally:
            worker.join(timeout=30)
            channel.close()


class TestExecutorStartupFailure:
    def test_partial_startup_is_unwound(self, monkeypatch):
        """If Process.start() raises mid-loop, the already-started
        workers and their pipe fds must be released, not leaked."""
        real = multiprocessing.get_context("fork")
        started = []

        class FailingSecondStart(real.Process):
            def start(self):
                if started:
                    raise OSError("simulated fork failure")
                super().start()
                started.append(self)

        fake = types.SimpleNamespace(Pipe=real.Pipe, Process=FailingSecondStart)
        import repro.parallel.executors as executors_module

        monkeypatch.setattr(
            executors_module.multiprocessing, "get_context", lambda m: fake
        )
        dataset = _dataset(duration_s=2)
        with pytest.raises(OSError):
            ProcessExecutor(_config(dataset), 3)
        assert len(started) == 1
        started[0].join(timeout=10)
        assert not started[0].is_alive()

    def test_close_idempotent_after_failure_and_normal_use(self):
        dataset = _dataset(duration_s=2)
        executor = ProcessExecutor(_config(dataset), 2)
        executor.close()
        executor.close()  # second close is a no-op
        with pytest.raises(RuntimeError):
            executor.submit(0, StreamTuple(ts=1, values={"a1": 1}, stream=0))
