"""Extension — the columnar tuple-block transport.

Measures the :mod:`repro.core.blocks` codec at three levels:

1. **Codec microbench** — encode+pickle / unpickle+decode cost and wire
   size per tuple, columnar blocks vs pickling the tuple objects
   themselves, across payload widths.  Pure transport, no pipeline: the
   deterministic headline, and the reason the process executor has no
   other wire format.
2. **Collect-heavy end-to-end** — a selective join whose *result set*
   dwarfs its input, with ``collect_results=True``: every result rides
   back through the worker pipe at flush as a ``ResultBlock``.  The
   transport-dominated regime; reported, and gated on result-count
   identity with the single pipeline.
3. **Heavy-probe end-to-end** — the shared count-only heavy scenario
   (``common.heavy_probe_dataset``): enough probe work per tuple to
   amortize IPC, the regime where shard parallelism can actually pay.
   Gate: the columnar process executor at 2 shards must not fall below
   ``MIN_VS_SINGLE_FLOOR``× the single pipeline anywhere, and must beat
   it outright when ≥2 CPU cores are available (on a single core the
   shards time-slice one core, so parity is the physical ceiling; the
   CPU count is recorded with the results).

Sequence/statistics identity of the block transport with the serial
executor is proven in ``tests/test_blocks.py``; this file only measures.
"""

import pickle
import random
import time

from common import (
    CPUS,
    MULTICORE,
    bench_scale,
    best_of,
    heavy_probe_config,
    heavy_probe_dataset,
    report,
    scaled,
)

from repro import (
    BlockDecoder,
    BlockEncoder,
    QualityDrivenPipeline,
    StreamTuple,
    replay,
    run_partitioned,
)

CHUNK_SIZE = 1024
ROUNDS = 2
#: Gate: columnar process x2 vs the single pipeline on the
#: heavy-probe scenario.  Loose floor everywhere (CI machines are noisy,
#: single-core machines cap at parity — observed ratios sit at 0.97—1.1
#: with occasional 15% load spikes); outright win required on >=2 cores
#: at full workload scale.
MIN_VS_SINGLE_FLOOR = 0.8
MIN_CODEC_SPEEDUP = 1.3


# ----------------------------------------------------------------------
# 1. codec microbench
# ----------------------------------------------------------------------


def _payload_batch(num, width, seed=1):
    rng = random.Random(seed)
    batch = []
    for i in range(num):
        values = {"a1": rng.randint(1, 500)}
        for j in range(1, width):
            values[f"a{j + 1}"] = (
                rng.randint(1, 500) if j % 3 else f"val-{i % 50}-{j}"
            )
        batch.append(
            StreamTuple(ts=i * 5, values=values, stream=i % 3, seq=i,
                        arrival=i * 5 + 2)
        )
    return batch


def _codec_micro():
    rows = []
    speedups = {}
    # Fixed batch size: the microbench models one production-sized pipe
    # message (~batch_size tuples); shrinking it with REPRO_BENCH_SCALE
    # would just surface per-block fixed costs no real message pays.
    num = 4_096
    repeats = scaled(10, floor=3)
    for width in (2, 6, 12):
        batch = _payload_batch(num, width)
        encoder, decoder = BlockEncoder(), BlockDecoder()
        obj_s = blk_s = float("inf")
        # Interleaved best-of repeats: load spikes on a shared machine
        # hit both codecs alike instead of whichever ran second.
        for _ in range(repeats):
            started = time.perf_counter()
            wire_obj = pickle.dumps(batch, protocol=5)
            pickle.loads(wire_obj)
            obj_s = min(obj_s, time.perf_counter() - started)
            started = time.perf_counter()
            wire_blk = pickle.dumps(encoder.encode(batch), protocol=5)
            decoder.decode(pickle.loads(wire_blk))
            blk_s = min(blk_s, time.perf_counter() - started)
        speedups[width] = obj_s / blk_s
        rows.append(
            (
                f"{width} attrs",
                f"{obj_s * 1e6 / num:.2f}",
                f"{blk_s * 1e6 / num:.2f}",
                f"{obj_s / blk_s:.2f}x",
                f"{len(wire_obj) / num:.0f}",
                f"{len(wire_blk) / num:.0f}",
                f"{len(wire_obj) / len(wire_blk):.2f}x",
            )
        )
    report(
        "ext_columnar_codec",
        "Extension — columnar block codec vs per-object pickling "
        f"(round trip, {num}-tuple batches)",
        [
            "payload", "objects us/t", "blocks us/t", "speedup",
            "objects B/t", "blocks B/t", "size ratio",
        ],
        rows,
    )
    return speedups


# ----------------------------------------------------------------------
# 2. collect-heavy end-to-end (transport-dominated return path)
# ----------------------------------------------------------------------


def _versus_single(dataset, config, shard_counts):
    """The single pipeline vs the columnar process executor at
    ``shard_counts``, best of ``ROUNDS``: (counts, walls, rates, rows).

    A count is the number of results in either collect mode.
    """

    def count(outputs):
        return outputs if isinstance(outputs, int) else len(outputs)

    def partitioned(shards):
        return lambda: count(
            run_partitioned(
                dataset, config(), shards, executor="process",
                batch_size=CHUNK_SIZE, chunk_size=CHUNK_SIZE,
            )[0]
        )

    configurations = [
        (
            "single pipeline",
            lambda: count(
                replay(QualityDrivenPipeline(config()), dataset.arrivals(), CHUNK_SIZE)
            ),
        )
    ]
    configurations += [
        (f"process x{shards} blocks", partitioned(shards)) for shards in shard_counts
    ]
    counts, best = best_of(configurations, ROUNDS)
    rates = {label: len(dataset) / wall for label, wall in best.items()}
    rows = [
        (label, counts[label], f"{best[label]:.2f}", f"{rates[label]:,.0f}")
        for label, _ in configurations
    ]
    return counts, best, rates, rows


def _collect_heavy():
    dataset = heavy_probe_dataset()
    k_ms = dataset.max_delay()
    # Shorter windows than the count-only heavy run: collected results
    # are materialized objects, and the 12 s windows' result volume
    # would be memory-, not transport-, bound.
    counts, _, _, rows = _versus_single(
        dataset,
        lambda: heavy_probe_config(k_ms, window_s=3, collect=True),
        (1, 2),
    )
    report(
        "ext_columnar_collect",
        "Extension — collect-heavy join, full result set shipped back "
        f"({len(dataset)} tuples, {CPUS} CPU(s))",
        ["configuration", "results", "wall (s)", "tuples/s"],
        rows,
    )
    return counts


# ----------------------------------------------------------------------
# 3. heavy-probe end-to-end (count-only)
# ----------------------------------------------------------------------


def _heavy_probe():
    dataset = heavy_probe_dataset()
    tuples = len(dataset)
    k_ms = dataset.max_delay()
    counts, best, rates, rows = _versus_single(
        dataset, lambda: heavy_probe_config(k_ms), (2, 4)
    )
    work_us = best["single pipeline"] / tuples * 1e6
    for shards in (2, 4):
        ratio = rates[f"process x{shards} blocks"] / rates["single pipeline"]
        rows.append((f"blocks x{shards} / single", "", "", f"{ratio:.2f}x"))
    rows.append(("single-pipeline work per tuple", "", "", f"{work_us:.0f} us"))
    report(
        "ext_columnar_heavy",
        "Extension — heavy-probe scenario, columnar process executor vs "
        f"single pipeline ({tuples} tuples, {CPUS} CPU(s))",
        ["configuration", "results", "wall (s)", "tuples/s"],
        rows,
    )
    return counts, rates


def _sweep():
    codec_speedups = _codec_micro()
    collect_counts = _collect_heavy()
    heavy_counts, heavy_rates = _heavy_probe()
    return codec_speedups, collect_counts, heavy_counts, heavy_rates


def test_ext_columnar(benchmark):
    codec, collect_counts, heavy_counts, heavy_rates = benchmark.pedantic(
        _sweep, rounds=1, iterations=1
    )
    # Every configuration of one scenario must produce the same count —
    # transport is never allowed to change results.
    assert len(set(collect_counts.values())) == 1
    assert len(set(heavy_counts.values())) == 1
    # Codec headline: the narrow-payload round trip (the partitioned
    # engine's own workload shape) must beat object pickling clearly.
    assert codec[2] >= MIN_CODEC_SPEEDUP, (
        f"codec round trip {codec[2]:.2f}x < {MIN_CODEC_SPEEDUP}x"
    )
    # Gate: heavy-probe, columnar process x2 vs the single pipeline.
    single = heavy_rates["single pipeline"]
    blocks2 = heavy_rates["process x2 blocks"]
    assert blocks2 >= MIN_VS_SINGLE_FLOOR * single, (
        f"heavy-probe: blocks x2 {blocks2:,.0f} t/s vs single "
        f"{single:,.0f} t/s ({blocks2 / single:.2f}x < {MIN_VS_SINGLE_FLOOR}x)"
    )
    if MULTICORE and bench_scale() >= 1.0:
        # Outright win demanded only at full workload scale: the smoke
        # scale's shrunken runs leave worker spawn overhead visible.
        assert blocks2 >= single, (
            f"heavy-probe on {CPUS} CPUs: blocks x2 {blocks2:,.0f} t/s did "
            f"not beat single {single:,.0f} t/s"
        )
