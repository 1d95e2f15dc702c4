"""Hash-partitioned parallel execution of an m-way equi-join.

Scales the quality-driven pipeline out to N shards: a ``KeyRouter``
extracts the equi-join key from the ``JoinCondition`` and hash-routes
every tuple to exactly one shard, each shard running a complete
pipeline (K-slack → Synchronizer → MSWJ → adaptation).  With a fixed K
covering the maximum delay the front end is lossless, so every shard
count must produce the identical result multiset — verified below for
the in-process serial executor and the multiprocessing executor.

Note: this demo collects every JoinResult so it can compare multisets,
which makes the worker processes pickle the full result set back through
their pipes — IPC-dominated and slower than the single pipeline.  The
high-throughput configuration for the process executor is
``collect_results=False`` (counts only), as benchmarked in
``benchmarks/bench_ext_partitioned.py``.

Run with::

    python examples/partitioned_join.py
    python examples/partitioned_join.py --store tiered --hot-budget 256

``--store tiered`` runs every variant on the tiered window store — a
bounded hot object tier over columnar cold segments — and the multiset
comparison doubles as the byte-identity demo: the store changes the
memory shape of the join state, never its output.
"""

import argparse
import time
from collections import Counter

from repro import (
    FixedKPolicy,
    PipelineConfig,
    QualityDrivenPipeline,
    TieredStoreConfig,
    equi_join_chain,
    make_d3_syn,
    run_partitioned,
    seconds,
)

CONDITION = equi_join_chain("a1", 3)

#: Window-store spec every pipeline below runs on (set by --store).
STORE = None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--store",
        choices=("memory", "tiered"),
        default="memory",
        help="window store backing every shard's join state "
             "(default: memory)",
    )
    parser.add_argument(
        "--hot-budget", type=int, default=None, metavar="N",
        help="tiered hot-tier budget in tuples (implies --store tiered)",
    )
    parser.add_argument(
        "--bucket-span-ms", type=int, default=None, metavar="MS",
        help="tiered cold-bucket span in ms (implies --store tiered)",
    )
    return parser.parse_args(argv)


def store_spec(args):
    if (
        args.store != "tiered"
        and args.hot_budget is None
        and args.bucket_span_ms is None
    ):
        return None
    overrides = {}
    if args.hot_budget is not None:
        overrides["hot_budget"] = args.hot_budget
    if args.bucket_span_ms is not None:
        overrides["bucket_span_ms"] = args.bucket_span_ms
    return TieredStoreConfig(**overrides)


def config(k_ms):
    return PipelineConfig(
        window_sizes_ms=[seconds(2)] * 3,
        condition=CONDITION,
        gamma=0.95,
        period_ms=seconds(15),
        interval_ms=seconds(1),
        policy=FixedKPolicy(k_ms),
        initial_k_ms=k_ms,
        collect_results=True,
        store=STORE,
    )


def main(argv=None):
    global STORE
    args = parse_args(argv)
    STORE = store_spec(args)
    if STORE is not None:
        print(f"window store: {STORE}\n")
    dataset = make_d3_syn(duration_ms=seconds(40), seed=42, inter_arrival_ms=20)
    print(dataset.describe())
    print(f"partition key assignment: {CONDITION.partition_attributes(3)}")
    k_ms = dataset.max_delay()
    print(f"fixed K = {k_ms} ms (covers every realized delay)\n")

    started = time.perf_counter()
    single = QualityDrivenPipeline(config(k_ms))
    baseline = []
    for t in dataset.arrivals():
        baseline.extend(single.process(t))
    baseline.extend(single.flush())
    elapsed = time.perf_counter() - started
    reference = Counter(r.key() for r in baseline)
    print(
        f"{'single pipeline':<22} {len(baseline):>8} results  "
        f"{elapsed:6.2f} s  {len(dataset) / elapsed:>9,.0f} tuples/s"
    )
    if STORE is not None:
        m = single.metrics
        print(
            f"{'':<22} state peaks per stream: "
            f"resident={m.stream_resident_objects} "
            f"hot={m.stream_hot_objects} "
            f"encoded_bytes={m.stream_encoded_bytes} "
            f"decode hits/misses={m.decode_hits}/{m.decode_misses}"
        )

    for executor in ("serial", "process"):
        for shards in (2, 4):
            started = time.perf_counter()
            outputs, metrics = run_partitioned(
                dataset, config(k_ms), shards, executor=executor
            )
            elapsed = time.perf_counter() - started
            same = Counter(r.key() for r in outputs) == reference
            print(
                f"{executor + ' x' + str(shards):<22} {len(outputs):>8} results  "
                f"{elapsed:6.2f} s  {len(dataset) / elapsed:>9,.0f} tuples/s  "
                f"multiset == single: {same}  "
                f"(adaptations across shards: {metrics.adaptations})"
            )

    # The batched driver: chunk the arrival stream and let process_batch
    # route one burst per shard per call instead of one envelope per
    # tuple.  (Serial executor here — this demo collects every result, so
    # the process executor's pipes would drown the dispatch contrast; see
    # benchmarks/bench_ext_batched.py for the count-only throughput runs.)
    for shards in (2, 4):
        started = time.perf_counter()
        outputs, metrics = run_partitioned(
            dataset, config(k_ms), shards, executor="serial", chunk_size=512
        )
        elapsed = time.perf_counter() - started
        same = Counter(r.key() for r in outputs) == reference
        print(
            f"{'batched x' + str(shards):<22} {len(outputs):>8} results  "
            f"{elapsed:6.2f} s  {len(dataset) / elapsed:>9,.0f} tuples/s  "
            f"multiset == single: {same}"
        )

    # Carrier contrast: this demo collects every JoinResult, so the
    # full result set rides back from the workers at flush as one
    # columnar ResultBlock per shard — over the worker pipe ("blocks")
    # or through a shared-memory ring ("shm"), same frames either way.
    for transport in ("blocks", "shm"):
        started = time.perf_counter()
        outputs, _ = run_partitioned(
            dataset, config(k_ms), 2, executor="process",
            chunk_size=512, transport=transport,
        )
        elapsed = time.perf_counter() - started
        same = Counter(r.key() for r in outputs) == reference
        print(
            f"{'process x2 ' + transport:<22} {len(outputs):>8} results  "
            f"{elapsed:6.2f} s  {len(dataset) / elapsed:>9,.0f} tuples/s  "
            f"multiset == single: {same}"
        )

    # Skew-aware rebalancing: with rebalance=True the router's virtual
    # slot table is re-planned against the observed per-slot load and
    # moved slots' window state migrates between shards mid-run.  D3syn
    # keys are near-uniform, so little moves here — point
    # benchmarks/bench_ext_skew.py at a Zipf hot-key workload to see the
    # imbalance drop; the result multiset is identical either way.
    started = time.perf_counter()
    pipeline_outputs = []
    from repro import PartitionedPipeline, load_imbalance

    with PartitionedPipeline(
        config(k_ms), 4, rebalance=True, rebalance_interval=512,
    ) as pipeline:
        for t in dataset.arrivals():
            pipeline_outputs.extend(pipeline.process(t))
        pipeline_outputs.extend(pipeline.flush())
        shard_loads = list(pipeline.router.shard_loads)
        rebalances, moved = pipeline.rebalances, pipeline.slots_moved
    elapsed = time.perf_counter() - started
    same = Counter(r.key() for r in pipeline_outputs) == reference
    imbalance = load_imbalance(shard_loads)
    print(
        f"{'rebalancing x4':<22} {len(pipeline_outputs):>8} results  "
        f"{elapsed:6.2f} s  {len(dataset) / elapsed:>9,.0f} tuples/s  "
        f"multiset == single: {same}  "
        f"(imbalance {imbalance:.3f}, {rebalances} rebalances, "
        f"{moved} slots moved)"
    )

    print(
        "\nEvery shard count reproduces the single pipeline's result multiset\n"
        "exactly: hash partitioning by the equi-join key sends all tuples of\n"
        "any joinable combination to the same shard.  The batched driver\n"
        "(process_batch / chunk_size) is a pure dispatch optimization on top\n"
        "— see benchmarks/bench_ext_batched.py for the throughput contrast —\n"
        "and the process executor always moves routed batches and collected\n"
        "results as flat columnar blocks; `transport` only picks what carries\n"
        "them (benchmarks/bench_ext_columnar.py measures the codec)."
    )


if __name__ == "__main__":
    main()
