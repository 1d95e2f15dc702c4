"""Extension — pipelined ingestion + shared-memory transport vs synchronous.

Measures the ISSUE-9 ingestion path on the shared count-only heavy-probe
scenario (``common.heavy_probe_dataset``), the regime where shard
parallelism pays and the synchronous drive loop's serial routing/encoding
is the exposed bottleneck:

1. **Synchronous baselines** — the single pipeline and the process
   executor at 4 shards, block transport over the pipe and over the
   shared-memory rings (``transport="shm"``).
2. **Pipelined drives** — the same process configurations behind a
   :class:`~repro.parallel.ingest.PipelinedIngest` feeder thread with a
   credit window armed: routing + block encoding overlap shard compute.

Gates are core-count-aware, mirroring ``bench_ext_columnar``: on a
multi-core machine at full workload scale the pipelined shm executor at
4 shards must beat the synchronous pipe executor at 4 shards by
``MIN_PIPELINED_SPEEDUP`` and the shm transport must not lose to the
pipe; everywhere else (single core, CI smoke scale) only the
``MIN_PIPELINED_FLOOR`` sanity floor applies — on one core feeder and
shards time-slice the same core, so parity is the physical ceiling.
Byte-identity of the pipelined/shm paths is proven in
``tests/test_ingest.py`` / ``tests/test_shm_transport.py``; this file
only measures — but still asserts count identity across every
configuration, because a transport that changes results has no
performance story to tell.
"""

from common import (
    CPUS,
    MULTICORE,
    bench_scale,
    best_of,
    heavy_probe_config,
    heavy_probe_dataset,
    report,
)

from repro import (
    TRANSPORT_BLOCKS,
    TRANSPORT_SHM,
    QualityDrivenPipeline,
    replay,
    run_partitioned,
)

CHUNK_SIZE = 1024
ROUNDS = 2
SHARDS = 4
#: Dispatched-but-unprocessed batches per shard before the feeder
#: stalls: deep enough to keep every shard busy, shallow enough that
#: the backpressure path is genuinely exercised.
CREDIT_WINDOW = 4
#: Strict gate (multi-core, full workload scale only): pipelined shm x4
#: vs the synchronous pipe x4 baseline.  Overlapping the feeder's
#: routing+encoding with shard compute reclaims the serial fraction of
#: the drive loop, and the ring saves the kernel's pipe copy.
MIN_PIPELINED_SPEEDUP = 1.3
#: Sanity floor everywhere: pipelining adds one thread hop and the ring
#: adds cursor polling, so modest overhead is legal on a single core —
#: collapse beyond 25% is a regression even there.
MIN_PIPELINED_FLOOR = 0.75
#: Floor for shm vs pipe at the same configuration (strict >= 1.0 only
#: on multi-core at full scale).
MIN_SHM_VS_PIPE_FLOOR = 0.75


def _sweep():
    dataset = heavy_probe_dataset()
    tuples = len(dataset)
    k_ms = dataset.max_delay()
    config = lambda: heavy_probe_config(k_ms)  # noqa: E731 - local factory

    def single():
        return replay(QualityDrivenPipeline(config()), dataset.arrivals(), CHUNK_SIZE)

    def partitioned(transport, pipelined):
        def run():
            count, _ = run_partitioned(
                dataset, config(), SHARDS, executor="process",
                batch_size=CHUNK_SIZE, chunk_size=CHUNK_SIZE,
                transport=transport, pipelined=pipelined,
                credit_window=CREDIT_WINDOW if pipelined else None,
            )
            return count

        return run

    configurations = [("single pipeline", single)]
    for transport, tname in ((TRANSPORT_BLOCKS, "pipe"), (TRANSPORT_SHM, "shm")):
        configurations.append(
            (f"sync x{SHARDS} {tname}", partitioned(transport, False))
        )
        configurations.append(
            (f"pipelined x{SHARDS} {tname}", partitioned(transport, True))
        )
    counts, best = best_of(configurations, ROUNDS)
    rates = {label: tuples / wall for label, wall in best.items()}
    rows = [
        (label, counts[label], f"{best[label]:.2f}", f"{rates[label]:,.0f}")
        for label, _ in configurations
    ]
    for tname in ("pipe", "shm"):
        ratio = rates[f"pipelined x{SHARDS} {tname}"] / rates[f"sync x{SHARDS} {tname}"]
        rows.append((f"pipelined/sync ({tname})", "", "", f"{ratio:.2f}x"))
    shm_ratio = rates[f"pipelined x{SHARDS} shm"] / rates[f"pipelined x{SHARDS} pipe"]
    rows.append(("shm/pipe (pipelined)", "", "", f"{shm_ratio:.2f}x"))
    report(
        "ext_ingest",
        "Extension — pipelined ingestion + shm transport vs synchronous "
        f"drive ({tuples} tuples, {SHARDS} shards, {CPUS} CPU(s))",
        ["configuration", "results", "wall (s)", "tuples/s"],
        rows,
    )
    return counts, rates


def test_ext_ingest(benchmark):
    counts, rates = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    # Neither the feeder thread nor the ring may change results.
    assert len(set(counts.values())) == 1
    sync_pipe = rates[f"sync x{SHARDS} pipe"]
    sync_shm = rates[f"sync x{SHARDS} shm"]
    pipe_lined = rates[f"pipelined x{SHARDS} pipe"]
    shm_lined = rates[f"pipelined x{SHARDS} shm"]
    # Sanity floors hold on any machine, smoke scale included.
    assert pipe_lined >= MIN_PIPELINED_FLOOR * sync_pipe, (
        f"pipelined pipe {pipe_lined:,.0f} t/s collapsed vs sync "
        f"{sync_pipe:,.0f} t/s ({pipe_lined / sync_pipe:.2f}x)"
    )
    assert shm_lined >= MIN_PIPELINED_FLOOR * sync_shm, (
        f"pipelined shm {shm_lined:,.0f} t/s collapsed vs sync "
        f"{sync_shm:,.0f} t/s ({shm_lined / sync_shm:.2f}x)"
    )
    assert sync_shm >= MIN_SHM_VS_PIPE_FLOOR * sync_pipe, (
        f"shm transport {sync_shm:,.0f} t/s collapsed vs pipe "
        f"{sync_pipe:,.0f} t/s ({sync_shm / sync_pipe:.2f}x)"
    )
    if MULTICORE and bench_scale() >= 1.0:
        # Strict gates only where the physics allow a win: >=2 cores so
        # the feeder genuinely overlaps shard compute, full workload so
        # spawn overhead amortizes.
        assert shm_lined >= MIN_PIPELINED_SPEEDUP * sync_pipe, (
            f"on {CPUS} CPUs pipelined shm x{SHARDS} {shm_lined:,.0f} t/s "
            f"< {MIN_PIPELINED_SPEEDUP}x sync pipe {sync_pipe:,.0f} t/s"
        )
        assert shm_lined >= pipe_lined, (
            f"on {CPUS} CPUs shm {shm_lined:,.0f} t/s lost to the pipe "
            f"{pipe_lined:,.0f} t/s at the same pipelined configuration"
        )
