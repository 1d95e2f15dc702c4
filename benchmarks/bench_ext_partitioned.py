"""Extension — hash-partitioned parallel pipeline throughput (repro.parallel).

Sweeps shard counts over two workloads behind a fixed-K front end
(K >= max realized delay, so disorder handling is lossless and every
configuration must produce the identical result count):

* the original (D×3syn, Q×3) equi-join — light per-tuple work (~80 µs),
  which makes it a pure *overhead* probe: the serial executor exposes
  routing cost, the multiprocessing executor exposes transport cost.
  This run finishing in ~0.2 s is exactly what masked the pre-columnar
  IPC regression;
* the shared heavy-probe scenario (``common.heavy_probe_dataset``,
  small key domain, large windows, ≥10× the per-tuple work) — the
  regime where per-shard worker processes can actually amortize their
  IPC and, given ≥2 CPU cores, overtake the single pipeline.

The multiprocessing executor runs the columnar block transport (the
default); ``benchmarks/bench_ext_columnar.py`` holds the transport
comparison and its acceptance gates.
"""

from common import (
    HEAVY_WINDOW_S,
    best_of,
    experiment,
    heavy_probe_config,
    heavy_probe_dataset,
    report,
)

from repro import QualityDrivenPipeline, replay, run_partitioned
from repro.workloads import fixed_k_config

SHARD_COUNTS = (1, 2, 4)
HEAVY_CHUNK = 1024


def _timed_rows(dataset, configurations):
    """Run each configuration once, in order; report rows and counts."""
    counts, walls = best_of(configurations)
    rows = [
        (label, counts[label], f"{walls[label]:.2f}",
         f"{len(dataset) / walls[label]:,.0f}")
        for label, _ in configurations
    ]
    return rows, counts


def _sweep():
    exp = experiment("d3")
    dataset = exp.dataset()
    k_ms = dataset.max_delay()
    config = lambda: fixed_k_config(  # noqa: E731 - local factory
        k_ms, exp.window_sizes_ms, exp.condition
    )

    def partitioned(shards, **options):
        return lambda: run_partitioned(dataset, config(), shards, **options)[0]

    configurations = [
        (
            "single-pipeline",
            lambda: replay(QualityDrivenPipeline(config()), dataset.arrivals()),
        )
    ]
    for shards in SHARD_COUNTS:
        configurations.append(
            (f"serial x{shards}", partitioned(shards, executor="serial"))
        )
    for shards in SHARD_COUNTS:
        configurations.append(
            (
                f"process x{shards}",
                partitioned(shards, executor="process", batch_size=512),
            )
        )
    rows, counts = _timed_rows(dataset, configurations)
    report(
        "ext_partitioned",
        "Extension — partitioned pipeline throughput vs shard count "
        "(D3syn, Q3, fixed K)",
        ["configuration", "results", "wall (s)", "tuples/s"],
        rows,
    )
    return counts


def _heavy_sweep():
    dataset = heavy_probe_dataset()
    k_ms = dataset.max_delay()
    config = lambda: heavy_probe_config(k_ms)  # noqa: E731 - local factory

    def partitioned(shards, **options):
        return lambda: run_partitioned(
            dataset, config(), shards, chunk_size=HEAVY_CHUNK, **options
        )[0]

    configurations = [
        (
            "single-pipeline",
            lambda: replay(
                QualityDrivenPipeline(config()), dataset.arrivals(), HEAVY_CHUNK
            ),
        )
    ]
    for shards in (2, 4):
        configurations.append(
            (f"serial x{shards}", partitioned(shards, executor="serial"))
        )
    for shards in (2, 4):
        configurations.append(
            (
                f"process x{shards}",
                partitioned(shards, executor="process", batch_size=HEAVY_CHUNK),
            )
        )
    rows, counts = _timed_rows(dataset, configurations)
    report(
        "ext_partitioned_heavy",
        "Extension — partitioned pipeline on the heavy-probe scenario "
        f"({len(dataset)} tuples, W = {HEAVY_WINDOW_S} s, columnar transport)",
        ["configuration", "results", "wall (s)", "tuples/s"],
        rows,
    )
    return counts


def test_ext_partitioned(benchmark):
    counts = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    # Lossless front end + exact equi partitioning: every configuration
    # must produce the identical result count.
    assert len(set(counts.values())) == 1


def test_ext_partitioned_heavy(benchmark):
    counts = benchmark.pedantic(_heavy_sweep, rounds=1, iterations=1)
    assert len(set(counts.values())) == 1
