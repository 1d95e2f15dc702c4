"""Extension — skew-aware slot routing + live rebalancing vs static hashing.

The paper's synthetic workloads draw join-attribute values from bounded
Zipf distributions (Sec. VI); this bench points that skew at the
partitioned engine and measures what the virtual-slot router's
rebalancer buys (and must not cost):

1. **Shard-load imbalance under skew** — the Zipf hot-key scenario
   (``common.skewed_hot_key_dataset``) at skews z ∈ {0, 1.0, 1.2, 1.5},
   serial executor (deterministic), static vs adaptive routing.  Load =
   routed tuples per shard from the router's counters, imbalance =
   max/mean (1.0 is perfect).  Gate: at every z ≥ 1 with 4 shards,
   adaptive routing cuts the imbalance to ≤ ``MAX_IMBALANCE_RATIO`` ×
   static; at z = 0 (uniform control) the rebalancer never fires.  A
   hard floor exists: one hot *key* cannot be split below its own share
   (key → slot → one shard is what keeps equi-joins exact), so the z=1.5
   row stays above 1.5 — isolating, not splitting, the hot key.
2. **Uniform heavy-probe guard** — the shared count-only heavy scenario
   (``common.heavy_probe_dataset``) under the process executor with
   rebalancing on vs off.  Rebalancing must be free where it has nothing
   to fix: identical result counts, wall-clock within
   ``MIN_UNIFORM_RATIO`` of static.
3. **Skewed end-to-end timing** — the z=1.2 scenario under the process
   executor at 2/4 shards, static vs adaptive (reported; on a single
   core the shards time-slice, so only the no-slower floor is gated —
   the load-balance gain shows as shard overlap only with ≥ 2 cores).

Result identity (sequences + join statistics, byte-level) is proven in
``tests/test_rebalance.py``; this file measures load and wall-clock.
"""

from common import (
    CPUS,
    best_of,
    heavy_probe_config,
    heavy_probe_dataset,
    report,
    skewed_hot_key_dataset,
)

from repro import (
    PartitionedPipeline,
    equi_join_chain,
    load_imbalance,
    replay,
    run_partitioned,
    seconds,
)
from repro.workloads import fixed_k_config

CHUNK_SIZE = 256
REBALANCE_INTERVAL = 512
#: Gate 1: adaptive imbalance must be at most this fraction of static's
#: on every skewed (z >= 1) row at 4 shards.  Observed ratios sit at
#: 0.73–0.85 (the z=1.5 row is floored by the unsplittable hot key).
MAX_IMBALANCE_RATIO = 0.9
#: Gates 2/3: adaptive wall-clock must stay within this factor of
#: static (noise floor; observed parity ±6% on a shared 1-CPU box).
MIN_UNIFORM_RATIO = 0.7




def _skewed_config(dataset):
    """The skewed scenario's lossless config: 1 s windows, equi chain."""
    return fixed_k_config(
        dataset.max_delay(), [seconds(1)] * 3, equi_join_chain("a1", 3)
    )


# ----------------------------------------------------------------------
# 1. shard-load imbalance under value skew
# ----------------------------------------------------------------------


def _imbalance_sweep():
    rows = []
    outcomes = {}
    for z in (0.0, 1.0, 1.2, 1.5):
        dataset = skewed_hot_key_dataset(z=z)
        for shards in (2, 4):
            measured = {}
            for label, rebalance in (("static", False), ("adaptive", True)):
                with PartitionedPipeline(
                    _skewed_config(dataset),
                    shards,
                    rebalance=rebalance,
                    rebalance_interval=REBALANCE_INTERVAL,
                ) as pipeline:
                    measured[label] = (
                        replay(pipeline, dataset.arrivals(), CHUNK_SIZE),
                        load_imbalance(pipeline.router.shard_loads),
                        pipeline.rebalances,
                        pipeline.slots_moved,
                    )
            static, adaptive = measured["static"], measured["adaptive"]
            outcomes[(z, shards)] = (static, adaptive)
            rows.append(
                (
                    f"z={z}",
                    f"x{shards}",
                    f"{static[0]:,}",
                    "yes" if adaptive[0] == static[0] else "NO",
                    f"{static[1]:.3f}",
                    f"{adaptive[1]:.3f}",
                    f"{adaptive[1] / static[1]:.2f}x",
                    str(adaptive[2]),
                    str(adaptive[3]),
                )
            )
    report(
        "ext_skew_imbalance",
        "Extension — shard-load imbalance (max/mean routed tuples): "
        "static hashing vs adaptive slot rebalancing, serial executor",
        [
            "skew", "shards", "results", "identical", "imb static",
            "imb adaptive", "ratio", "rebalances", "slots moved",
        ],
        rows,
    )
    return outcomes


def _process_runs(dataset, config, shard_counts):
    """Static vs adaptive routing under the process executor, each run
    timed once: ``{(shards, routing): (result count, wall s)}``."""

    def run(shards, rebalance):
        return lambda: run_partitioned(
            dataset,
            config(),
            shards,
            executor="process",
            batch_size=CHUNK_SIZE,
            chunk_size=CHUNK_SIZE,
            rebalance=rebalance,
            rebalance_interval=REBALANCE_INTERVAL,
        )[0]

    counts, walls = best_of(
        [
            ((shards, label), run(shards, rebalance))
            for shards in shard_counts
            for label, rebalance in (("static", False), ("adaptive", True))
        ]
    )
    return {key: (count, walls[key]) for key, count in counts.items()}


def _rate_row(label, count, elapsed, tuples):
    return (label, f"{count:,}", f"{elapsed:.2f}", f"{tuples / elapsed:,.0f}")


# ----------------------------------------------------------------------
# 2. uniform heavy-probe guard (rebalancing must cost nothing)
# ----------------------------------------------------------------------


def _uniform_guard():
    dataset = heavy_probe_dataset()
    k_ms = dataset.max_delay()
    runs = _process_runs(dataset, lambda: heavy_probe_config(k_ms), (2,))
    measured = {label: run for (_, label), run in runs.items()}
    rows = [
        _rate_row(label, count, elapsed, len(dataset))
        for label, (count, elapsed) in measured.items()
    ]
    rows.append(
        (
            "adaptive/static wall",
            "",
            f"{measured['static'][1] / measured['adaptive'][1]:.2f}x",
            "",
        )
    )
    report(
        "ext_skew_uniform",
        "Extension — uniform heavy-probe guard: rebalancing on vs off "
        f"(process x2, count-only, {CPUS} CPU(s))",
        ["routing", "results", "wall s", "tuples/s"],
        rows,
    )
    return measured


# ----------------------------------------------------------------------
# 3. skewed end-to-end timing under the process executor
# ----------------------------------------------------------------------


def _skewed_process():
    dataset = skewed_hot_key_dataset(z=1.2)
    measured = _process_runs(dataset, lambda: _skewed_config(dataset), (2, 4))
    report(
        "ext_skew_process",
        "Extension — Zipf z=1.2 hot-key scenario under the process "
        f"executor ({CPUS} CPU(s); shard overlap needs >= 2 cores)",
        ["configuration", "results", "wall s", "tuples/s"],
        [
            _rate_row(f"x{shards} {label}", count, elapsed, len(dataset))
            for (shards, label), (count, elapsed) in measured.items()
        ],
    )
    return measured


def _sweep():
    return _imbalance_sweep(), _uniform_guard(), _skewed_process()


def test_ext_skew(benchmark):
    imbalance, uniform, skewed = benchmark.pedantic(
        _sweep, rounds=1, iterations=1
    )
    for (z, shards), (static, adaptive) in imbalance.items():
        # Routing is never allowed to change results.
        assert adaptive[0] == static[0], (
            f"z={z} x{shards}: adaptive produced {adaptive[0]} results "
            f"vs static {static[0]}"
        )
        if z == 0.0:
            # Uniform control: nothing to fix, nothing fired.
            assert adaptive[2] == 0, (
                f"uniform z=0 x{shards}: rebalancer fired {adaptive[2]} times"
            )
        if z >= 1.0 and shards == 4:
            # The acceptance gate: skewed load must get measurably flatter.
            assert adaptive[1] <= MAX_IMBALANCE_RATIO * static[1], (
                f"z={z} x{shards}: adaptive imbalance {adaptive[1]:.3f} vs "
                f"static {static[1]:.3f} "
                f"({adaptive[1] / static[1]:.2f}x > {MAX_IMBALANCE_RATIO}x)"
            )
            assert adaptive[3] > 0  # slots actually moved
    # Uniform heavy-probe guard: identical counts, no meaningful slowdown.
    assert uniform["adaptive"][0] == uniform["static"][0]
    assert uniform["adaptive"][1] <= uniform["static"][1] / MIN_UNIFORM_RATIO, (
        f"uniform heavy-probe: adaptive {uniform['adaptive'][1]:.2f}s vs "
        f"static {uniform['static'][1]:.2f}s"
    )
    # Skewed process run: identical counts, never meaningfully slower.
    for shards in (2, 4):
        assert (
            skewed[(shards, "adaptive")][0] == skewed[(shards, "static")][0]
        )
        assert (
            skewed[(shards, "adaptive")][1]
            <= skewed[(shards, "static")][1] / MIN_UNIFORM_RATIO
        )
