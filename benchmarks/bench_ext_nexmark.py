"""Extension — NEXMark-style auction workloads across the engine.

The paper evaluates on D×3syn/D×4syn and the soccer traces; this bench
runs the NEXMark-style workload suite (``repro.streams.nexmark``)
through every execution regime and gates on *deterministic* count
identities rather than timings:

* **Shard invariance (exact partitioning).**  The auction-bid chain
  equi-join has one equi component covering all streams, so the
  partitioned engine at shards 1/2/4 — and the rebalanced run — must
  produce exactly the single-pipeline result count, which under
  lossless disorder handling (fixed K ≥ realized max delay) equals the
  ground-truth total.
* **Broadcast identity (non-partitionable).**  The Person/Auction/Bid
  query has two disjoint equi components; the engine broadcasts, and
  the 2-shard result count must equal the single pipeline's.
* **Soak smoke.**  A 2-phase deterministic soak run
  (``repro.workloads.soak``) must pass all four invariant checks.
* **Adaptive quality.**  The quality-driven manager replays the full
  NEXMark experiment; overall recall must clear a generous floor (the
  workload's burst/silence phases are exactly what the adaptation loop
  is for).

Workload sizes honor ``REPRO_BENCH_SCALE`` via ``common.scaled`` — CI
runs at reduced scale without touching the gate constants below.
"""

from common import report, run, scaled

from repro import (
    NexmarkConfig,
    auction_bid_query,
    make_auction_bids,
    make_person_auction_bid,
    person_auction_bid_query,
    run_partitioned,
    seconds,
)
from repro.quality.truth import compute_truth
from repro.workloads import fixed_k_config
from repro.workloads.soak import SoakConfig, run_soak

#: Gate constants (scale-independent; workloads scale, gates do not).
ADAPTIVE_RECALL_FLOOR = 0.85
SOAK_PHASES = 2


def _bench_config(seed: int = 7, channels: int = 2) -> NexmarkConfig:
    return NexmarkConfig(
        num_bid_channels=channels,
        num_phases=3,
        phase_duration_ms=scaled(4_000, floor=1_000),
        seed=seed,
    )


def _lossless(condition, num_streams, k_ms):
    return fixed_k_config(k_ms, [seconds(0.5)] * num_streams, condition)


def _shard_sweep():
    """Exact-partitioning identity: shards 1/2/4 + rebalanced vs truth."""
    config = _bench_config()
    dataset = make_auction_bids(config)
    condition = auction_bid_query(config.num_bid_channels)
    windows = [seconds(0.5)] * dataset.num_streams
    k = dataset.max_delay()
    truth_total = compute_truth(dataset, windows, condition).index.total
    rows = []
    counts = {}
    for shards in (1, 2, 4):
        count, _ = run_partitioned(
            dataset,
            _lossless(condition, dataset.num_streams, k),
            shards,
            chunk_size=128,
        )
        counts[f"shards={shards}"] = count
        rows.append((dataset.name, f"shards={shards}", count, truth_total))
    rebalanced, _ = run_partitioned(
        dataset,
        _lossless(condition, dataset.num_streams, k),
        4,
        chunk_size=128,
        rebalance=True,
        rebalance_interval=512,
    )
    counts["rebalanced"] = rebalanced
    rows.append((dataset.name, "shards=4 rebalanced", rebalanced, truth_total))
    return rows, counts, truth_total


def _broadcast_sweep():
    """Broadcast identity on the non-partitionable Person/Auction/Bid join."""
    config = _bench_config()
    dataset = make_person_auction_bid(config)
    condition = person_auction_bid_query()
    assert condition.partition_attributes(3) is None
    k = dataset.max_delay()
    single, _ = run_partitioned(
        dataset, _lossless(condition, 3, k), 1, chunk_size=128
    )
    double, _ = run_partitioned(
        dataset, _lossless(condition, 3, k), 2, chunk_size=128
    )
    return [
        (dataset.name, "broadcast shards=1", single, single),
        (dataset.name, "broadcast shards=2", double, single),
    ], single, double


def _sweep():
    shard_rows, counts, truth_total = _shard_sweep()
    broadcast_rows, single, double = _broadcast_sweep()
    soak = run_soak(
        SoakConfig(
            phases=SOAK_PHASES,
            seed=7,
            phase_duration_ms=scaled(4_000, floor=1_000),
        )
    )
    adaptive = run("nexmark", "model-noneqsel", gamma=0.95)
    rows = shard_rows + broadcast_rows
    rows.append(
        (
            "soak-ab2",
            f"{SOAK_PHASES} phases, 4 variants",
            "PASS" if soak.passed else "FAIL",
            soak.truth_total,
        )
    )
    rows.append(
        (
            "nexmark adaptive",
            f"model-noneqsel avgK={adaptive.average_k_s:.2f}s",
            adaptive.results_produced,
            adaptive.truth_total,
        )
    )
    return rows, counts, truth_total, single, double, soak, adaptive


def test_ext_nexmark(benchmark):
    rows, counts, truth_total, single, double, soak, adaptive = (
        benchmark.pedantic(_sweep, rounds=1, iterations=1)
    )
    report(
        "ext_nexmark",
        "Extension — NEXMark-style workloads: shard/broadcast identity, "
        "soak smoke, adaptive quality",
        ["workload", "regime", "results", "reference"],
        rows,
    )
    # Exact partitioning: every shard count and the rebalanced run agree
    # with the lossless single pipeline, which agrees with ground truth.
    assert len(set(counts.values())) == 1
    assert counts["shards=1"] == truth_total
    # Broadcast: shard 0 emits the exact multiset.
    assert double == single
    # Soak: all four invariants held.
    assert soak.passed, [str(v) for v in soak.violations]
    # Adaptive manager keeps recall through burst/silence/drift phases.
    assert adaptive.overall_recall() >= ADAPTIVE_RECALL_FLOOR
