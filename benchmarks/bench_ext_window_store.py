"""Extension — tiered window store: bounded residency, identical output.

Runs the NEXMark-style auction-bid chain join once per (window size ×
window store) cell and gates on two deterministic identities:

* **Output identity.**  The tiered store (bounded hot object tier over
  columnar cold segments) must produce exactly the in-memory store's
  result count and ``JoinStatistics`` — the store changes the memory
  shape of the join state, never its output.
* **Residency bound.**  At the long-window setting, the tiered store's
  sampled peak resident-object count (hot tier + decode cache) must be
  at most :data:`RESIDENT_RATIO_GATE` (0.5×) of the in-memory store's —
  the point of tiering.  The hot budget is derived from the measured
  in-memory baseline (⅛ of its per-stream peak), so the gate holds at
  any ``REPRO_BENCH_SCALE`` without hand-tuned constants.
* **Counts decode nothing.**  The run is count-only and the cold tier
  keeps per-key sizes, so a tiered cell's decode misses are at most its
  thaws (the straddling segments expiry moves back to the hot tier) —
  one extra decode on the count path fails the gate.

The printed report records, per cell: peak resident objects, peak
hot-tier objects, peak encoded cold bytes, decode hits/misses, thaws,
and the result count — the numbers behind the docs/BENCHMARKS.md rows.
"""

from common import report, scaled

from repro import (
    NexmarkConfig,
    QualityDrivenPipeline,
    TieredStoreConfig,
    auction_bid_query,
    make_auction_bids,
    replay,
    seconds,
)
from repro.workloads import fixed_k_config

#: Long-window tiered residency must be ≤ this fraction of in-memory.
RESIDENT_RATIO_GATE = 0.5

#: Window sizes (seconds): the contrast cell is the long window, where
#: in-memory residency grows with window content and tiering pays off.
SHORT_WINDOW_S = 0.5
LONG_WINDOW_S = 4.0

CHUNK = 128


def _dataset():
    return make_auction_bids(
        NexmarkConfig(
            num_bid_channels=2,
            num_phases=3,
            phase_duration_ms=scaled(4_000, floor=1_000),
            seed=7,
        )
    )


def _run(dataset, condition, k_ms, window_s, store):
    pipeline = QualityDrivenPipeline(
        fixed_k_config(
            k_ms, [seconds(window_s)] * dataset.num_streams, condition, store=store
        )
    )
    count = replay(pipeline, dataset.arrivals(), CHUNK)
    thaws = sum(window.store.metrics().thaws for window in pipeline.join.windows)
    return count, pipeline.join.stats.as_dict(), pipeline.metrics, thaws


def _cell_row(window_s, label, count, metrics, thaws):
    resident = sum(metrics.stream_resident_objects)
    hot = sum(metrics.stream_hot_objects)
    encoded = sum(metrics.stream_encoded_bytes)
    return (
        f"{window_s:.1f}s",
        label,
        resident,
        hot,
        encoded,
        f"{metrics.decode_hits}/{metrics.decode_misses}",
        thaws,
        count,
    )


def _sweep():
    dataset = _dataset()
    condition = auction_bid_query(2)
    k_ms = dataset.max_delay()
    rows = []
    outcomes = {}
    for window_s in (SHORT_WINDOW_S, LONG_WINDOW_S):
        mem_count, mem_stats, mem_metrics, mem_thaws = _run(
            dataset, condition, k_ms, window_s, None
        )
        rows.append(
            _cell_row(window_s, "in-memory", mem_count, mem_metrics, mem_thaws)
        )
        # Budget: ⅛ of the measured per-stream in-memory peak (floor 16)
        # — scale-independent, and low enough that hot + decode cache
        # stay well under the 0.5× residency gate.
        per_stream_peak = max(mem_metrics.stream_resident_objects or [16])
        budget = max(16, per_stream_peak // 8)
        tiered_config = TieredStoreConfig(
            hot_budget=budget,
            bucket_span_ms=max(50, int(window_s * 1000) // 20),
            cache_tuples=budget,
        )
        tier_count, tier_stats, tier_metrics, tier_thaws = _run(
            dataset, condition, k_ms, window_s, tiered_config
        )
        rows.append(
            _cell_row(window_s, f"tiered (budget={budget})", tier_count,
                      tier_metrics, tier_thaws)
        )
        outcomes[window_s] = (
            mem_count, mem_stats, mem_metrics,
            tier_count, tier_stats, tier_metrics, tier_thaws,
        )
    return rows, outcomes


def test_ext_window_store(benchmark):
    rows, outcomes = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    report(
        "ext_window_store",
        "Extension — tiered window store: peak state residency vs "
        "in-memory, identical output",
        ["window", "store", "peak resident", "peak hot", "peak enc bytes",
         "decode h/m", "thaws", "results"],
        rows,
    )
    for window_s, (
        mem_count, mem_stats, mem_metrics,
        tier_count, tier_stats, tier_metrics, tier_thaws,
    ) in outcomes.items():
        # Identity: same results, same join counters, either store.
        assert tier_count == mem_count, f"window={window_s}"
        assert tier_stats == mem_stats, f"window={window_s}"
        # The cold tier actually engaged.
        assert sum(tier_metrics.stream_encoded_bytes) > 0, f"window={window_s}"
        # Count-only: only straddler thaws decode a segment.
        assert tier_metrics.decode_misses <= tier_thaws, (
            f"window={window_s}: {tier_metrics.decode_misses} decode misses "
            f"on a count-only run with {tier_thaws} thaws"
        )
    # Residency gate at the long-window setting.
    _, _, mem_metrics, _, _, tier_metrics, _ = outcomes[LONG_WINDOW_S]
    mem_peak = sum(mem_metrics.stream_resident_objects)
    tier_peak = sum(tier_metrics.stream_resident_objects)
    assert tier_peak <= RESIDENT_RATIO_GATE * mem_peak, (
        f"tiered resident peak {tier_peak} exceeds "
        f"{RESIDENT_RATIO_GATE}x in-memory peak {mem_peak}"
    )
