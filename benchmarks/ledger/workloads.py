"""Frozen workload definitions of the perf ledger.

Every constant a workload depends on is spelled out here, and the
heavy-probe generator is this file's own copy: ``benchmarks/common.py``
and ``repro.experiments.configs`` are free to change without silently
redefining what the ledger measures.  The dataset generators themselves
(``repro.streams``) are part of the program under test; ``pins.json``
holds each workload's input digest and true result count for the default
seed, so a generator change that alters an input is *reported* instead
of absorbed.

Load model (all workloads): closed loop, one driver, one client.  The
pre-generated arrival sequence is replayed as fast as the engine accepts
it, in chunks of :data:`CHUNK` arrivals.  The engine is a synchronous
push operator, so an open-loop generator would only add queueing on top
of the same per-chunk service times.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import reference

from repro import (
    FixedKPolicy,
    JoinCondition,
    ModelBasedPolicy,
    NexmarkConfig,
    NonEqSel,
    PartitionedPipeline,
    PhaseSpec,
    PipelineConfig,
    QualityDrivenPipeline,
    SoccerConfig,
    StreamTuple,
    ThetaPredicate,
    TieredStoreConfig,
    auction_bid_query,
    equi_join_chain,
    from_tuple_specs,
    make_auction_bids,
    make_d3_syn,
    make_soccer_dataset,
    player_distance,
)
from repro.streams.source import Dataset

#: Arrivals per timed driver call.  Every workload has >= 300 chunks at
#: scale 1, so the 95th percentile always has >= 15 samples beyond it.
CHUNK = 16
DEFAULT_SEED = 7
#: A second pinned seed, so nothing is tuned to one input.
SECOND_SEED = 11
#: Pass ``i`` of a run replays the input of seed ``seed + (i % 2) *
#: SEED_STRIDE``: a run that has time for more than one pass averages over
#: two inputs, not over repetitions of one (and needs two oracle answers).
SEED_STRIDE = 1_000_003


def pass_seed(seed: int, index: int) -> int:
    return seed + (index % 2) * SEED_STRIDE

# (D3syn, Q3) under the paper's default framework parameters.
D3_DURATION_MS = 900_000
D3_INTER_ARRIVAL_MS = 100
D3_MAX_DELAY_MS = 10_000
# The value skew is re-drawn more often and from a narrower range than
# ``repro.experiments.configs.d3_experiment`` does (5-20 s, 0.0-2.5):
# with those, the true result count of ten seeds spreads by 31 % of its
# median and throughput by 13 %; with these, 7.5 % and 9 %, at the same
# mean (~2.1 M results), so one bound can serve every seed.
D3_SKEW_CHANGE_INTERVAL_MS = (2_000, 8_000)
D3_VALUE_SKEW_RANGE = (0.5, 2.0)
D3_WINDOW_MS = 5_000
GAMMA = 0.95
PERIOD_MS = 60_000
INTERVAL_MS = 1_000
BASIC_WINDOW_MS = 10
GRANULARITY_MS = 10

HEAVY_TUPLES = 4_800
HEAVY_SPACING_MS = 20
HEAVY_DOMAIN = 5
HEAVY_ON_TIME_SHARE = 0.8
HEAVY_MAX_DELAY_MS = 800
HEAVY_WINDOW_MS = 12_000

SOCCER_DURATION_MS = 720_000
SOCCER_PLAYERS_PER_TEAM = 8
SOCCER_SAMPLE_PERIOD_MS = 400
SOCCER_MAX_DELAY_MS = (11_000, 13_000)
SOCCER_WINDOW_MS = 5_000
SOCCER_PROXIMITY_M = 5.0

# NEXMark auction x bid channels: steady / burst / silence / drift.  With
# the generator's defaults (32 auction ids, Zipf skew 1.0, drift 1.5) one
# hot id carries the result count, and over ten seeds that count spreads
# by 9-10 % of its median (and throughput with it); 8 ids, uniform when
# steady and skew 0.5 when drifting, bring it to 2 %.  The sharded window
# is 1.2 s instead of 1 s to keep ~70 results per tuple.
NEXMARK_BID_CHANNELS = 2
NEXMARK_AUCTION_DOMAIN = 8
NEXMARK_STEADY_SKEW = 0.0
NEXMARK_DRIFT_SKEW = 0.5
NEXMARK_BURST = 3.0
NEXMARK_MAX_DELAY_MS = 500
TIERED_PHASE_MS = 8_000
TIERED_WINDOW_MS = 2_000
TIERED_STORE = TieredStoreConfig(hot_budget=64, bucket_span_ms=100, cache_tuples=64)
SHARDED_PHASE_MS = 12_000
SHARDED_WINDOW_MS = 1_200
SHARDS = 2


def heavy_probe_dataset(num_tuples: int, seed: int) -> Dataset:
    """Three interleaved streams, five keys, ~20 % of arrivals delayed.

    A 12 s window then holds ~40 tuples per key and stream, so each
    in-order trigger enumerates ~40 x 40 candidate pairs through index
    lookups: about a millisecond of probe per tuple.
    """
    rng = random.Random(seed)
    events = []
    for i in range(num_tuples):
        on_time = rng.random() < HEAVY_ON_TIME_SHARE
        delay = 0 if on_time else rng.randint(1, HEAVY_MAX_DELAY_MS)
        events.append((i % 3, i * HEAVY_SPACING_MS, delay, rng.randint(1, HEAVY_DOMAIN)))
    order = sorted(range(num_tuples), key=lambda i: (events[i][1] + events[i][2], i))
    specs = [(events[i][0], events[i][1], {"a1": events[i][3]}) for i in order]
    return from_tuple_specs(specs, num_streams=3, name="heavy-probe")


def _soccer_condition() -> JoinCondition:
    return JoinCondition(
        [
            ThetaPredicate(
                (0, 1),
                lambda a, b: player_distance(a["x"], a["y"], b["x"], b["y"])
                < SOCCER_PROXIMITY_M,
                name=f"dist<{SOCCER_PROXIMITY_M}",
            )
        ]
    )


def _nexmark_dataset(phase_ms: int, seed: int, scale: float) -> Dataset:
    duration = max(1_000, int(phase_ms * scale))
    streams = 1 + NEXMARK_BID_CHANNELS
    bids_only = (1.0,) + (NEXMARK_BURST,) * NEXMARK_BID_CHANNELS
    one_silent = (1.0, 0.0) + (1.0,) * (NEXMARK_BID_CHANNELS - 1)
    assert len(bids_only) == len(one_silent) == streams
    phases = [
        PhaseSpec("steady", duration, value_skew=NEXMARK_STEADY_SKEW),
        PhaseSpec("burst", duration, rate=bids_only, value_skew=NEXMARK_STEADY_SKEW),
        PhaseSpec("silence", duration, rate=one_silent, value_skew=NEXMARK_STEADY_SKEW),
        PhaseSpec(
            "drift",
            duration,
            value_skew=NEXMARK_DRIFT_SKEW,
            hot_offset=NEXMARK_AUCTION_DOMAIN // 3,
        ),
    ]
    return make_auction_bids(
        NexmarkConfig(
            num_bid_channels=NEXMARK_BID_CHANNELS,
            phases=phases,
            auction_domain=NEXMARK_AUCTION_DOMAIN,
            max_delay_ms=NEXMARK_MAX_DELAY_MS,
            seed=seed,
        )
    )


def _lossless(
    k_ms: int,
    window_ms: int,
    num_streams: int,
    condition: JoinCondition,
    collect_results: bool = False,
    store: Optional[TieredStoreConfig] = None,
) -> PipelineConfig:
    """Fixed-K config: K covers the realized maximum delay, so disorder
    handling is lossless and the run must reproduce the oracle exactly."""
    return PipelineConfig(
        window_sizes_ms=[window_ms] * num_streams,
        condition=condition,
        policy=FixedKPolicy(k_ms),
        initial_k_ms=k_ms,
        collect_results=collect_results,
        store=store,
    )


@dataclass(frozen=True)
class Workload:
    """One ledger workload: how to make its input and its engine."""

    name: str
    why: str
    num_streams: int
    window_ms: int
    #: scale -> seed -> dataset, through ``repro.streams``.
    dataset: Callable[[int, float], Dataset]
    #: dataset -> fresh PipelineConfig (policies carry state: one per run).
    config: Callable[[Dataset], PipelineConfig]
    #: Oracle input: the equi key attribute, or ``None`` for soccer's theta.
    key_attr: Optional[str]
    #: True for the one workload whose K, recall and Alg. 3 are live.
    adaptive: bool = False
    #: Drive with ``process(t)`` per tuple instead of ``process_batch``.
    per_tuple: bool = False
    #: Run through ``PartitionedPipeline`` (process x SHARDS, blocks).
    sharded: bool = False


def _d3_config(_dataset: Dataset) -> PipelineConfig:
    return PipelineConfig(
        window_sizes_ms=[D3_WINDOW_MS] * 3,
        condition=equi_join_chain("a1", 3),
        gamma=GAMMA,
        period_ms=PERIOD_MS,
        interval_ms=INTERVAL_MS,
        basic_window_ms=BASIC_WINDOW_MS,
        granularity_ms=GRANULARITY_MS,
        policy=ModelBasedPolicy(NonEqSel()),
        collect_results=False,
    )


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="d3_adaptive",
        why="the paper's experiment: model-based K adaptation live, light probe, per-tuple API",
        num_streams=3,
        window_ms=D3_WINDOW_MS,
        dataset=lambda seed, scale: make_d3_syn(
            duration_ms=int(D3_DURATION_MS * scale),
            seed=seed,
            inter_arrival_ms=D3_INTER_ARRIVAL_MS,
            max_delay_ms=D3_MAX_DELAY_MS,
            skew_change_interval_ms=D3_SKEW_CHANGE_INTERVAL_MS,
            value_skew_range=D3_VALUE_SKEW_RANGE,
        ),
        config=_d3_config,
        key_attr="a1",
        adaptive=True,
        per_tuple=True,
    ),
    Workload(
        name="heavy_probe",
        why="index-lookup probe dominates (~1 ms/tuple, ~7 M results): join.mswj and join.store reads",
        num_streams=3,
        window_ms=HEAVY_WINDOW_MS,
        dataset=lambda seed, scale: heavy_probe_dataset(
            max(CHUNK, int(HEAVY_TUPLES * scale)), seed
        ),
        config=lambda dataset: _lossless(
            HEAVY_MAX_DELAY_MS, HEAVY_WINDOW_MS, 3, equi_join_chain("a1", 3)
        ),
        key_attr="a1",
    ),
    Workload(
        name="soccer_theta",
        why="arbitrary theta join: no index, window scan + predicate; deepest disorder buffers",
        num_streams=2,
        window_ms=SOCCER_WINDOW_MS,
        dataset=lambda seed, scale: make_soccer_dataset(
            SoccerConfig(
                duration_ms=int(SOCCER_DURATION_MS * scale),
                players_per_team=SOCCER_PLAYERS_PER_TEAM,
                sample_period_ms=SOCCER_SAMPLE_PERIOD_MS,
                max_delay_ms=SOCCER_MAX_DELAY_MS,
                seed=seed,
            )
        ),
        config=lambda dataset: _lossless(
            dataset.max_delay(), SOCCER_WINDOW_MS, 2, _soccer_condition()
        ),
        key_attr=None,
    ),
    Workload(
        name="nexmark_tiered",
        why="tiered window store: insert/expire/freeze/thaw/decode (writes + compaction) dominate",
        num_streams=1 + NEXMARK_BID_CHANNELS,
        window_ms=TIERED_WINDOW_MS,
        dataset=lambda seed, scale: _nexmark_dataset(TIERED_PHASE_MS, seed, scale),
        config=lambda dataset: _lossless(
            NEXMARK_MAX_DELAY_MS,
            TIERED_WINDOW_MS,
            1 + NEXMARK_BID_CHANNELS,
            auction_bid_query(NEXMARK_BID_CHANNELS),
            store=TIERED_STORE,
        ),
        key_attr="auction",
    ),
    Workload(
        name="nexmark_sharded",
        why="2 process shards over block transport, results collected: routing, codec, IPC, merge",
        num_streams=1 + NEXMARK_BID_CHANNELS,
        window_ms=SHARDED_WINDOW_MS,
        dataset=lambda seed, scale: _nexmark_dataset(SHARDED_PHASE_MS, seed, scale),
        config=lambda dataset: _lossless(
            NEXMARK_MAX_DELAY_MS,
            SHARDED_WINDOW_MS,
            1 + NEXMARK_BID_CHANNELS,
            auction_bid_query(NEXMARK_BID_CHANNELS),
            collect_results=True,
        ),
        key_attr="auction",
        sharded=True,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def make_engine(
    workload: Workload,
    dataset: Dataset,
    executor: str = "process",
    on_adaptation: Optional[Callable] = None,
    on_results: Optional[Callable[[int, int], None]] = None,
):
    """A fresh engine for one run (``executor`` only matters when sharded)."""
    config = workload.config(dataset)
    if workload.sharded:
        return PartitionedPipeline(
            config, SHARDS, executor=executor, transport="blocks"
        )
    return QualityDrivenPipeline(
        config, on_adaptation=on_adaptation, on_results=on_results
    )


def chunked(arrivals: Sequence[StreamTuple]) -> List[Sequence[StreamTuple]]:
    return [arrivals[i : i + CHUNK] for i in range(0, len(arrivals), CHUNK)]


def input_sha256(arrivals: Sequence[StreamTuple]) -> str:
    """Digest of the arrival sequence the engine is fed."""
    digest = hashlib.sha256()
    for t in arrivals:
        digest.update(
            f"{t.stream},{t.ts},{t.arrival},{sorted(t.values.items())!r}\n".encode()
        )
    return digest.hexdigest()


def oracle_rows(workload: Workload, arrivals: Sequence[StreamTuple]) -> List[reference.Row]:
    """The plain rows ``reference`` works on (no engine objects cross over)."""
    if workload.key_attr is None:
        return [(t.ts, t.stream, t.seq, (t["x"], t["y"])) for t in arrivals]
    attr = workload.key_attr
    return [(t.ts, t.stream, t.seq, t[attr]) for t in arrivals]


def oracle_counts(
    workload: Workload, arrivals: Sequence[StreamTuple], window_ms: int
) -> List[Tuple[int, int]]:
    """True ``(result_ts, count)`` pairs from the independent oracle."""
    rows = oracle_rows(workload, arrivals)
    if workload.key_attr is None:
        return reference.theta_pair_counts(
            rows, window_ms, reference.within_distance(SOCCER_PROXIMITY_M)
        )
    return reference.equi_chain_counts(rows, workload.num_streams, window_ms)
