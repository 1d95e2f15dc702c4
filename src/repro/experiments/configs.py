"""Dataset + query configurations matching the paper's evaluation (Sec. VI).

Three (dataset, query) pairs:

* ``soccer`` — D×2real substitute + Q×2: 2-way join of two team-position
  streams on ``dist(x1,y1,x2,y2) < 5`` within 5-second windows.
* ``d3`` — D×3syn + Q×3: 3-way chain equi-join on ``a1`` within 5-second
  windows.
* ``d4`` — D×4syn + Q×4: 4-way star equi-join (``S1.a1=S2.a1 AND
  S1.a2=S3.a2 AND S1.a3=S4.a3``) within 3-second windows.

Paper-scale runs (23–30 minutes, 100 tuples/s) are expensive in a pure
Python simulator, so each factory takes a ``scale`` knob: ``scale=1.0``
uses laptop defaults (tens of seconds of stream time, 10–25 tuples/s)
that preserve the workloads' structure — window sizes, delay
distributions, value domains and skews keep the paper's values.
docs/BENCHMARKS.md records the scales used for the reported numbers; passing
``paper_scale=True`` reproduces the paper's full parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.tuples import seconds
from ..join.conditions import (
    JoinCondition,
    ThetaPredicate,
    equi_join_chain,
    star_equi_join,
)
from ..quality.truth import TruthResult, compute_truth
from ..streams.generators import make_d3_syn, make_d4_syn
from ..streams.nexmark import (
    NexmarkConfig,
    auction_bid_query,
    make_auction_bids,
    make_person_auction_bid,
    person_auction_bid_query,
)
from ..streams.soccer import SoccerConfig, make_soccer_dataset, player_distance
from ..streams.source import Dataset


@dataclass
class ExperimentConfig:
    """One (dataset, query) pair with lazily cached dataset and truth.

    The dataset and its ground truth are computed once and reused across
    parameter sweeps (e.g. the Γ sweep of Fig. 7 runs the same dataset
    under eight pipeline configurations).
    """

    name: str
    dataset_factory: Callable[[], Dataset]
    window_sizes_ms: Sequence[int]
    condition: JoinCondition
    _dataset: Optional[Dataset] = field(default=None, repr=False)
    _truth: Optional[TruthResult] = field(default=None, repr=False)

    @property
    def num_streams(self) -> int:
        return len(self.window_sizes_ms)

    def dataset(self) -> Dataset:
        if self._dataset is None:
            self._dataset = self.dataset_factory()
        return self._dataset

    def truth(self) -> TruthResult:
        if self._truth is None:
            self._truth = compute_truth(
                self.dataset(), self.window_sizes_ms, self.condition
            )
        return self._truth

    def invalidate(self) -> None:
        """Drop cached dataset/truth (tests that mutate parameters)."""
        self._dataset = None
        self._truth = None


# ----------------------------------------------------------------------
# Q×2 over the simulated soccer data
# ----------------------------------------------------------------------

def soccer_experiment(
    scale: float = 1.0,
    seed: int = 7,
    paper_scale: bool = False,
    proximity_m: float = 5.0,
) -> ExperimentConfig:
    """(D×2real-sim, Q×2): players of opposite teams within 5 m, 5 s windows."""
    if paper_scale:
        config = SoccerConfig(
            duration_ms=seconds(23 * 60),
            players_per_team=16,
            sample_period_ms=50,
            seed=seed,
        )
    else:
        config = SoccerConfig(
            duration_ms=int(seconds(90) * scale),
            players_per_team=8,
            sample_period_ms=400,
            max_delay_ms=(11_000, 13_000),
            seed=seed,
        )
    condition = JoinCondition(
        [
            ThetaPredicate(
                (0, 1),
                lambda a, b: player_distance(a["x"], a["y"], b["x"], b["y"])
                < proximity_m,
                name=f"dist<{proximity_m}",
            )
        ]
    )
    return ExperimentConfig(
        name="(D2real-sim, Q2)",
        dataset_factory=lambda: make_soccer_dataset(config),
        window_sizes_ms=[seconds(5), seconds(5)],
        condition=condition,
    )


# ----------------------------------------------------------------------
# Q×3 over D×3syn
# ----------------------------------------------------------------------

def d3_experiment(
    scale: float = 1.0,
    seed: int = 1,
    paper_scale: bool = False,
) -> ExperimentConfig:
    """(D×3syn, Q×3): 3-way chain equi-join on ``a1``, 5 s windows."""
    if paper_scale:
        factory = lambda: make_d3_syn(seed=seed)  # noqa: E731 - paper defaults
    else:
        duration = int(seconds(90) * scale)

        def factory() -> Dataset:
            return make_d3_syn(
                duration_ms=duration,
                seed=seed,
                inter_arrival_ms=100,  # 10 tuples/s
                max_delay_ms=10_000,
                skew_change_interval_ms=(seconds(5), seconds(20)),
                # Cap the value skew: at the paper's upper skew of 5.0 a
                # single value dominates and the result rate explodes,
                # which a pure-Python joiner cannot sustain at bench scale.
                value_skew_range=(0.0, 2.5),
            )

    return ExperimentConfig(
        name="(D3syn, Q3)",
        dataset_factory=factory,
        window_sizes_ms=[seconds(5)] * 3,
        condition=equi_join_chain("a1", 3),
    )


# ----------------------------------------------------------------------
# Q×4 over D×4syn
# ----------------------------------------------------------------------

def d4_experiment(
    scale: float = 1.0,
    seed: int = 1,
    paper_scale: bool = False,
) -> ExperimentConfig:
    """(D×4syn, Q×4): 4-way star equi-join, 3 s windows."""
    if paper_scale:
        factory = lambda: make_d4_syn(seed=seed)  # noqa: E731 - paper defaults
    else:
        duration = int(seconds(90) * scale)

        def factory() -> Dataset:
            return make_d4_syn(
                duration_ms=duration,
                seed=seed,
                inter_arrival_ms=100,  # 10 tuples/s
                max_delay_ms=10_000,
                skew_change_interval_ms=(seconds(5), seconds(20)),
                value_skew_range=(0.0, 2.5),  # see d3_experiment note
            )

    return ExperimentConfig(
        name="(D4syn, Q4)",
        dataset_factory=factory,
        window_sizes_ms=[seconds(3)] * 4,
        condition=star_equi_join(0, {1: "a1", 2: "a2", 3: "a3"}),
    )


# ----------------------------------------------------------------------
# NEXMark-style auction workloads (extension family; ISSUE 5)
# ----------------------------------------------------------------------

def _nexmark_config(
    scale: float, seed: int, paper_scale: bool, bid_channels: int = 2
) -> NexmarkConfig:
    """Shared NEXMark shape: more/longer phases at paper scale.

    Bench scale runs 4 phases (steady → burst → silence → drift) of
    ``8 s × scale``; paper scale stretches to 8 phases of 30 s so every
    archetype recurs and the drift rotation visits the whole domain.
    """
    if paper_scale:
        return NexmarkConfig(
            num_bid_channels=bid_channels,
            num_phases=8,
            phase_duration_ms=30_000,
            seed=seed,
        )
    return NexmarkConfig(
        num_bid_channels=bid_channels,
        num_phases=4,
        phase_duration_ms=max(1_000, int(8_000 * scale)),
        seed=seed,
    )


def nexmark_experiment(
    scale: float = 1.0,
    seed: int = 7,
    paper_scale: bool = False,
    bid_channels: int = 2,
) -> ExperimentConfig:
    """(NEXMark-AB, Qab): auction announcements ⋈ every bid channel.

    Chain equi-join on ``auction`` over ``1 + bid_channels`` streams with
    1-second windows; a single equi component covers all streams, so the
    partitioned engine routes exactly and the rebalancer is available —
    the heterogeneous-rate, drifting-skew complement to (D×3syn, Q×3).
    """
    config = _nexmark_config(scale, seed, paper_scale, bid_channels)
    return ExperimentConfig(
        name="(NEXMark-AB, Qab)",
        dataset_factory=lambda: make_auction_bids(config),
        window_sizes_ms=[seconds(1)] * (1 + bid_channels),
        condition=auction_bid_query(bid_channels),
    )


def nexmark_pab_experiment(
    scale: float = 1.0,
    seed: int = 7,
    paper_scale: bool = False,
) -> ExperimentConfig:
    """(NEXMark-PAB, Qpab): Person ⋈ Auction ⋈ Bid, two equi components.

    ``Person.person = Auction.seller AND Auction.auction = Bid.auction``
    is *not* exactly hash-partitionable (no single component covers all
    three streams), so the partitioned engine broadcasts — the NEXMark
    workload for the non-partitionable regime.
    """
    config = _nexmark_config(scale, seed, paper_scale)
    return ExperimentConfig(
        name="(NEXMark-PAB, Qpab)",
        dataset_factory=lambda: make_person_auction_bid(config),
        window_sizes_ms=[seconds(1)] * 3,
        condition=person_auction_bid_query(),
    )


def all_experiments(
    scale: float = 1.0, paper_scale: bool = False
) -> Dict[str, ExperimentConfig]:
    """The paper's three (dataset, query) pairs plus the NEXMark family."""
    return {
        "soccer": soccer_experiment(scale=scale, paper_scale=paper_scale),
        "d3": d3_experiment(scale=scale, paper_scale=paper_scale),
        "d4": d4_experiment(scale=scale, paper_scale=paper_scale),
        "nexmark": nexmark_experiment(scale=scale, paper_scale=paper_scale),
        "nexmark-pab": nexmark_pab_experiment(scale=scale, paper_scale=paper_scale),
    }


#: The Γ values examined in Fig. 7 / Fig. 11.
PAPER_GAMMA_VALUES: Tuple[float, ...] = (0.9, 0.95, 0.99, 0.999)
#: The P values examined in Fig. 8, in ms.
PAPER_PERIOD_VALUES_MS: Tuple[int, ...] = (30_000, 60_000, 180_000, 300_000)
#: The L values examined in Fig. 9, in ms.
PAPER_INTERVAL_VALUES_MS: Tuple[int, ...] = (100, 500, 1_000, 5_000, 10_000)
#: The g values examined in Fig. 10 / Fig. 11, in ms.
PAPER_GRANULARITY_VALUES_MS: Tuple[int, ...] = (1, 10, 100, 1_000)
