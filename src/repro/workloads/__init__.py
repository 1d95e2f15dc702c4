"""Workload layer: named scenarios the whole engine can be validated on.

A :class:`Workload` bundles everything a validation or benchmark harness
needs to run one scenario end to end: the generated
:class:`~repro.streams.source.Dataset`, the join condition and window
sizes, the phase schedule it was generated from, and the *analytic*
state-size caps derived from the configured rates (not measured from the
run) that the soak harness checks realized memory against.

Factories
---------
* :func:`auction_bids_workload` — NEXMark-style Auction × Bid-channel
  chain equi-join; exactly partitionable (rebalancer available).
* :func:`person_auction_bid_workload` — the Person/Auction/Bid
  two-component join; broadcast regime.

Both are deterministic under ``NexmarkConfig.seed`` (see
:mod:`repro.streams.nexmark`).  The soak/differential harness lives in
:mod:`repro.workloads.soak`.

Engine toolkit
--------------
The tests, the benches, the soak and ``tools/distributed_smoke.py``
share two helpers:

* :func:`interleaved_dataset` — three seeded, disordered streams joined
  on one attribute, uniform or Zipf-skewed keys;
* :func:`fixed_k_config` — the lossless fixed-K front end: with K at
  least the dataset's maximum delay, every engine variant must produce
  the same results.

:func:`repro.replay` drives an engine through a dataset, and
:func:`repro.workloads.soak.canonical_results` is the routing-independent
form the runs are compared in.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from ..core.adaptation import FixedKPolicy
from ..core.pipeline import PipelineConfig
from ..core.tuples import seconds
from ..join.conditions import JoinCondition
from ..streams.nexmark import (
    NexmarkConfig,
    auction_bid_query,
    make_auction_bids,
    make_person_auction_bid,
    max_stall_ms,
    peak_rates_per_ms,
    person_auction_bid_query,
    phase_boundaries_ms,
)
from ..streams.source import Dataset, from_tuple_specs
from ..streams.zipf import ZipfValueSampler


@dataclass(frozen=True)
class WorkloadCaps:
    """Analytic state-size caps (tuple counts, summed across streams)."""

    #: Max live tuples across all join windows (union over shards).
    window_cap: int
    #: Max tuples in flight in the disorder-handling front (K-slack
    #: buffers + synchronizer, union over shards).
    pending_cap: int


@dataclass
class Workload:
    """One runnable scenario plus the metadata harnesses reason about."""

    name: str
    dataset: Dataset
    condition: JoinCondition
    window_sizes_ms: List[int]
    #: Cumulative phase end times in arrival ms (one entry per phase).
    phase_boundaries_ms: List[int]
    #: Per-stream worst-case arrival rates in tuples/ms (burst phases
    #: included) — configured, not measured.
    peak_rates_per_ms: List[float]
    #: Longest consecutive silence of any stream (ms); while a stream is
    #: silent the synchronizer buffers every other stream for it.
    max_stall_ms: int
    #: Upper bound of the generators' delay models (ms).
    max_delay_ms: int
    #: Largest nominal inter-arrival gap (ms); grace term of the caps.
    max_gap_ms: int

    @property
    def num_streams(self) -> int:
        return self.dataset.num_streams

    @property
    def num_phases(self) -> int:
        return len(self.phase_boundaries_ms)

    def phase_ranges(self) -> List[tuple]:
        """``(lo_exclusive, hi_inclusive)`` timestamp range per phase."""
        ranges = []
        lo = -1
        for hi in self.phase_boundaries_ms:
            ranges.append((lo, hi))
            lo = hi
        return ranges

    def analytic_caps(self, k_ms: int) -> WorkloadCaps:
        """State-size caps implied by the configured rates and phases.

        Derivation (per stream ``i`` with peak rate ``r_i`` tuples/ms):

        * A join window holds tuples with ``ts`` in ``(T - W, T]``.
          Timestamps are arrivals shifted down by at most
          ``max_delay``, so the timestamp density over any interval is
          bounded by the arrival density over an interval widened by
          ``max_delay``; with the K-slack front releasing up to ``K``
          behind the arrival clock, the window holds at most
          ``r_i * (W + K + max_delay + gap)`` tuples of stream ``i``.
        * The K-slack buffer holds ``ts > iT - K``, bounded the same way
          by ``r_i * (K + max_delay + gap)``; the synchronizer
          additionally buffers every live stream for the duration of the
          longest stall (silent stream), adding ``r_i * stall``.

        The constant slack (8 per stream) absorbs boundary tuples.
        Under exact partitioning the caps apply to the *union* of shard
        states (each tuple lives on exactly one shard); under broadcast
        every shard replicates the full state, so callers multiply by
        the shard count.
        """
        grace = self.max_gap_ms
        window_cap = pending_cap = 8 * self.num_streams
        for rate, window in zip(self.peak_rates_per_ms, self.window_sizes_ms):
            window_cap += math.ceil(
                rate * (window + k_ms + self.max_delay_ms + grace)
            )
            pending_cap += math.ceil(
                rate * (k_ms + self.max_delay_ms + self.max_stall_ms + grace)
            )
        return WorkloadCaps(window_cap=window_cap, pending_cap=pending_cap)


def auction_bids_workload(
    config: Optional[NexmarkConfig] = None, window_s: float = 1.0
) -> Workload:
    """The exactly-partitionable NEXMark scenario (chain on ``auction``)."""
    config = config if config is not None else NexmarkConfig()
    dataset = make_auction_bids(config)
    num_streams = dataset.num_streams
    gaps = [config.auction_gap_ms] + [config.bid_gap_ms] * config.num_bid_channels
    return Workload(
        name=dataset.name,
        dataset=dataset,
        condition=auction_bid_query(config.num_bid_channels),
        window_sizes_ms=[seconds(window_s)] * num_streams,
        phase_boundaries_ms=phase_boundaries_ms(config, num_streams),
        peak_rates_per_ms=peak_rates_per_ms(config, gaps),
        max_stall_ms=max_stall_ms(config, num_streams),
        max_delay_ms=config.max_delay_ms,
        max_gap_ms=max(gaps),
    )


def person_auction_bid_workload(
    config: Optional[NexmarkConfig] = None, window_s: float = 1.0
) -> Workload:
    """The broadcast-regime NEXMark scenario (Person/Auction/Bid)."""
    config = config if config is not None else NexmarkConfig()
    dataset = make_person_auction_bid(config)
    gaps = [config.person_gap_ms, config.auction_gap_ms, config.bid_gap_ms]
    return Workload(
        name=dataset.name,
        dataset=dataset,
        condition=person_auction_bid_query(),
        window_sizes_ms=[seconds(window_s)] * 3,
        phase_boundaries_ms=phase_boundaries_ms(config, 3),
        peak_rates_per_ms=peak_rates_per_ms(config, gaps),
        max_stall_ms=max_stall_ms(config, 3),
        max_delay_ms=config.max_delay_ms,
        max_gap_ms=max(gaps),
    )


def interleaved_dataset(
    name: str,
    num_tuples: int,
    gap_ms: int,
    max_delay_ms: int,
    domain: int,
    seed: int,
    zipf: Optional[float] = None,
) -> Dataset:
    """Three interleaved streams over one join attribute ``a1``.

    Tuple ``i`` belongs to stream ``i % 3`` with ``ts = i * gap_ms``;
    ~20% of arrivals are delayed by up to ``max_delay_ms``, and the
    dataset is sorted by arrival.  Keys are uniform over
    ``1..domain``, or Zipf(``zipf``)-skewed over it when ``zipf`` is
    given — both drawn from the dataset's own seeded generator, so a
    seed fixes the arrival sequence.
    """
    rng = random.Random(seed)
    draw = (
        partial(rng.randint, 1, domain)
        if zipf is None
        else ZipfValueSampler(list(range(1, domain + 1)), zipf, rng).sample
    )
    events = []
    for i in range(num_tuples):
        delay = 0 if rng.random() < 0.8 else rng.randint(1, max_delay_ms)
        events.append((i % 3, i * gap_ms, delay, draw()))
    order = sorted(
        range(num_tuples), key=lambda i: (events[i][1] + events[i][2], i)
    )
    specs = [(events[i][0], events[i][1], {"a1": events[i][3]}) for i in order]
    return from_tuple_specs(specs, num_streams=3, name=name)


def fixed_k_config(
    k_ms: int,
    windows_ms: Sequence[int],
    condition: JoinCondition,
    collect: bool = False,
    store=None,
) -> PipelineConfig:
    """The lossless front end of every fixed-K test, bench and soak run.

    K is pinned at ``k_ms`` from the first tuple (``FixedKPolicy`` plus
    ``initial_k_ms``), so with ``k_ms`` at least the dataset's maximum
    delay every configuration of a run must produce the same results;
    Γ 0.95, P 15 s and L 1 s are inert under a fixed K.
    """
    return PipelineConfig(
        window_sizes_ms=list(windows_ms),
        condition=condition,
        gamma=0.95,
        period_ms=15_000,
        interval_ms=1_000,
        policy=FixedKPolicy(k_ms),
        initial_k_ms=k_ms,
        collect_results=collect,
        store=store,
    )


__all__ = [
    "Workload",
    "WorkloadCaps",
    "auction_bids_workload",
    "fixed_k_config",
    "interleaved_dataset",
    "person_auction_bid_workload",
    "NexmarkConfig",
]
