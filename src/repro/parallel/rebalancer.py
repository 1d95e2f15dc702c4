"""Skew-aware slot rebalancing for the partitioned pipeline.

Static key hashing spreads *keys* evenly, not *load*: the paper's
synthetic workloads draw join-attribute values from bounded Zipf
distributions (Sec. VI), and under skew a handful of hot keys pins one
shard while the rest idle — the problem PanJoin's adaptive partitioning
and Chakraborty's shared-nothing windowed-join work attack with
finer-than-shard partitions.  This module is the planning half of that
answer for :class:`~repro.parallel.pipeline.PartitionedPipeline`:

* the :class:`~repro.parallel.router.KeyRouter` already routes through a
  virtual-slot table and counts routed tuples per slot;
* the :class:`Rebalancer` periodically reads those counters and, when
  the max/mean shard-load imbalance crosses a threshold, computes a new
  slot→shard assignment by greedy longest-processing-time (LPT)
  scheduling — slots in decreasing load order, each to the least-loaded
  shard, sticking with the current shard on ties to minimize churn;
* the pipeline executes the resulting
  :class:`~repro.parallel.router.MigrationSpec` through the
  executors' drain/handoff protocol (``migrate``/``adopt``) and then
  flips the router's table.

Rebalancing is a pure performance knob: under lossless disorder
handling (fixed K covering the realized maximum delay; the barrier's
drain is floored at the per-stream progress minimum —
:attr:`~repro.parallel.router.KeyRouter.stream_progress_ts` — so
cross-stream timestamp lag cannot defeat it) the migrated run's merged
result sequence and summed ``JoinStatistics`` are byte-identical to the
static-routing run's — the property ``tests/test_rebalance.py`` pins at
1/2/4 shards.  A single hot *key*
is the scheme's floor: one key lives in one slot, so LPT can isolate it
on its own shard but never split it (that would break equi-join
co-location).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .router import KeyRouter

#: Default max/mean shard-load ratio above which a plan is attempted.
DEFAULT_THRESHOLD = 1.25


def load_imbalance(loads: Sequence[int]) -> float:
    """Max/mean ratio of a per-shard load vector (1.0 = perfectly even).

    The one definition of "imbalance" shared by the planner, the skew
    benchmark, the tests, and the examples; an empty or all-zero vector
    reads as balanced.
    """
    total = sum(loads)
    if not total:
        return 1.0
    return max(loads) * len(loads) / total
#: Default minimum routed-tuple sample between plans; below it the load
#: signal is noise and the planner declines to move anything.
DEFAULT_MIN_SAMPLE = 256


class Rebalancer:
    """Plans slot moves from the router's load counters (LPT greedy).

    Parameters
    ----------
    router:
        The pipeline's :class:`~repro.parallel.router.KeyRouter`; must be
        :attr:`~repro.parallel.router.KeyRouter.exact` (broadcast routing
        has no slots to move).
    threshold:
        Max/mean shard-load ratio that triggers planning.  1.0 would
        chase noise; the default 1.25 tolerates benign wobble.
    min_sample:
        Minimum routed tuples accumulated in the (decayed) slot counters
        before any plan is attempted.

    The planner halves the slot counters after every :meth:`plan` call,
    so the load signal is an exponentially decayed recency window rather
    than an all-history average — a workload whose hot set drifts keeps
    getting re-planned against its *current* shape.
    """

    def __init__(
        self,
        router: KeyRouter,
        threshold: float = DEFAULT_THRESHOLD,
        min_sample: int = DEFAULT_MIN_SAMPLE,
    ) -> None:
        if not router.exact:
            raise ValueError(
                "rebalancing requires exact hash routing; broadcast "
                "conditions have no partition key and no slots to move"
            )
        if threshold < 1.0:
            raise ValueError(f"threshold must be >= 1.0, got {threshold}")
        self.router = router
        self.threshold = threshold
        self.min_sample = min_sample
        self.plans_attempted = 0
        self.plans_applied = 0

    def plan(self) -> Optional[Dict[int, int]]:
        """One planning step: return ``{slot: new_shard}`` moves, or None.

        Returns ``None`` when the sample is too small, the imbalance is
        under :attr:`threshold`, or the LPT assignment cannot strictly
        lower the maximum shard load (e.g. a single all-hot key already
        isolated on its own shard).  Always decays the router's slot
        counters, applied or not.
        """
        router = self.router
        loads = router.slot_loads
        table = router.slot_table
        num_shards = router.num_shards
        self.plans_attempted += 1
        try:
            if num_shards < 2:
                return None
            total = sum(loads)
            if total < self.min_sample:
                return None
            shard_loads = [0] * num_shards
            for slot, load in enumerate(loads):
                shard_loads[table[slot]] += load
            current_max = max(shard_loads)
            if current_max * num_shards < self.threshold * total:
                return None
            # Greedy LPT: heaviest slots first, each onto the currently
            # least-loaded shard; prefer the slot's current shard on load
            # ties (stickiness), then the lowest shard index
            # (determinism).  Zero-load slots stay where they are —
            # moving state nobody is touching buys nothing.
            active = sorted(
                (slot for slot, load in enumerate(loads) if load),
                key=lambda slot: (-loads[slot], slot),
            )
            new_loads = [0] * num_shards
            new_table = list(table)
            for slot in active:
                best = table[slot]
                best_load = new_loads[best]
                for shard in range(num_shards):
                    if new_loads[shard] < best_load:
                        best = shard
                        best_load = new_loads[shard]
                new_table[slot] = best
                new_loads[best] += loads[slot]
            if max(new_loads) >= current_max:
                return None
            moves = {
                slot: new_table[slot]
                for slot in active
                if new_table[slot] != table[slot]
            }
            if not moves:
                return None
            self.plans_applied += 1
            return moves
        finally:
            for slot, load in enumerate(loads):
                if load:
                    loads[slot] = load >> 1

    def imbalance(self) -> float:
        """Current max/mean ratio of the router's cumulative shard loads
        (1.0 = perfectly even; only meaningful once tuples have routed).
        """
        return load_imbalance(self.router.shard_loads)
