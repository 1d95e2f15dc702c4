"""The Tuple-Productivity Profiler (paper Sec. IV-B).

Learns the correlation between the *delay* and the *productivity* of
tuples (DPcorr) by monitoring the join output — an output-based approach
that works for arbitrary join conditions, unlike input-synopsis methods.

For every tuple the join operator receives, it reports (via the MSWJ
productivity callback) the tuple's raw delay annotation and, when the
tuple arrived in order, the exact cross-join size ``n×(e)`` and actual
result count ``n^on(e)`` at its probe.  The profiler accumulates these in
two maps keyed by the *coarse-grained* delay (granularity ``g``):

    M×[d]  = Σ_{delay(e)=d} n×(e)        M^on[d] = Σ_{delay(e)=d} n^on(e)

For out-of-order tuples no probe happens; their productivities are
estimated conservatively as the *maximum* ``n^on`` / ``n×`` observed over
the in-order tuples of the last adaptation interval (paper Sec. IV-B).

At each adaptation step the Buffer-Size Manager takes a
:class:`ProfileSnapshot` of the maps (and resets them for the next
interval).  The snapshot answers the two questions of Sec. IV-B/IV-C:

* the selectivity ratio ``sel^on(K)/sel^on`` of Eq. 6, and
* the true result-size estimate ``N_true^on(L) = Σ_{d<=MaxDM} M^on[d]``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from operator import mul
from typing import Dict, List, Optional

from .tuples import StreamTuple


class ProfileSnapshot:
    """Frozen productivity maps with O(log n) Eq. 6 evaluation.

    ``m_cross`` / ``m_on`` are the maps used for the selectivity ratio
    (possibly smoothed over several intervals, see
    :class:`TupleProductivityProfiler`); ``interval_on`` is the
    just-ended interval's raw ``Σ M^on`` used as the true-result-size
    estimate of Sec. IV-C (defaults to the maps' total).  The snapshot
    keeps the two maps and reads them on first use: hand it maps nobody
    will write to afterwards.

    Eq. 6's sums are kept over the *occupied* delays only: the sorted
    keys of either map in ``[0, MaxDM]`` (:attr:`occupied_delays`) and,
    per map, its running sums over them, left to right with a leading 0.
    A lookup bisects the keys.  The values are non-negative, so every
    ``+ 0.0`` a dense table over d = 0 … MaxDM would add is exact: the
    sums equal the dense ones bit for bit.  Eq. 6's ratio changes only
    at an occupied delay, which is what lets Alg. 3 rule out a whole run
    of grid points at once (``RecallModel.first_sufficient_k``).
    """

    def __init__(
        self,
        m_cross: Dict[int, float],
        m_on: Dict[int, float],
        interval_on: Optional[float] = None,
    ) -> None:
        self.max_coarse_delay = max(m_cross) if m_cross else 0
        self._m_cross = m_cross
        self._m_on = m_on
        self._interval_on = interval_on
        #: ``Σ_{d<=K}`` over the occupied delays, with a leading 0, built
        #: on first use: only Eq. 6 and the totals read them, so a step
        #: under EqSel or a fixed-K policy never pays for them.
        self._cumulative: Optional[List[List[float]]] = None
        self._keys: List[int] = []

    def _tables(self) -> List[List[float]]:
        """``[Σ M×, Σ M^on]`` at each occupied delay, summed left to right."""
        if self._cumulative is None:
            maps = dict(self._m_cross.items()), dict(self._m_on.items())
            keys = sorted(maps[0].keys() | maps[1].keys())
            keys = keys[bisect_left(keys, 0):bisect_right(keys, self.max_coarse_delay)]
            self._keys = keys
            self._cumulative = [
                list(accumulate(map(m.get, keys, repeat(0.0)), initial=0.0)) for m in maps
            ]
        return self._cumulative

    @property
    def occupied_delays(self) -> List[int]:
        """The sorted delays in ``[0, MaxDM]`` either map holds: the only
        coarse K at which :meth:`sel_ratio` may change."""
        self._tables()
        return self._keys

    @property
    def total_cross(self) -> float:
        return self._tables()[0][-1]

    @property
    def total_on(self) -> float:
        return self._tables()[1][-1]

    def cumulative_cross(self, coarse_k: int) -> float:
        """``Σ_{d=0}^{K} M×[d]`` (saturating beyond MaxDM)."""
        if coarse_k < 0:
            return 0.0
        return self._tables()[0][bisect_right(self._keys, coarse_k)]

    def cumulative_on(self, coarse_k: int) -> float:
        """``Σ_{d=0}^{K} M^on[d]`` (saturating beyond MaxDM)."""
        if coarse_k < 0:
            return 0.0
        return self._tables()[1][bisect_right(self._keys, coarse_k)]

    def sel_ratio(self, coarse_k: int) -> float:
        """Eq. 6: ``sel^on(K)/sel^on`` at coarse buffer size ``coarse_k``.

        Degenerate cases (no output observed yet, empty numerators) return
        1.0, falling back to the EqSel assumption.
        """
        cum_cross, cum_on = self._cumulative or self._tables()
        # Index 0 is the empty sum: a negative K has seen nothing.
        index = bisect_right(self._keys, coarse_k) if coarse_k >= 0 else 0
        cross_k = cum_cross[index]
        on_all = cum_on[-1]
        if cross_k <= 0.0 or on_all <= 0.0:
            return 1.0
        return (cum_on[index] / cross_k) * (cum_cross[-1] / on_all)

    def true_result_estimate(self) -> float:
        """``N_true^on(L)``: total join results the interval's tuples would
        have derived under complete disorder handling (paper Sec. IV-C)."""
        return self.total_on if self._interval_on is None else self._interval_on


class TupleProductivityProfiler:
    """Accumulates per-interval productivity maps (M×, M^on).

    Matches the :data:`repro.join.mswj.ProductivityCallback` signature via
    :meth:`record`, so it can be handed straight to the MSWJ operator.

    ``smoothing`` blends the per-interval maps into exponentially decayed
    running maps used for the Eq. 6 selectivity ratio: at each snapshot,
    ``smooth[d] = smoothing * smooth[d] + interval[d]``.  ``0.0`` (the
    paper-exact setting) uses only the last interval; positive values
    extend the effective horizon to ``1 / (1 - smoothing)`` intervals,
    which suppresses small-sample spikes of the learned ratio when the
    per-interval tuple counts are low (e.g. down-scaled replays — the
    paper's 100 tuples/s yields 10x the per-interval samples of the
    default bench scale).  The true-result-size estimate of Sec. IV-C
    always uses the raw last-interval map.
    """

    def __init__(self, granularity_ms: int, smoothing: float = 0.0) -> None:
        if granularity_ms <= 0:
            raise ValueError(f"granularity must be positive, got {granularity_ms}")
        if not 0.0 <= smoothing < 1.0:
            raise ValueError(f"smoothing must be in [0, 1), got {smoothing}")
        self.granularity_ms = granularity_ms
        self.smoothing = smoothing
        self._m_cross: Dict[int, float] = {}
        self._m_on: Dict[int, float] = {}
        self._smooth_cross: Dict[int, float] = {}
        self._smooth_on: Dict[int, float] = {}
        # Maxima over in-order tuples: current interval and previous one.
        self._interval_max_cross = 0.0
        self._interval_max_on = 0.0
        self._previous_max_cross = 0.0
        self._previous_max_on = 0.0
        # Unbiased per-interval accounting for the N_true(L) estimate: the
        # max-based out-of-order entries in M^on are deliberately
        # conservative for Eq. 6, but summing them (Sec. IV-C) inflates
        # N_true(L) whenever max productivity >> mean productivity, which
        # pegs the Eq. 7 instant requirement at 1 and defeats the
        # calibration entirely (measured on the soccer workload).  The
        # true-size estimate therefore values unseen productivities at the
        # interval *mean* instead.
        self._interval_on_sum = 0.0
        self._interval_in_order = 0
        self._interval_out_of_order = 0
        self._previous_mean_on = 0.0
        self.in_order_recorded = 0
        self.out_of_order_recorded = 0

    # ------------------------------------------------------------------
    # recording (the MSWJ productivity callback)
    # ------------------------------------------------------------------

    def record(
        self,
        t: StreamTuple,
        n_cross: Optional[int],
        n_on: Optional[int],
        in_order: bool,
    ) -> None:
        # coarse_delay(), inlined: this runs once per tuple.
        delay, g = t.delay, self.granularity_ms
        bucket = (delay + g - 1) // g if delay > 0 else 0
        if in_order:
            assert n_cross is not None and n_on is not None
            self._m_cross[bucket] = self._m_cross.get(bucket, 0.0) + n_cross
            self._m_on[bucket] = self._m_on.get(bucket, 0.0) + n_on
            if n_cross > self._interval_max_cross:
                self._interval_max_cross = float(n_cross)
            if n_on > self._interval_max_on:
                self._interval_max_on = float(n_on)
            self._interval_on_sum += n_on
            self._interval_in_order += 1
            self.in_order_recorded += 1
        else:
            # No probe happened; use the conservative estimates (paper:
            # maxima over in-order tuples of the last adaptation interval,
            # falling back to the current interval's maxima early on).
            est_cross = self._previous_max_cross or self._interval_max_cross
            est_on = self._previous_max_on or self._interval_max_on
            self._m_cross[bucket] = self._m_cross.get(bucket, 0.0) + est_cross
            self._m_on[bucket] = self._m_on.get(bucket, 0.0) + est_on
            self._interval_out_of_order += 1
            self.out_of_order_recorded += 1

    # ------------------------------------------------------------------
    # adaptation-step interface
    # ------------------------------------------------------------------

    def snapshot_and_reset(self) -> ProfileSnapshot:
        """Freeze the interval's maps and start a new interval."""
        if self._interval_in_order:
            mean_on = self._interval_on_sum / self._interval_in_order
        else:
            mean_on = self._previous_mean_on
        interval_on = self._interval_on_sum + self._interval_out_of_order * mean_on
        if self.smoothing > 0.0:
            # Both maps decay over the union of their keys, rebuilt in
            # sorted() order: set-union iteration would make the maps' key
            # order depend on per-process hashing.
            keys = sorted(self._smooth_cross.keys() | self._smooth_on.keys())
            decay = repeat(self.smoothing)
            self._smooth_cross, self._smooth_on = [
                dict(zip(keys, map(mul, map(smooth.get, keys, repeat(0.0)), decay)))
                for smooth in (self._smooth_cross, self._smooth_on)
            ]
            for d, value in self._m_cross.items():
                self._smooth_cross[d] = self._smooth_cross.get(d, 0.0) + value
            for d, value in self._m_on.items():
                self._smooth_on[d] = self._smooth_on.get(d, 0.0) + value
            snapshot = ProfileSnapshot(
                dict(self._smooth_cross), dict(self._smooth_on), interval_on
            )
        else:
            snapshot = ProfileSnapshot(self._m_cross, self._m_on, interval_on)
        self._m_cross = {}
        self._m_on = {}
        self._previous_max_cross = self._interval_max_cross
        self._previous_max_on = self._interval_max_on
        if self._interval_in_order:
            self._previous_mean_on = mean_on
        self._interval_max_cross = 0.0
        self._interval_max_on = 0.0
        self._interval_on_sum = 0.0
        self._interval_in_order = 0
        self._interval_out_of_order = 0
        return snapshot

    def peek_snapshot(self) -> ProfileSnapshot:
        """Snapshot of the current raw interval, without resetting."""
        return ProfileSnapshot(dict(self._m_cross), dict(self._m_on))
