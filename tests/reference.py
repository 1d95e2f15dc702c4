"""Brute-force reference implementations used to validate the engine.

The MSWJ semantics (paper Sec. II-A): a combination ``<e_1, ..., e_m>``
(one tuple per stream) is a result iff every ordered pair satisfies the
window constraint ``e_j.ts >= e_i.ts - W_j`` (equivalently each tuple
falls within ``[e_i.ts - W_j, e_i.ts + W_i]`` of every other) and the
join condition holds.  The reference enumerates all combinations —
O(prod |S_i|) — so keep the fixtures small.

``ReferenceAdwin`` and ``ReferenceStreamStatistics`` are the per-sample
Statistics Manager the engine's bulk fold must match bit for bit: each
value is inserted, compressed and cut-checked on its own, and each tuple
trims the stream's deques to ADWIN's width.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro import JoinCondition, JoinResult, StreamTuple, coarse_delay
from repro.streams.source import Dataset


def reference_join(
    dataset: Dataset,
    window_sizes_ms: Sequence[int],
    condition: JoinCondition,
) -> List[JoinResult]:
    """All true results by exhaustive enumeration."""
    per_stream = [dataset.stream_tuples(i) for i in range(dataset.num_streams)]
    results: List[JoinResult] = []
    for combo in itertools.product(*per_stream):
        if not _windows_ok(combo, window_sizes_ms):
            continue
        bound = {t.stream: t for t in combo}
        if condition.evaluate(bound):
            ts = max(t.ts for t in combo)
            results.append(JoinResult(ts, tuple(combo)))
    return results


def _windows_ok(combo: Sequence[StreamTuple], window_sizes_ms: Sequence[int]) -> bool:
    for a in combo:
        for b in combo:
            if a is b:
                continue
            # b must be within a's reach: b.ts >= a.ts - W_b
            if b.ts < a.ts - window_sizes_ms[b.stream]:
                return False
    return True


def result_key_set(results: Sequence[JoinResult]) -> set:
    return {r.key() for r in results}


class _Bucket:
    """A bucket holds the sum and variance contribution of 2^level items."""

    __slots__ = ("total", "variance")

    def __init__(self, total: float = 0.0, variance: float = 0.0) -> None:
        self.total = total
        self.variance = variance


class _BucketRow:
    """All buckets of one capacity level (each covering 2^level items)."""

    __slots__ = ("buckets",)

    def __init__(self) -> None:
        self.buckets: List[_Bucket] = []


class ReferenceAdwin:
    """Per-sample ADWIN2 (one ``_Bucket`` object per value, newest first).

    Parameters
    ----------
    delta:
        Confidence parameter of the change detector (default 0.002, the
        value used throughout the ADWIN literature).
    max_buckets:
        Maximum number of buckets per exponential-histogram row.
    clock:
        Number of insertions between cut checks (amortizes the scan).
    min_window:
        Do not attempt cuts while the window is smaller than this.
    """

    def __init__(
        self,
        delta: float = 0.002,
        max_buckets: int = 5,
        clock: int = 32,
        min_window: int = 16,
    ) -> None:
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if max_buckets < 1:
            raise ValueError("max_buckets must be >= 1")
        self.delta = delta
        self.max_buckets = max_buckets
        self.clock = clock
        self.min_window = min_window
        self._rows: List[_BucketRow] = [_BucketRow()]
        self._total = 0.0
        self._variance = 0.0
        self._width = 0
        self._ticks = 0
        self._detections = 0

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    @property
    def width(self) -> int:
        """Current window length (number of items)."""
        return self._width

    @property
    def total(self) -> float:
        return self._total

    @property
    def detections(self) -> int:
        """How many distribution changes have been detected so far."""
        return self._detections

    def mean(self) -> float:
        """Average of the items currently in the window (0.0 when empty)."""
        return self._total / self._width if self._width else 0.0

    def variance(self) -> float:
        """Sample variance of the window content (0.0 when empty)."""
        return self._variance / self._width if self._width else 0.0

    def update(self, value: float) -> bool:
        """Insert ``value``; return True if a change was detected (window cut)."""
        self._insert(value)
        self._ticks += 1
        if self._ticks % self.clock != 0 or self._width < self.min_window:
            return False
        return self._detect_and_cut()

    # ------------------------------------------------------------------
    # exponential-histogram maintenance
    # ------------------------------------------------------------------

    def _insert(self, value: float) -> None:
        row0 = self._rows[0]
        row0.buckets.insert(0, _Bucket(total=value, variance=0.0))
        if self._width > 0:
            mean = self._total / self._width
            self._variance += (
                self._width / (self._width + 1.0) * (value - mean) * (value - mean)
            )
        self._width += 1
        self._total += value
        if len(row0.buckets) > self.max_buckets:
            self._compress()

    def _compress(self) -> None:
        level = 0
        while level < len(self._rows):
            row = self._rows[level]
            if len(row.buckets) <= self.max_buckets:
                break
            # Merge the two oldest buckets of this row into the next row.
            older = row.buckets.pop()
            newer = row.buckets.pop()
            capacity = 1 << level
            mean_older = older.total / capacity
            mean_newer = newer.total / capacity
            merged_variance = (
                older.variance
                + newer.variance
                + capacity
                * capacity
                / (2.0 * capacity)
                * (mean_older - mean_newer) ** 2
            )
            merged = _Bucket(total=older.total + newer.total, variance=merged_variance)
            if level + 1 == len(self._rows):
                self._rows.append(_BucketRow())
            self._rows[level + 1].buckets.insert(0, merged)
            level += 1

    def _drop_oldest(self) -> None:
        """Remove the single oldest bucket (the tail of the highest row)."""
        for level in range(len(self._rows) - 1, -1, -1):
            row = self._rows[level]
            if row.buckets:
                bucket = row.buckets.pop()
                capacity = 1 << level
                if self._width > capacity:
                    mean_bucket = bucket.total / capacity
                    mean_rest = (self._total - bucket.total) / (self._width - capacity)
                    self._variance -= bucket.variance + (
                        capacity
                        * (self._width - capacity)
                        / self._width
                        * (mean_bucket - mean_rest) ** 2
                    )
                    self._variance = max(0.0, self._variance)
                else:
                    self._variance = 0.0
                self._width -= capacity
                self._total -= bucket.total
                break
        while len(self._rows) > 1 and not self._rows[-1].buckets:
            self._rows.pop()

    # ------------------------------------------------------------------
    # change detection
    # ------------------------------------------------------------------

    def _detect_and_cut(self) -> bool:
        """Check every bucket boundary for a significant mean difference.

        Scans from the oldest boundary toward the newest; on detection the
        oldest bucket is dropped and the scan restarts, exactly as in the
        reference ADWIN2 pseudocode.
        """
        changed = False
        reduced = True
        sqrt = math.sqrt

        def window_terms():
            n = float(self._width)
            variance = self._variance / n if n else 0.0
            log_term = math.log(2.0 * math.log(max(n, math.e)) / self.delta)
            return (
                self._width,
                self._total,
                log_term,
                2.0 * variance * log_term,
            )

        while reduced:
            reduced = False
            # Window statistics only change on a drop, so the
            # per-boundary Hoeffding terms that depend on them are
            # hoisted out of the walk and refreshed after every drop
            # (either here, when the walk restarts, or inline when a
            # below-min_window drop lets the walk continue) — matching
            # the reference code's live reads at each boundary.
            width, total, log_term, variance_term = window_terms()
            n0 = 0.0
            sum0 = 0.0
            for level in range(len(self._rows) - 1, -1, -1):
                capacity = float(1 << level)
                for bucket in reversed(self._rows[level].buckets):
                    n0 += capacity
                    sum0 += bucket.total
                    n1 = width - n0
                    if n0 < 1 or n1 < 1:
                        continue
                    mean0 = sum0 / n0
                    mean1 = (total - sum0) / n1
                    inv_harmonic = 1.0 / n0 + 1.0 / n1
                    epsilon = (
                        sqrt(variance_term * inv_harmonic)
                        + 2.0 / 3.0 * inv_harmonic * log_term
                    )
                    if abs(mean0 - mean1) > epsilon:
                        self._drop_oldest()
                        self._detections += 1
                        changed = True
                        reduced = self._width > self.min_window
                        if not reduced:
                            width, total, log_term, variance_term = window_terms()
                        break
                if reduced:
                    break
        return changed


class ReferenceStreamStatistics:
    """Per-sample Statistics Manager stream: every tuple goes straight
    through ``ReferenceAdwin.update`` and a trim, no queue or fold."""

    def __init__(self, granularity_ms: int, adwin_delta: float = 0.002) -> None:
        if granularity_ms <= 0:
            raise ValueError(f"granularity must be positive, got {granularity_ms}")
        self.granularity_ms = granularity_ms
        self._adwin = ReferenceAdwin(delta=adwin_delta)
        self._delays: Deque[int] = deque()
        self._arrivals: Deque[int] = deque()
        self._ksyncs: Deque[int] = deque()
        self._bucket_counts: Dict[int, int] = {}
        self._ksync_sum = 0
        self.tuples_observed = 0

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def observe(self, delay_ms: int, arrival_ms: int, ksync_ms: Optional[int]) -> None:
        """Record one tuple of this stream (delay annotation already set)."""
        self.tuples_observed += 1
        self._adwin.update(float(delay_ms))
        self._delays.append(delay_ms)
        self._arrivals.append(arrival_ms)
        bucket = coarse_delay(delay_ms, self.granularity_ms)
        self._bucket_counts[bucket] = self._bucket_counts.get(bucket, 0) + 1
        if ksync_ms is not None:
            self._ksyncs.append(ksync_ms)
            self._ksync_sum += ksync_ms
        self._trim_to_adwin_width()

    def _trim_to_adwin_width(self) -> None:
        """Keep the deques no longer than ADWIN's current window width."""
        width = max(1, self._adwin.width)
        while len(self._delays) > width:
            old = self._delays.popleft()
            self._arrivals.popleft()
            bucket = coarse_delay(old, self.granularity_ms)
            remaining = self._bucket_counts.get(bucket, 0) - 1
            if remaining <= 0:
                self._bucket_counts.pop(bucket, None)
            else:
                self._bucket_counts[bucket] = remaining
        while len(self._ksyncs) > width:
            self._ksync_sum -= self._ksyncs.popleft()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def window_length(self) -> int:
        """Current length of R_i^stat in tuples."""
        return len(self._delays)

    def delay_pdf(self) -> List[float]:
        """Coarse-delay pdf ``f_{D_i}`` as a dense list (index = bucket).

        Returns ``[1.0]`` (all mass on delay 0) when nothing was observed,
        which makes downstream model code total-probability-safe.
        """
        total = len(self._delays)
        if total == 0:
            return [1.0]
        max_bucket = max(self._bucket_counts)
        pdf = [0.0] * (max_bucket + 1)
        for bucket, count in self._bucket_counts.items():
            pdf[bucket] = count / total
        return pdf

    def max_coarse_delay(self) -> int:
        """Largest coarse delay bucket present in R_i^stat (0 when empty)."""
        return max(self._bucket_counts) if self._bucket_counts else 0

    def mean_ksync(self) -> float:
        """Average synchronizer-slack sample over R_i^stat (ms)."""
        return self._ksync_sum / len(self._ksyncs) if self._ksyncs else 0.0

    def rate_per_ms(self) -> float:
        """Arrival rate in tuples per millisecond over R_i^stat."""
        if len(self._arrivals) < 2:
            return 0.0
        span = self._arrivals[-1] - self._arrivals[0]
        if span <= 0:
            return 0.0
        return (len(self._arrivals) - 1) / span

    @property
    def adwin_detections(self) -> int:
        return self._adwin.detections


class ReferenceStatisticsManager:
    """Per-arrival Statistics Manager over :class:`ReferenceStreamStatistics`:
    each tuple advances its stream's local time, then takes its K_sync
    sample as ``iT - min_j jT`` over every local time, once every stream
    has been seen (Proposition 1)."""

    def __init__(self, num_streams: int, granularity_ms: int) -> None:
        self.granularity_ms = granularity_ms
        self.streams = [
            ReferenceStreamStatistics(granularity_ms) for _ in range(num_streams)
        ]
        self._local_times = [0] * num_streams
        self._seen = [False] * num_streams

    def observe_arrival(self, t: StreamTuple) -> None:
        i = t.stream
        if not self._seen[i] or t.ts > self._local_times[i]:
            self._local_times[i] = t.ts
        self._seen[i] = True
        ksync = None
        if all(self._seen):
            ksync = self._local_times[i] - min(self._local_times)
        arrival = t.arrival if t.arrival >= 0 else self._local_times[i]
        self.streams[i].observe(t.delay, arrival, ksync)

    def delay_pdfs(self) -> List[List[float]]:
        return [s.delay_pdf() for s in self.streams]

    def ksync_estimates_ms(self) -> List[float]:
        means = [s.mean_ksync() for s in self.streams]
        return [mean - min(means) for mean in means]

    def rates_per_ms(self) -> List[float]:
        return [s.rate_per_ms() for s in self.streams]

    def max_delay_ms(self) -> int:
        return max(s.max_coarse_delay() for s in self.streams) * self.granularity_ms
