"""ADWIN: ADaptive WINdowing with change detection (Bifet & Gavaldà 2007).

The paper's Statistics Manager sizes each stream's delay-history window
``R_i^stat`` with "the adaptive window approach proposed in [25]" — ADWIN.
ADWIN maintains a window of the most recent values of a (bounded) signal
and shrinks it whenever two adjacent sub-windows have averages that differ
by more than a threshold derived from the Hoeffding bound; the window
therefore grows on stationary input and collapses to recent data after a
distribution change.

This is the ADWIN2 variant: the window is stored as an exponential
histogram of buckets (at most ``max_buckets`` buckets per capacity level),
so memory is ``O(max_buckets · log(n))`` and each update is amortized
``O(log n)``.  Cut checks are performed every ``clock`` insertions, as in
the reference implementation.

The histogram is plain float lists, no object per bucket: row ``l``
holds the buckets of capacity ``2^l``, oldest first, as ``_totals[l]``
with the parallel ``_variances[l]``.  Row 0 holds the raw values, whose
variance is 0 and is not stored (``_variances[0]`` stays empty).
:meth:`extend` is the one insert path: it runs the per-value mean and
variance updates in input order, merges the two oldest buckets of every
row that overflowed, and makes the cut check at every ``clock``-th value
exactly as inserting the values one at a time would — merges take the
oldest pair of a row first whenever they happen, so deferring them to a
cut check leaves the same buckets.

The delta parameter is the change-detector confidence: smaller delta means
fewer false alarms but slower reaction.
"""

from __future__ import annotations

import math
from typing import List, Sequence


class Adwin:
    """Adaptive sliding window with Hoeffding-bound change detection.

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
        if clock < 1:
            raise ValueError(f"clock must be >= 1, got {clock}")
        self.delta = delta
        self.max_buckets = max_buckets
        self.clock = clock
        self.min_window = min_window
        self._totals: List[List[float]] = [[]]
        self._variances: List[List[float]] = [[]]
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
        return self.extend((value,))

    def extend(self, values: Sequence[float]) -> bool:
        """Insert ``values`` in order; return True if any cut check cut."""
        changed = False
        clock = self.clock
        start = 0
        while start < len(values):
            stop = start + clock - self._ticks % clock
            chunk = values[start:stop]
            self._insert(chunk)
            self._ticks += len(chunk)
            start = stop
            if self._ticks % clock == 0 and self._width >= self.min_window:
                changed = self._detect_and_cut() or changed
        return changed

    # ------------------------------------------------------------------
    # exponential-histogram maintenance
    # ------------------------------------------------------------------

    def _insert(self, values: Sequence[float]) -> None:
        width, total, variance = self._width, self._total, self._variance
        for value in values:
            if width > 0:
                mean = total / width
                variance += width / (width + 1.0) * (value - mean) * (value - mean)
            width += 1
            total += value
        self._width, self._total, self._variance = width, total, variance
        self._totals[0].extend(values)
        self._compress()

    def _compress(self) -> None:
        """Merge the two oldest buckets of each overflowing row upward."""
        totals, variances = self._totals, self._variances
        level = 0
        while level < len(totals) and len(totals[level]) > self.max_buckets:
            if level + 1 == len(totals):
                totals.append([])
                variances.append([])
            row, row_variances = totals[level], variances[level]
            up, up_variances = totals[level + 1], variances[level + 1]
            capacity = 1 << level
            while len(row) > self.max_buckets:
                older, newer = row[0], row[1]
                del row[:2]
                if level:
                    variance = row_variances[0] + row_variances[1]
                    del row_variances[:2]
                else:
                    variance = 0.0
                up.append(older + newer)
                up_variances.append(
                    variance
                    + capacity
                    * capacity
                    / (2.0 * capacity)
                    * (older / capacity - newer / capacity) ** 2
                )
            level += 1

    def _drop_oldest(self) -> None:
        """Remove the single oldest bucket (the head of the highest row).

        Rows left empty stay: every walk skips them, and the cut scan
        that calls this may go on walking down the rows afterwards.
        """
        totals, variances = self._totals, self._variances
        for level in range(len(totals) - 1, -1, -1):
            if totals[level]:
                bucket_total = totals[level].pop(0)
                bucket_variance = variances[level].pop(0) if level else 0.0
                capacity = 1 << level
                if self._width > capacity:
                    mean_bucket = bucket_total / capacity
                    mean_rest = (self._total - bucket_total) / (self._width - capacity)
                    self._variance -= bucket_variance + (
                        capacity
                        * (self._width - capacity)
                        / self._width
                        * (mean_bucket - mean_rest) ** 2
                    )
                    self._variance = max(0.0, self._variance)
                else:
                    self._variance = 0.0
                self._width -= capacity
                self._total -= bucket_total
                break

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
            for level in range(len(self._totals) - 1, -1, -1):
                capacity = float(1 << level)
                for bucket_total in self._totals[level]:
                    n0 += capacity
                    sum0 += bucket_total
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
