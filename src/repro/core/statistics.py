"""The Statistics Manager (paper Fig. 2, Sec. IV-A).

Monitors the *raw* input streams and maintains, per stream ``S_i``:

* the tuple-delay distribution ``f_{D_i}`` as a histogram over the
  coarse-grained delay (bucket 0 for delay 0, bucket ``d`` for delay in
  ``((d-1)·g, d·g]``), built over a window ``R_i^stat`` of the stream's
  recent history whose length is set adaptively by ADWIN [25] on the raw
  delay signal;
* the average synchronizer slack sample ``K̄_i^sync`` over the same
  window.  Per Proposition 1 the sample is taken on the raw streams as
  ``iT - min_j jT`` regardless of the K value currently applied;
* the arrival rate ``r_i`` (tuples per millisecond), from the arrival
  times of the tuples in ``R_i^stat`` (from the stream's local clock when
  the tuples carry no arrival stamp);
* ``MaxDH`` inputs: the largest coarse delay present in the window.

All quantities are maintained incrementally (O(1) amortized per tuple):
the deques hold the raw values, a counter of coarse buckets backs the
histogram, and a running sum backs the K_sync average.

A tuple costs three list appends: :meth:`StreamStatistics.observe` only
queues its delay, arrival and K_sync sample.  The queue is folded in
bulk — into ADWIN, the deques, the bucket counts and the K_sync sum —
when ADWIN's next cut check falls due (every ``clock``-th sample) and
before any read.  A fold thus holds at most one cut check, at its last
sample, and that is the only point where ADWIN's window can shrink:
without a cut it grows by exactly one per sample, as the deques do, so
they are trimmed to its width only after a cut.  Every read is
therefore bit-identical to folding each tuple as it arrives.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import repeat
from typing import Deque, Iterable, List, Optional

from ..adwin.adwin import Adwin
from .tuples import StreamTuple


def coarse_delay(delay_ms: int, granularity_ms: int) -> int:
    """Map a delay to its coarse bucket: 0 ↔ 0, ``((d-1)g, dg]`` ↔ ``d``."""
    if delay_ms <= 0:
        return 0
    return (delay_ms + granularity_ms - 1) // granularity_ms


class StreamStatistics:
    """Adaptive-window statistics of one input stream."""

    def __init__(self, granularity_ms: int, adwin_delta: float = 0.002) -> None:
        if granularity_ms <= 0:
            raise ValueError(f"granularity must be positive, got {granularity_ms}")
        self.granularity_ms = granularity_ms
        self._adwin = Adwin(delta=adwin_delta)
        self._delays: Deque[int] = deque()
        self._arrivals: Deque[int] = deque()
        self._ksyncs: Deque[int] = deque()
        self._bucket_counts: Counter = Counter()
        self._ksync_sum = 0
        self._folded = 0
        # Observed but not yet folded, and how many more make a fold.
        self._new_delays: List[int] = []
        self._new_arrivals: List[int] = []
        self._new_ksyncs: List[int] = []
        self._due = self._adwin.clock

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def observe(self, delay_ms: int, arrival_ms: int, ksync_ms: Optional[int]) -> None:
        """Record one tuple of this stream (delay annotation already set)."""
        self._new_delays.append(delay_ms)
        self._new_arrivals.append(arrival_ms)
        if ksync_ms is not None:
            self._new_ksyncs.append(ksync_ms)
        if len(self._new_delays) == self._due:
            self._fold()

    def _fold(self) -> None:
        """Fold the queued tuples in; they end at or before a cut check."""
        delays = self._new_delays
        if not delays:
            return
        cut = self._adwin.extend(list(map(float, delays)))
        self._delays.extend(delays)
        self._arrivals.extend(self._new_arrivals)
        g = self.granularity_ms  # coarse_delay(), inlined
        self._bucket_counts.update([(d + g - 1) // g if d > 0 else 0 for d in delays])
        self._ksyncs.extend(self._new_ksyncs)
        self._ksync_sum += sum(self._new_ksyncs)  # integer ms: exact in any order
        self._folded += len(delays)
        self._due = self._adwin.clock - self._folded % self._adwin.clock
        delays.clear()
        self._new_arrivals.clear()
        self._new_ksyncs.clear()
        if cut:
            self._trim_to_adwin_width()

    @property
    def tuples_observed(self) -> int:
        return self._folded + len(self._new_delays)

    def _trim_to_adwin_width(self) -> None:
        """Keep the deques no longer than ADWIN's current window width."""
        width = max(1, self._adwin.width)
        # Each deque pops its excess (none when the count is negative) in
        # one pass; a bucket whose count reaches zero goes (Counter ``-=``).
        excess = len(self._delays) - width
        removed = list(map(deque.popleft, repeat(self._delays, excess)))
        deque(map(deque.popleft, repeat(self._arrivals, excess)), maxlen=0)
        g = self.granularity_ms  # coarse_delay(), inlined
        self._bucket_counts -= Counter([(d + g - 1) // g if d > 0 else 0 for d in removed])
        # Integer ms: exact in any order.
        self._ksync_sum -= sum(map(deque.popleft, repeat(self._ksyncs, len(self._ksyncs) - width)))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def window_length(self) -> int:
        """Current length of R_i^stat in tuples."""
        self._fold()
        return len(self._delays)

    def delay_pdf(self) -> List[float]:
        """Coarse-delay pdf ``f_{D_i}`` as a dense list (index = bucket).

        Returns ``[1.0]`` (all mass on delay 0) when nothing was observed,
        which makes downstream model code total-probability-safe.
        """
        self._fold()
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
        self._fold()
        return max(self._bucket_counts) if self._bucket_counts else 0

    def mean_ksync(self) -> float:
        """Average synchronizer-slack sample over R_i^stat (ms)."""
        self._fold()
        return self._ksync_sum / len(self._ksyncs) if self._ksyncs else 0.0

    def rate_per_ms(self) -> float:
        """Arrival rate in tuples per millisecond over R_i^stat."""
        self._fold()
        if len(self._arrivals) < 2:
            return 0.0
        span = self._arrivals[-1] - self._arrivals[0]
        if span <= 0:
            return 0.0
        return (len(self._arrivals) - 1) / span

    @property
    def adwin_detections(self) -> int:
        self._fold()
        return self._adwin.detections


class StatisticsManager:
    """Aggregates per-stream statistics over the raw input streams.

    The pipeline calls :meth:`observe_batch` once per segment of raw
    tuples (see :meth:`~repro.core.pipeline.QualityDrivenPipeline.process_batch`),
    *after* their K-slack buffers updated the local times and attached
    the delay annotations.  Local times are tracked here redundantly so
    the manager can also be used standalone (e.g. in tests).
    """

    def __init__(
        self,
        num_streams: int,
        granularity_ms: int,
        adwin_delta: float = 0.002,
    ) -> None:
        if num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {num_streams}")
        self.num_streams = num_streams
        self.granularity_ms = granularity_ms
        self.streams = [
            StreamStatistics(granularity_ms, adwin_delta) for _ in range(num_streams)
        ]
        self._local_times = [0] * num_streams
        #: Streams with no tuple yet; K_sync is sampled once none is left.
        self._unseen = set(range(num_streams))

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def observe_arrival(self, t: StreamTuple) -> None:
        """Record one raw-arrival tuple (with its delay annotation set)."""
        self.observe_batch((t,))

    def observe_batch(self, tuples: Iterable[StreamTuple]) -> None:
        """Record raw-arrival tuples in arrival order, exactly as one
        :meth:`observe_arrival` each (a tuple with a bad stream index
        raises ``ValueError``, the tuples before it recorded).

        Timestamps are >= 0 and local times start at 0, so local times
        only grow: their minimum, which each K_sync sample needs, moves
        only when the stream holding it advances, and is re-taken only
        then.
        """
        local_times, unseen = self._local_times, self._unseen
        low = None
        for t in tuples:
            i = t.stream
            if not 0 <= i < self.num_streams:
                raise ValueError(f"stream index {i} outside [0, {self.num_streams})")
            if unseen:
                unseen.discard(i)
            now = local_times[i]
            if t.ts > now:
                if now == low:
                    low = None
                local_times[i] = now = t.ts
            if low is None and not unseen:
                low = min(local_times)
            # An unstamped tuple (arrival -1, the constructor default) is
            # clocked by its stream's local time: the application-time
            # rate, the unit the windows of Eqs. 1 and 3 are measured in.
            # Without it every rate is 0, γ is 1 at every K and Alg. 3
            # silently pins K = 0.
            self.streams[i].observe(
                t.delay,
                t.arrival if t.arrival >= 0 else now,
                None if unseen else now - low,
            )

    def fold(self) -> None:
        """Fold every stream's queued tuples in (each read does it too)."""
        for stream in self.streams:
            stream._fold()

    # ------------------------------------------------------------------
    # queries feeding the recall model
    # ------------------------------------------------------------------

    def local_time(self, stream: int) -> int:
        return self._local_times[stream]

    def app_time(self) -> int:
        """Global progress: the maximum local current time over all streams."""
        return max(self._local_times)

    def delay_pdfs(self) -> List[List[float]]:
        return [s.delay_pdf() for s in self.streams]

    def ksync_estimates_ms(self) -> List[float]:
        """Per-stream ``K_i^sync`` estimates: ``K̄_i^sync - min_j K̄_j^sync``.

        (Paper Sec. IV-A; the subtraction re-bases the averages so the
        slowest stream gets 0.)
        """
        means = [s.mean_ksync() for s in self.streams]
        floor = min(means)
        return [mean - floor for mean in means]

    def rates_per_ms(self) -> List[float]:
        return [s.rate_per_ms() for s in self.streams]

    def max_delay_ms(self) -> int:
        """``MaxDH``: the largest delay within the monitored histories (ms).

        Reported as the upper edge of the largest occupied coarse bucket,
        consistent with the g-granular search in Alg. 3.
        """
        worst_bucket = max(s.max_coarse_delay() for s in self.streams)
        return worst_bucket * self.granularity_ms
