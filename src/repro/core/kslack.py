"""The K-slack input-sorting buffer (paper Sec. III-A, Fig. 3).

K-slack handles *intra-stream* disorder: a buffer of ``K`` time units
holds back tuples of one stream and releases them in timestamp order.
Whenever the stream's local current time ``iT`` (maximum timestamp seen)
advances, every buffered tuple ``e`` with ``e.ts + K <= iT`` is emitted,
smallest timestamp first.  A tuple whose delay exceeds ``K`` cannot be
fully re-ordered and leaves the buffer still out of order, but with its
delay reduced by ``K`` (paper Fig. 3).

The buffer size ``K`` is dynamic: the Buffer-Size Manager updates it at
every adaptation step via :meth:`KSlackBuffer.set_k`.  Shrinking ``K``
releases newly-eligible tuples immediately.

On entry each tuple is annotated with its raw delay
``delay(e) = iT - e.ts`` (paper Sec. IV-B); the annotation rides along to
the join operator for productivity profiling.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from .tuples import StreamTuple


class KSlackBuffer:
    """Sorting buffer of one input stream with a dynamic slack ``K``.

    Parameters
    ----------
    k_ms:
        Initial buffer size in milliseconds (``K_i``); 0 means pass-through
        (tuples are forwarded at arrival, still annotated with their delay).
    """

    def __init__(self, k_ms: int = 0) -> None:
        if k_ms < 0:
            raise ValueError(f"K must be non-negative, got {k_ms}")
        self._k = int(k_ms)
        self._local_time: Optional[int] = None
        self._heap: List = []  # (ts, tie, tuple)
        self._tie = 0
        self._flushed = False
        self.tuples_seen = 0
        self.max_observed_delay = 0

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        return self._k

    def set_k(self, k_ms: int) -> List[StreamTuple]:
        """Update ``K``; returns tuples released if the buffer shrank."""
        if k_ms < 0:
            raise ValueError(f"K must be non-negative, got {k_ms}")
        shrank = k_ms < self._k
        self._k = int(k_ms)
        return self._drain_ready() if shrank else []

    @property
    def local_time(self) -> int:
        """The stream's local current time ``iT`` (0 before any tuple)."""
        return self._local_time if self._local_time is not None else 0

    @property
    def buffered(self) -> int:
        return len(self._heap)

    @property
    def flushed(self) -> bool:
        """True once :meth:`flush` ran; :meth:`process` then raises and
        further :meth:`flush` calls return empty."""
        return self._flushed

    # ------------------------------------------------------------------
    # streaming interface
    # ------------------------------------------------------------------

    def process(self, t: StreamTuple) -> List[StreamTuple]:
        """Accept one tuple in arrival order; return tuples released now.

        Annotates the tuple's :attr:`~repro.core.tuples.StreamTuple.delay`
        with ``iT - e.ts`` *after* updating ``iT`` (a tuple that advances
        the local time has delay 0).
        """
        if self._flushed:
            raise RuntimeError(
                "K-slack buffer already flushed; create a new instance"
            )
        if self._local_time is None or t.ts > self._local_time:
            self._local_time = t.ts
        t.delay = self._local_time - t.ts
        self.max_observed_delay = max(self.max_observed_delay, t.delay)
        self.tuples_seen += 1
        heapq.heappush(self._heap, (t.ts, self._tie, t))
        self._tie += 1
        return self._drain_ready()

    # ------------------------------------------------------------------
    # state-migration hooks (repro.parallel rebalancing)
    # ------------------------------------------------------------------

    def advance_clock(self, ts: int) -> List[StreamTuple]:
        """Advance the local current time ``iT`` to ``ts`` without a tuple.

        Returns the tuples this releases, smallest timestamp first.  The
        caller asserts that ``ts`` is a genuine arrival-time watermark —
        i.e. that no future tuple of this stream will carry a timestamp
        below ``ts - K`` that the buffer could still have re-ordered.
        The partitioned engine's shard rebalancing uses this as the
        barrier drain before window state migrates: the parent's global
        arrival clock is such a watermark whenever disorder handling is
        lossless (``K`` at least the realized maximum delay).  A clock
        in the past is ignored (``iT`` never moves backwards).
        """
        if self._flushed:
            raise RuntimeError(
                "K-slack buffer already flushed; create a new instance"
            )
        if self._local_time is None or ts > self._local_time:
            self._local_time = ts
        return self._drain_ready()

    def adopt(self, t: StreamTuple) -> None:
        """Insert an already-annotated tuple migrated from a peer buffer.

        Unlike :meth:`process` this neither advances the clock nor
        re-annotates the delay (the tuple's annotation from its original
        buffer is the true one) nor counts the tuple in the arrival
        statistics — the originating buffer already did.  Deliberately
        does **not** release anything either: migrated tuples arrive in
        no particular order, and draining between insertions could hand
        a higher-timestamped adoptee downstream before a lower one.
        Adopt the whole batch, then call :meth:`drain_ready` once —
        releases then come out in timestamp order as usual.
        """
        if self._flushed:
            raise RuntimeError(
                "K-slack buffer already flushed; create a new instance"
            )
        heapq.heappush(self._heap, (t.ts, self._tie, t))
        self._tie += 1

    def drain_ready(self) -> List[StreamTuple]:
        """Release everything the current clock already permits.

        The explicit companion of :meth:`adopt`: after a batch of
        adoptions, one drain hands back — smallest timestamp first —
        every buffered tuple with ``ts + K <= iT`` (possible when this
        buffer's clock runs ahead of the migration source's).
        """
        if self._flushed:
            raise RuntimeError(
                "K-slack buffer already flushed; create a new instance"
            )
        return self._drain_ready()

    def extract(
        self, predicate: Callable[[StreamTuple], bool]
    ) -> List[StreamTuple]:
        """Remove and return buffered tuples matching ``predicate``.

        Returned tuples come back in release (timestamp, then arrival)
        order; the buffer keeps its clock and delay statistics — the
        extracted tuples *did* arrive here, they just leave through the
        migration path instead of the release path.  Used by shard
        rebalancing to pull the in-flight tuples of moved key groups.
        """
        if self._flushed:
            raise RuntimeError(
                "K-slack buffer already flushed; create a new instance"
            )
        matched: List = []
        kept: List = []
        for entry in self._heap:
            (matched if predicate(entry[2]) else kept).append(entry)
        if not matched:
            return []
        heapq.heapify(kept)
        self._heap = kept
        matched.sort()
        return [entry[2] for entry in matched]

    def _drain_ready(self) -> List[StreamTuple]:
        if self._local_time is None:
            return []
        released: List[StreamTuple] = []
        bound = self._local_time - self._k
        while self._heap and self._heap[0][0] <= bound:
            released.append(heapq.heappop(self._heap)[2])
        return released

    def flush(self) -> List[StreamTuple]:
        """Release everything still buffered (end of stream), in ts order.

        Flushing is terminal: the buffer's clock (``iT``) and delay
        statistics stop at their end-of-stream values, so a subsequent
        :meth:`process` would annotate delays against a dead clock —
        it raises instead.  Re-flushing is an idempotent no-op.
        """
        if self._flushed:
            return []
        self._flushed = True
        released = [entry[2] for entry in sorted(self._heap)]
        self._heap.clear()
        return released
