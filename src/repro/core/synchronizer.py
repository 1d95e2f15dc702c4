"""The Synchronizer: inter-stream disorder handling (paper Alg. 1).

The Synchronizer merges the output streams of all K-slack components into
a single stream that is (partially) sorted and synchronized.  It keeps a
buffer ``SyncBuf`` and a variable ``T_sync`` tracking the maximum
timestamp among tuples that have left the buffer:

* A tuple ``e`` with ``e.ts > T_sync`` is inserted into the buffer; then,
  while the buffer holds at least one tuple of *each* stream, the minimum
  timestamp present becomes the new ``T_sync`` and every buffered tuple
  with that timestamp is emitted (Alg. 1 lines 4–8).
* A tuple with ``e.ts <= T_sync`` is a straggler the buffer cannot fix; it
  is emitted immediately, still out of order (lines 9–10).

The buffer thereby implicitly re-orders the *leading* streams with an
effective extra slack ``K_i^sync`` equal to the stream's timestamp lead
over the slowest stream — the quantity the Same-K analysis (Theorem 1)
is built on.

Finite-run additions (not in the paper's pseudocode, which assumes
endless streams): :meth:`close_stream` marks a stream as ended so it no
longer gates emission, and :meth:`flush` drains the buffer at end of
input.  Both preserve the ordering invariants.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Sequence

from .tuples import StreamTuple


class Synchronizer:
    """Merge m (partially sorted) streams into one synchronized stream."""

    def __init__(self, num_streams: int) -> None:
        if num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {num_streams}")
        self.num_streams = num_streams
        self._t_sync = 0
        self._heap: List = []  # (ts, tie, tuple)
        self._tie = 0
        self._counts = [0] * num_streams
        self._closed = [False] * num_streams
        self._buffered_total = 0
        # Number of *open* streams with an empty buffer — the streams
        # gating emission.  Maintained incrementally so the drain loop's
        # completeness check is O(1) instead of an all-streams scan.
        self._gating = num_streams

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------

    @property
    def t_sync(self) -> int:
        """Maximum timestamp among tuples that have left the buffer."""
        return self._t_sync

    @property
    def buffered(self) -> int:
        return self._buffered_total

    def buffered_of(self, stream: int) -> int:
        return self._counts[stream]

    # ------------------------------------------------------------------
    # Alg. 1
    # ------------------------------------------------------------------

    def process(self, t: StreamTuple) -> List[StreamTuple]:
        """Accept one tuple from any K-slack output; return tuples emitted."""
        return self.process_batch((t,))

    def process_batch(self, batch: Sequence[StreamTuple]) -> List[StreamTuple]:
        """Accept a burst of K-slack output tuples; return tuples emitted.

        Follows Alg. 1 exactly, one tuple after the other: tuples with
        ``ts <= T_sync`` are stragglers the buffer cannot fix and are
        forwarded immediately (with the ``T_sync`` initial value 0, a
        tuple timestamped 0 passes straight through — harmless, as
        nothing can precede it); every other tuple is buffered and the
        buffer drained while it is complete.
        """
        emitted: List[StreamTuple] = []
        append = emitted.append
        extend = emitted.extend
        num_streams = self.num_streams
        for t in batch:
            if not 0 <= t.stream < num_streams:
                raise ValueError(
                    f"tuple stream index {t.stream} outside [0, {num_streams})"
                )
            if t.ts <= self._t_sync:
                append(t)
                continue
            self._push(t)
            extend(self._drain_while_complete())
        return emitted

    def close_stream(self, stream: int) -> List[StreamTuple]:
        """Mark ``stream`` as ended; it stops gating emission.

        Returns any tuples that become emittable because of the closure.
        Closing an already-closed stream is a no-op (returns no tuples):
        the closure cannot unlock anything a previous drain did not.
        """
        if not 0 <= stream < self.num_streams:
            raise ValueError(
                f"stream index {stream} outside [0, {self.num_streams})"
            )
        if self._closed[stream]:
            return []
        self._closed[stream] = True
        if self._counts[stream] == 0:
            self._gating -= 1
        return self._drain_while_complete()

    # ------------------------------------------------------------------
    # state-migration hooks (repro.parallel rebalancing)
    # ------------------------------------------------------------------

    def drain_below(self, watermark_ts: int) -> List[StreamTuple]:
        """Emit every buffered tuple with ``ts <= watermark_ts``, in order.

        The completeness gate (Alg. 1 line 4) is conservative: it holds a
        leading stream's tuples until every other stream has buffered
        content, because for endless streams nothing else bounds what a
        lagging stream may still deliver.  A caller that *does* hold such
        a bound — the partitioned engine's rebalancing barrier, where the
        parent's global arrival clock guarantees no future release below
        ``watermark_ts`` — may force the buffer out early.  Emission stays
        timestamp-ordered and advances ``T_sync`` exactly as a regular
        drain would, so downstream ordering invariants are preserved.
        """
        heap = self._heap
        if not heap or heap[0][0] > watermark_ts:
            return []
        emitted: List[StreamTuple] = []
        pop = heapq.heappop
        while heap and heap[0][0] <= watermark_ts:
            ts, _, t = pop(heap)
            self._pop_count(t.stream)
            if ts > self._t_sync:
                self._t_sync = ts
            emitted.append(t)
        return emitted

    def extract(
        self, predicate: Callable[[StreamTuple], bool]
    ) -> List[StreamTuple]:
        """Remove and return buffered tuples matching ``predicate``.

        Returned in timestamp (then insertion) order.  ``T_sync`` and the
        gating bookkeeping are maintained; the extracted tuples simply
        leave through the migration path instead of being emitted.  This
        is a load-bearing leg of the rebalancing barrier: the barrier's
        :meth:`drain_below` is floored at the cross-stream progress
        bound, so any tuple buffered between that floor and the beacon —
        routine whenever one stream trails the others in timestamp —
        stays here and must migrate through this sweep (it also covers
        leftovers under heterogeneous per-stream ``K``).
        """
        matched: List = []
        kept: List = []
        for entry in self._heap:
            (matched if predicate(entry[2]) else kept).append(entry)
        if not matched:
            return []
        heapq.heapify(kept)
        self._heap = kept
        matched.sort()
        extracted = []
        for entry in matched:
            t = entry[2]
            self._pop_count(t.stream)
            extracted.append(t)
        return extracted

    def flush(self) -> List[StreamTuple]:
        """Emit the whole buffer in timestamp order (end of all input)."""
        emitted: List[StreamTuple] = []
        while self._heap:
            ts, _, t = heapq.heappop(self._heap)
            self._pop_count(t.stream)
            if ts > self._t_sync:
                self._t_sync = ts
            emitted.append(t)
        return emitted

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _push(self, t: StreamTuple) -> None:
        heapq.heappush(self._heap, (t.ts, self._tie, t))
        self._tie += 1
        stream = t.stream
        self._counts[stream] += 1
        self._buffered_total += 1
        if self._counts[stream] == 1 and not self._closed[stream]:
            self._gating -= 1

    def _pop_count(self, stream: int) -> None:
        self._counts[stream] -= 1
        self._buffered_total -= 1
        if self._counts[stream] == 0 and not self._closed[stream]:
            self._gating += 1

    def _drain_while_complete(self) -> List[StreamTuple]:
        heap = self._heap
        if not heap or self._gating:
            return []
        emitted: List[StreamTuple] = []
        append = emitted.append
        pop = heapq.heappop
        while heap and not self._gating:
            min_ts = heap[0][0]
            if min_ts > self._t_sync:
                self._t_sync = min_ts
            while heap and heap[0][0] == min_ts:
                _, _, t = pop(heap)
                self._pop_count(t.stream)
                append(t)
        return emitted
