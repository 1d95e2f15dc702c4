"""Tree-of-binary-joins execution of an MSWJ (paper Sec. V).

The paper notes that an MSWJ can equivalently be implemented as a tree of
binary join operators, and that the quality-driven disorder handling
framework applies unchanged as long as (a) every operator instance follows
the Alg. 2 processing semantics and (b) each instance synchronizes its
inputs with a Synchronizer before joining ("prior-join synchronization").

This module implements that execution strategy:

* :class:`BinaryJoinNode` — a two-input join operator.  Each input port
  carries either a base stream or the output of a child node.  The node
  keeps one window per port, synchronizes its two inputs with a private
  :class:`~repro.core.synchronizer.Synchronizer`, processes in-order
  arrivals with probe + insert and out-of-order survivors with
  insert-only, exactly like Alg. 2.
* :class:`PartialResult` — a composite tuple covering a subset of the
  original streams; its timestamp is the maximum component timestamp and
  its expiry is ``min_j (ts_j + W_j)`` over its components, which is
  exactly when no future partner can satisfy the pairwise window
  constraints anymore.
* :class:`TreeJoinOperator` — builds a left-deep tree over m streams,
  routes base tuples to the right leaves, propagates delay annotations
  (Sec. V: intermediate results are annotated with the triggering
  tuple's delay) and exposes the same ``process`` / ``on_t`` surface as
  :class:`~repro.join.mswj.MSWJOperator`, so it can be compared head to
  head and driven by the same front end.

Correctness note: a combination ``<e_1, ..., e_m>`` is an MSWJ result iff
every pair satisfies ``e_j.ts >= e_i.ts - W_j``.  The node's probe checks
the pairwise constraints across the two sides explicitly, so on in-order
input the tree produces exactly the MJoin result set (the test suite
verifies this against the reference).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Sequence, Tuple, Union

from ..core.synchronizer import Synchronizer
from ..core.tuples import JoinResult, StreamTuple
from ..join.conditions import JoinCondition


class PartialResult:
    """A composite tuple covering one or more base streams.

    ``components`` maps original stream index → base tuple.  ``ts`` is the
    max component timestamp (the MSWJ result-timestamp rule) and ``delay``
    carries the propagated delay annotation of the tuple that triggered
    the derivation (paper Sec. V instrumentation).  ``stream`` is the
    input port at the node currently synchronizing the composite — with
    ``ts`` it is all a :class:`~repro.core.synchronizer.Synchronizer`
    reads, so composites go through one as themselves.
    """

    __slots__ = ("components", "ts", "delay", "stream", "_expiry")

    def __init__(self, components: Dict[int, StreamTuple], delay: int = 0) -> None:
        self.components = components
        self.ts = max(t.ts for t in components.values())
        self.delay = delay
        self.stream = 0
        self._expiry: Union[int, None] = None

    def expiry(self, window_sizes_ms: Sequence[int]) -> int:
        """Latest trigger timestamp this composite can still join with.

        The components and the operator's window sizes are both fixed for
        the composite's lifetime, so the value is computed once and cached
        (it is consulted on every insert and every pairwise probe).
        """
        cached = self._expiry
        if cached is None:
            cached = self._expiry = min(
                t.ts + window_sizes_ms[stream]
                for stream, t in self.components.items()
            )
        return cached

    @staticmethod
    def of(base: StreamTuple) -> "PartialResult":
        return PartialResult({base.stream: base}, delay=base.delay)


class _PortWindow:
    """Window of composites on one input port, expired by composite expiry."""

    def __init__(self, window_sizes_ms: Sequence[int]) -> None:
        self._window_sizes = window_sizes_ms
        self._slots: Dict[int, PartialResult] = {}
        self._next = 0
        self._heap: List[Tuple[int, int]] = []  # (expiry, slot)

    def insert(self, item: PartialResult) -> None:
        slot = self._next
        self._next += 1
        self._slots[slot] = item
        heapq.heappush(self._heap, (item.expiry(self._window_sizes), slot))

    def expire(self, trigger_ts: int) -> None:
        """Drop composites that no trigger at ``trigger_ts`` or later can join."""
        while self._heap and self._heap[0][0] < trigger_ts:
            _, slot = heapq.heappop(self._heap)
            self._slots.pop(slot, None)

    def items(self) -> List[PartialResult]:
        return list(self._slots.values())

    @property
    def cardinality(self) -> int:
        return len(self._slots)


def _pairwise_windows_ok(
    left: PartialResult, right: PartialResult, window_sizes_ms: Sequence[int]
) -> bool:
    for i, a in left.components.items():
        for j, b in right.components.items():
            if b.ts < a.ts - window_sizes_ms[j]:
                return False
            if a.ts < b.ts - window_sizes_ms[i]:
                return False
    return True


class BinaryJoinNode:
    """One binary join operator instance with prior-join synchronization."""

    def __init__(
        self,
        window_sizes_ms: Sequence[int],
        condition: JoinCondition,
        left_cover: frozenset,
        right_cover: frozenset,
        output: Callable[[PartialResult], None],
    ) -> None:
        self.window_sizes_ms = window_sizes_ms
        self.condition = condition
        self.covers = (left_cover, right_cover)
        self.cover = left_cover | right_cover
        self._windows = (_PortWindow(window_sizes_ms), _PortWindow(window_sizes_ms))
        self._sync = Synchronizer(2)
        self._output = output
        self.on_t = 0
        self._port_closed = [False, False]
        #: predicates fully bound once both sides are present, and not
        #: already closed within either side alone.
        self._closing_predicates = [
            p
            for p in condition.predicates
            if p.streams <= self.cover
            and not p.streams <= left_cover
            and not p.streams <= right_cover
        ]

    # ------------------------------------------------------------------
    # input handling
    # ------------------------------------------------------------------

    def feed(self, port: int, item: PartialResult) -> None:
        """Accept a composite on ``port`` (0 = left, 1 = right) and run
        it through the per-node Synchronizer, tagged with its port."""
        if self._port_closed[port]:
            raise ValueError(f"input port {port} already closed")
        item.stream = port
        self._emit(self._sync.process(item))

    def _emit(self, emitted: list) -> None:
        """Join what the synchronizer let through (fed composites)."""
        for item in emitted:
            self._process(item.stream, item)

    @property
    def exhausted(self) -> bool:
        """Both input ports closed: the node can produce nothing further."""
        return self._port_closed[0] and self._port_closed[1]

    def flush_input(self, port: int) -> None:
        """Signal end of input on ``port``; idempotent.

        Closing a port stops it gating the node's synchronizer, so tuples
        buffered on the other port drain immediately instead of waiting on
        a partner that will never arrive.  Once both ports are closed the
        synchronizer is fully drained — it holds the composites
        themselves, so nothing else can be left behind.
        """
        if self._port_closed[port]:
            return
        self._port_closed[port] = True
        self._emit(self._sync.close_stream(port))

    def flush(self) -> None:
        self._emit(self._sync.flush())

    # ------------------------------------------------------------------
    # Alg. 2 semantics on composites
    # ------------------------------------------------------------------

    def _process(self, port: int, item: PartialResult) -> None:
        other = 1 - port
        if item.ts >= self.on_t:
            self.on_t = item.ts
            self._windows[other].expire(item.ts)
            for candidate in self._windows[other].items():
                self._try_emit(item, candidate, port)
            self._windows[port].insert(item)
        else:
            # Out of order: keep it if it can still join a future trigger.
            if item.expiry(self.window_sizes_ms) >= self.on_t:
                self._windows[port].insert(item)

    def _try_emit(self, item: PartialResult, candidate: PartialResult, port: int) -> None:
        left, right = (candidate, item) if port == 1 else (item, candidate)
        if not _pairwise_windows_ok(left, right, self.window_sizes_ms):
            return
        merged = dict(left.components)
        merged.update(right.components)
        for predicate in self._closing_predicates:
            if not predicate.evaluate(merged):
                return
        self._output(PartialResult(merged, delay=item.delay))


class TreeJoinOperator:
    """Left-deep tree of binary joins, drop-in comparable to MJoin.

    The node over streams {0, 1} feeds the node over {0, 1, 2}, and so
    on.  ``process`` accepts base-stream tuples in (partially sorted)
    order — e.g. straight from a K-slack + Synchronizer front end — and
    returns the final results produced by the root.  Every node runs
    in-process; scaling out across machines is the partitioned
    pipeline's job (``transport="socket"``), not the tree's.
    """

    def __init__(
        self,
        window_sizes_ms: Sequence[int],
        condition: JoinCondition,
        collect_results: bool = True,
    ) -> None:
        if len(window_sizes_ms) < 2:
            raise ValueError("a join tree needs at least two streams")
        self.window_sizes_ms = [int(w) for w in window_sizes_ms]
        self.condition = condition
        self.num_streams = len(window_sizes_ms)
        self._collect = collect_results
        #: results produced since the last drain — handed over (not
        #: sliced) by :meth:`_drain`, so residency stays bounded by one
        #: call's output instead of the whole stream's history.
        self._results: List[JoinResult] = []
        self._count = 0
        self._closed = [False] * self.num_streams
        self.nodes: List[BinaryJoinNode] = []
        left_cover = frozenset({0})
        for stream in range(1, self.num_streams):
            is_root = stream == self.num_streams - 1
            sink = self._root_sink if is_root else self._make_forwarder(len(self.nodes) + 1)
            self.nodes.append(
                BinaryJoinNode(
                    self.window_sizes_ms,
                    condition,
                    left_cover,
                    frozenset({stream}),
                    output=sink,
                )
            )
            left_cover = left_cover | {stream}

    def _make_forwarder(self, next_index: int) -> Callable[[PartialResult], None]:
        def forward(item: PartialResult) -> None:
            self.nodes[next_index].feed(0, item)

        return forward

    def _root_sink(self, item: PartialResult) -> None:
        self._count += 1
        if self._collect:
            components = tuple(
                item.components[s] for s in range(self.num_streams)
            )
            self._results.append(JoinResult(item.ts, components))

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------

    @property
    def on_t(self) -> int:
        return self.nodes[-1].on_t

    def process(self, t: StreamTuple) -> Union[List[JoinResult], int]:
        """Feed one base tuple; return results completed by the root."""
        if not 0 <= t.stream < self.num_streams:
            raise ValueError(
                f"tuple stream index {t.stream} outside [0, {self.num_streams})"
            )
        if self._closed[t.stream]:
            raise ValueError(f"stream {t.stream} already closed")
        before = self._count
        if t.stream == 0:
            self.nodes[0].feed(0, PartialResult.of(t))
        else:
            self.nodes[t.stream - 1].feed(1, PartialResult.of(t))
        return self._drain(before)

    def close_stream(self, stream: int) -> Union[List[JoinResult], int]:
        """Signal end of input on one base stream (finite-run surface).

        Mirrors the pipeline's per-stream ``Synchronizer.close_stream``
        semantics at the tree level: the stream stops gating its node's
        synchronizer, and exhaustion propagates down the left-deep chain —
        once both of a node's ports are closed, its output can never grow
        again, which closes the downstream node's port 0, and so on.
        Closing every base stream is therefore equivalent to a full
        :meth:`flush`.  Idempotent per stream; returns the results the
        closure unlocked.
        """
        if not 0 <= stream < self.num_streams:
            raise ValueError(
                f"stream index {stream} outside [0, {self.num_streams})"
            )
        before = self._count
        if self._closed[stream]:
            return self._drain(before)
        self._closed[stream] = True
        if stream == 0:
            self.nodes[0].flush_input(0)
        else:
            self.nodes[stream - 1].flush_input(1)
        # Left-deep cascade: an exhausted node closes its parent's port 0.
        for index, node in enumerate(self.nodes[:-1]):
            if node.exhausted:
                self.nodes[index + 1].flush_input(0)
            else:
                break
        return self._drain(before)

    def flush(self) -> Union[List[JoinResult], int]:
        """Flush every node's synchronizer, left to right."""
        before = self._count
        for node in self.nodes:
            node.flush()
        return self._drain(before)

    def _drain(self, before: int) -> Union[List[JoinResult], int]:
        if self._collect:
            new = self._results
            self._results = []
            return new
        return self._count - before

    @property
    def results_produced(self) -> int:
        return self._count
