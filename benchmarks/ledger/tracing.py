"""Span tracing from outside the engine.

The traced run times calls into each layer's public methods by replacing
the bound method **on the live instance only** with a ``perf_counter``
wrapper; nothing is patched at class or module level, and
:meth:`Tracer.remove` restores every instance (which the ledger then
discards anyway).  In-program spans are ROADMAP item 4, not this file.

A span has a name (``<layer>`` or ``<layer>.<operation>``), a start, an
end and a parent: the wrapper that is open when it starts.  Spans are
not kept one by one — a heavy-probe run opens ~250 k of them — but
aggregated in memory per ``(chunk, name)``: calls, inclusive seconds and
*self* seconds (duration minus the part its child spans cover).  The
chunk index is the identifier every span of one driver call shares.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Per-name accumulator: [calls, self seconds, inclusive seconds].
Cell = List[float]


def layer_of(name: str) -> str:
    """``join.store.lookup`` -> ``join.store``; ``core.kslack`` stays."""
    parts = name.split(".")
    return ".".join(parts[:2])


class Tracer:
    def __init__(self) -> None:
        #: Child-seconds accumulators of the currently open spans.
        self._stack: List[float] = []
        self._open: Dict[str, Cell] = {}
        #: chunk index -> {span name: (calls, self_s, total_s)}.
        self.chunks: Dict[int, Dict[str, Tuple[int, float, float]]] = {}
        #: Per-call durations of the spans wrapped with ``keep=True``.
        self.durations: Dict[str, List[float]] = {}
        self._undo: List[Tuple[object, str, bool, object]] = []
        #: Every (instance, attribute) ever replaced; survives ``remove``
        #: so the self-check can see that nothing was left behind.
        self.touched: List[Tuple[object, str]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def traced(
        self,
        function: Callable,
        name: str,
        materialize: bool = False,
        observe: Optional[Callable[[object], None]] = None,
        keep: bool = False,
    ) -> Callable:
        """``function`` wrapped in a span called ``name``.

        ``materialize`` drains a lazily iterable return value inside the
        span (a window lookup's cost is in its iteration, which would
        otherwise be billed to the probe loop consuming it).  ``observe``
        sees each return value after the span has closed.
        """
        stack = self._stack
        cell = self._open.setdefault(name, [0, 0.0, 0.0])
        kept = self.durations.setdefault(name, []) if keep else None

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed - children
                cell[2] += elapsed
                if kept is not None:
                    kept.append(elapsed)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def replace(self, instance: object, attribute: str, value: object) -> None:
        """Set ``instance.attribute`` (instance only), remembering how to undo it."""
        own = vars(instance)
        self._undo.append((instance, attribute, attribute in own, own.get(attribute)))
        self.touched.append((instance, attribute))
        setattr(instance, attribute, value)

    def wrap(self, instance: object, method: str, name: str, **options) -> None:
        """Replace ``instance.method`` by its traced twin."""
        self.replace(instance, method, self.traced(getattr(instance, method), name, **options))

    def end_chunk(self, index: int) -> None:
        """Close the books of one driver call."""
        row = {}
        for name, cell in self._open.items():
            if cell[0]:
                row[name] = (int(cell[0]), cell[1], cell[2])
                cell[0], cell[1], cell[2] = 0, 0.0, 0.0
        self.chunks[index] = row

    def remove(self) -> None:
        """Take every wrapper off again."""
        while self._undo:
            instance, method, had_own, previous = self._undo.pop()
            if had_own:
                setattr(instance, method, previous)
            else:
                delattr(instance, method)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """span name -> (calls, self_s, total_s) over the whole run."""
        merged: Dict[str, List[float]] = {}
        for row in self.chunks.values():
            for name, (calls, self_s, total_s) in row.items():
                cell = merged.setdefault(name, [0, 0.0, 0.0])
                cell[0] += calls
                cell[1] += self_s
                cell[2] += total_s
        return {name: (int(c[0]), c[1], c[2]) for name, c in sorted(merged.items())}

    def layer_self_seconds(self) -> Dict[str, float]:
        """layer -> self seconds, operations of one layer summed."""
        layers: Dict[str, float] = {}
        for name, (_calls, self_s, _total) in self.totals().items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers


def instrument_pipeline(tracer: Tracer, pipeline, counters: Dict[str, int]) -> None:
    """Wrap the public per-layer methods of one ``QualityDrivenPipeline``.

    ``counters`` receives the counts read at the same boundaries
    (tuples released / emitted / expired).
    """

    def tally(key: str) -> Callable[[object], None]:
        counters.setdefault(key, 0)

        def observe(result: object) -> None:
            counters[key] += result if isinstance(result, int) else len(result)  # type: ignore[arg-type]

        return observe

    for kslack in pipeline.kslacks:
        for method in ("process", "set_k", "flush"):
            tracer.wrap(kslack, method, "core.kslack", observe=tally("core.kslack.released"))
    for method in ("process_batch", "close_stream", "flush"):
        tracer.wrap(
            pipeline.synchronizer,
            method,
            "core.synchronizer",
            observe=tally("core.synchronizer.emitted"),
        )
    tracer.wrap(pipeline.statistics, "observe_arrival", "core.statistics")
    tracer.wrap(pipeline.profiler, "record", "core.profiler")
    tracer.wrap(pipeline.profiler, "snapshot_and_reset", "core.profiler")
    tracer.wrap(pipeline.monitor, "record_produced", "core.result_monitor")
    tracer.wrap(pipeline.policy, "decide", "core.adaptation", keep=True)
    join = pipeline.join
    tracer.wrap(join, "process", "join.mswj")
    # The operator captured ``profiler.record`` as its productivity
    # callback at construction; re-point that one reference at the traced
    # twin (the only non-public attribute the ledger touches — without it
    # the profiler's per-tuple cost would be billed to join.mswj).
    tracer.replace(join, "_callback", pipeline.profiler.record)
    for window in join.windows:
        tracer.wrap(window, "insert", "join.store.insert")
        tracer.wrap(window, "lookup", "join.store.lookup", materialize=True)
        tracer.wrap(window, "tuples", "join.store.lookup", materialize=True)
        tracer.wrap(
            window.store,
            "expire_before",
            "join.store.expire",
            observe=tally("join.store.expired"),
        )


def instrument_partitioned(
    tracer: Tracer, pipeline, routed: List[Tuple[int, Sequence]]
) -> None:
    """Parent-side spans of a ``PartitionedPipeline``; ``routed`` collects
    the ``(shard, batch)`` pairs the router produced."""

    def keep(per_shard: object) -> None:
        if per_shard is not None:
            routed.extend(
                (shard, batch)
                for shard, batch in enumerate(per_shard)  # type: ignore[arg-type]
                if batch
            )

    tracer.wrap(pipeline.router, "route_batch", "parallel.router", observe=keep)
    tracer.wrap(pipeline.executor, "submit_batch", "parallel.executors.submit")
    tracer.wrap(pipeline.executor, "finish", "parallel.executors.finish")
