"""The m-way sliding window join operator (paper Alg. 2).

The operator consumes the (partially) sorted, synchronized stream produced
by the disorder-handling front end and keeps one sliding window per input
stream.  For each received tuple ``e_i``:

* **in order** (``e_i.ts >= onT``): update the high-water mark ``onT``,
  invalidate expired tuples in the windows of all *other* streams
  (``e_j.ts < e_i.ts - W_j``), probe those windows to derive result tuples
  satisfying the join condition (timestamped ``e_i.ts``), then insert
  ``e_i`` into its own window;
* **out of order but still inside its window scope**
  (``e_i.ts > onT - W_i``): skip probing — its results are lost — but
  insert it so it can contribute to *future* results;
* otherwise drop it.

After either path the operator reports the tuple's productivity to an
optional callback (paper Alg. 2 line 11): for in-order tuples the exact
cross-join size ``n×(e)`` (product of the other windows' cardinalities)
and actual result count ``n^on(e)``; for out-of-order tuples no counts
(the Tuple-Productivity Profiler estimates them).

Probing binds the remaining streams one at a time in the order chosen by
a :class:`~repro.join.ordering.ProbeOrderPolicy`, fetching candidates via
equality-hash-index lookups where the condition allows and evaluating each
predicate as soon as all streams it references are bound.  How a trigger
is answered is decided when its :class:`ProbePlan` is compiled, not in the
probe loop: predicates an index lookup already enforces are dropped from
the per-depth checks, and every depth whose binding nothing later reads
is a *factor* — in count-only mode answered by a bucket size instead of
an enumeration (an equi chain is then a product of ``m - 1`` dict
lookups), in collecting mode expanded, once all remaining depths are
factors, as one product over candidate lists each fetched once.
"""

from __future__ import annotations

from itertools import product, repeat
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.tuples import JoinResult, StreamTuple
from .conditions import EquiPredicate, JoinCondition, Predicate
from .ordering import ProbeOrderPolicy, default_policy
from .store import StoreSpec
from .window import SlidingWindow

#: ``callback(tuple, n_cross, n_on, in_order)``; counts are None when the
#: tuple was out of order (no probe happened).
ProductivityCallback = Callable[[StreamTuple, Optional[int], Optional[int], bool], None]


class ProbeStep:
    """One depth of a :class:`ProbePlan`: which stream is bound and how.

    ``lookup`` is ``(attr, source_stream, source_attr)`` — candidates come
    from the index on ``attr`` keyed by the *bound* ``source_stream``
    tuple's ``source_attr`` — or ``None`` for a window scan.  ``closed``
    are the predicates that become fully bound at this depth;
    ``residual`` are those of them the lookups made so far do not already
    imply, i.e. the only ones the in-order probe has to evaluate.
    The equi predicate a lookup was derived from is always among the
    implied ones, which is exact for every key that equals itself; a key
    with ``value != value`` (NaN) is found by the index by identity but
    rejected by that ``==``, so a lookup answers it with no match at all.
    ``factor`` marks a depth with no residual whose binding no later
    depth reads: a count-only probe multiplies by its candidate *count*
    instead of enumerating it.
    """

    __slots__ = ("stream", "lookup", "closed", "residual", "factor")

    def __init__(
        self,
        stream: int,
        lookup: Optional[Tuple[str, int, str]],
        closed: List[Predicate],
        residual: List[Predicate],
    ) -> None:
        self.stream = stream
        self.lookup = lookup
        self.closed = closed
        self.residual = residual
        self.factor = False


class ProbePlan:
    """A cached probe plan: everything about a probe that is fixed once the
    probe order is chosen.

    The per-depth :class:`ProbeStep` list depends only on the trigger
    stream, the order, the (immutable) join condition, and which window
    indexes exist (fixed at operator construction) — not on window
    *content*.  Rebuilding it per tuple is pure allocation churn on the
    hottest path, so the operator caches one plan per ``(trigger stream,
    order)`` and only builds a new one when the
    :class:`~repro.join.ordering.ProbeOrderPolicy` actually changes the
    order (cardinality drift).

    ``steps`` follow the order (the collecting probe emits in that
    sequence).  ``prefix`` is how many of them the collecting probe has
    to walk depth-first: the trailing run of factors after it reads only
    the trigger and those ``prefix`` bindings, so its matches are the
    plain product of its candidate lists, and ``pick`` reorders one
    ``(trigger, *bindings in step order)`` row into stream position.
    ``count_steps`` are the same steps with the factors that
    depend on the trigger alone — a trigger-keyed lookup or an
    unconstrained scan — moved to the front: no other depth reads or
    feeds them, so a count-only probe takes each once per trigger
    instead of once per surviving candidate of an enumerating depth
    before it.  ``is_product`` is True when every depth is a factor: the
    count-only answer is then a product of bucket sizes keyed by the
    trigger alone, the same whatever the order.
    """

    __slots__ = ("order", "steps", "prefix", "pick", "count_steps", "is_product")

    def __init__(
        self, trigger_stream: int, order: Tuple[int, ...], steps: List[ProbeStep]
    ) -> None:
        self.order = order
        self.steps = steps
        prefix = len(steps)
        while prefix and steps[prefix - 1].factor:
            prefix -= 1
        self.prefix = prefix
        layout = (trigger_stream,) + order
        self.pick = itemgetter(*map(layout.index, range(len(layout))))
        self.count_steps = sorted(  # stable: a partition, not a reorder
            steps,
            key=lambda s: not (
                s.factor and (s.lookup is None or s.lookup[1] == trigger_stream)
            ),
        )
        self.is_product = all(step.factor for step in steps)


class JoinStatistics:
    """Running counters the operator maintains (diagnostics + tests)."""

    __slots__ = (
        "tuples_in_order",
        "tuples_out_of_order_kept",
        "tuples_dropped",
        "results_produced",
        "probes",
    )

    def __init__(self) -> None:
        self.tuples_in_order = 0
        self.tuples_out_of_order_kept = 0
        self.tuples_dropped = 0
        self.results_produced = 0
        self.probes = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class MSWJOperator:
    """MJoin-style m-way sliding window join (paper Alg. 2).

    Parameters
    ----------
    window_sizes_ms:
        Per-stream window sizes ``W_i`` in milliseconds.
    condition:
        The join condition; ``JoinCondition([])`` gives the cross join.
    probe_order:
        Optional probe-order policy; defaults to an index-aware order when
        the condition has equality predicates.
    productivity_callback:
        Invoked once per received tuple with its productivity counts.
    collect_results:
        When False, :meth:`process` returns only the number of results
        (all results of one call share the trigger's timestamp) — which
        is all the quality model consumes — and the probe plan counts
        without enumerating wherever it can (see :class:`ProbeStep`).
    probe_out_of_order:
        Alg. 2 (the default, False) skips probing for out-of-order
        tuples, losing their results but keeping the output stream
        ordered.  With True the operator probes on *every* arrival — the
        out-of-order-tolerating join of the paper's footnote 2 / Fig. 1,
        whose output stream is itself out of order (a result derived from
        a late tuple is timestamped with its maximum component timestamp,
        which can lie below previously emitted results).  Pair it with
        :class:`~repro.core.result_sorter.ResultSorter` to restore an
        ordered output.  Requires ``collect_results=True`` (each result's
        timestamp is individually meaningful).
    store:
        A :data:`~repro.join.store.StoreSpec` selecting the window state
        representation — ``None`` / ``"memory"`` (all tuples as
        objects), ``"tiered"``, or a
        :class:`~repro.join.store.TieredStoreConfig` (bounded hot tier +
        columnar cold tier).  Store choice never changes join output.
    """

    def __init__(
        self,
        window_sizes_ms: Sequence[int],
        condition: JoinCondition,
        probe_order: Optional[ProbeOrderPolicy] = None,
        productivity_callback: Optional[ProductivityCallback] = None,
        collect_results: bool = True,
        probe_out_of_order: bool = False,
        store: StoreSpec = None,
    ) -> None:
        if len(window_sizes_ms) < 2:
            raise ValueError("an MSWJ needs at least two input streams")
        bad = condition.referenced_streams() - set(range(len(window_sizes_ms)))
        if bad:
            raise ValueError(f"condition references unknown streams {sorted(bad)}")
        self.num_streams = len(window_sizes_ms)
        self.window_sizes_ms = [int(w) for w in window_sizes_ms]
        self.condition = condition
        self.store_spec = store
        self.windows: List[SlidingWindow] = [
            SlidingWindow(size, condition.indexed_attributes(i), store=store)
            for i, size in enumerate(self.window_sizes_ms)
        ]
        # Hot-path handle: the Alg. 2 loop talks to stores directly
        # (needs_expiry / len) instead of peeking window internals.
        self._stores = [w.store for w in self.windows]
        if probe_out_of_order and not collect_results:
            raise ValueError("probe_out_of_order requires collect_results=True")
        self._policy = probe_order or default_policy(condition)
        self._callback = productivity_callback
        self._collect_results = collect_results
        self._probe_out_of_order = probe_out_of_order
        self.on_t = 0  # the operator's high-water mark ``onT``
        self.stats = JoinStatistics()
        # One plan dict per trigger stream, keyed by the order tuple the
        # policy returned; see ProbePlan.  Orders cycle among a handful of
        # permutations, so the dicts stay tiny.
        self._plans: List[Dict[Tuple[int, ...], ProbePlan]] = [
            {} for _ in range(self.num_streams)
        ]
        # Count-only: a product plan's answer is the same under every
        # order, so once a trigger stream has one, _plan_for stops asking
        # the policy (its call was the top per-tuple cost that remained).
        self._order_free: List[Optional[ProbePlan]] = [None] * self.num_streams

    # ------------------------------------------------------------------
    # Alg. 2 main loop
    # ------------------------------------------------------------------

    def process(self, t: StreamTuple) -> Union[List[JoinResult], int]:
        """Process one received tuple; return its derived results (or count)."""
        i = t.stream
        if not 0 <= i < self.num_streams:
            raise ValueError(f"tuple stream index {i} outside [0, {self.num_streams})")
        ts = t.ts
        stats = self.stats
        collect = self._collect_results
        if ts >= self.on_t:
            self.on_t = ts
            stats.tuples_in_order += 1
            sizes = self.window_sizes_ms
            n_cross = 1
            for j, store in enumerate(self._stores):
                if j == i:
                    continue
                bound = ts - sizes[j]
                if store.needs_expiry(bound):
                    store.expire_before(bound)
                n_cross *= len(store)
            if n_cross:
                results = self._probe(t)
                n_on = len(results) if collect else results
                stats.results_produced += n_on
            else:  # some other window is empty: nothing to derive
                results = [] if collect else 0
                n_on = 0
            stats.probes += 1
            self.windows[i].insert(t)
            if self._callback is not None:
                self._callback(t, n_cross, n_on, True)
            return results

        results = [] if collect else 0
        if ts > self.on_t - self.window_sizes_ms[i]:
            if self._probe_out_of_order:
                results = self._probe_late(t)
            self.windows[i].insert(t)
            stats.tuples_out_of_order_kept += 1
        else:
            stats.tuples_dropped += 1
        if self._callback is not None:
            self._callback(t, None, None, False)
        return results

    def process_batch(
        self, batch: Sequence[StreamTuple]
    ) -> Union[List[JoinResult], int]:
        """Process a burst of synchronized tuples in sequence: the
        concatenation (or sum) of the per-tuple :meth:`process` outputs."""
        process = self.process
        if self._collect_results:
            outputs: List[JoinResult] = []
            for t in batch:
                outputs.extend(process(t))
            return outputs
        return sum(map(process, batch))

    # ------------------------------------------------------------------
    # probe plans
    # ------------------------------------------------------------------

    def _plan_for(self, trigger_stream: int) -> ProbePlan:
        """The probe plan for the policy's current order (cached).

        The policy is consulted every trigger (orders shift with window
        cardinalities), but the plan is only compiled when the returned
        order is one the cache has not seen for this trigger stream — and
        once a count-only operator holds a product plan, whose answer no
        order can change, the policy is not asked again.
        """
        plan = self._order_free[trigger_stream]
        if plan is not None:
            return plan
        order = tuple(
            self._policy.order(trigger_stream, self.windows, self.condition)
        )
        plans = self._plans[trigger_stream]
        plan = plans.get(order)
        if plan is None:
            plan = plans[order] = self._compile(trigger_stream, order)
        if plan.is_product and not self._collect_results:
            self._order_free[trigger_stream] = plan
        return plan

    def _compile(self, trigger_stream: int, order: Tuple[int, ...]) -> ProbePlan:
        """Classify every depth of ``order`` (see :class:`ProbeStep`).

        An index lookup on ``attr`` keyed by a bound value *pins*
        ``(stream, attr)`` to wherever that value came from; following
        the pins, a lookup keyed by a candidate that was itself fetched
        by the trigger's value is keyed by the trigger.  An equi
        predicate whose two sides are pinned to the same origin is
        implied by the lookups and leaves the residual list.
        """
        condition = self.condition
        pinned: Dict[Tuple[int, str], Tuple[int, str]] = {}

        def origin(stream: int, attr: str) -> Tuple[int, str]:
            return pinned.get((stream, attr), (stream, attr))

        steps: List[ProbeStep] = []
        bound_set = frozenset({trigger_stream})
        for j in order:
            closed = condition.predicates_closed_by(j, bound_set)
            lookups = [
                (attr,) + origin(other, other_attr)
                for attr, other, other_attr in condition.equi_lookups(j, bound_set)
                if self.windows[j].has_index(attr)
            ]
            # A trigger-keyed lookup leaves the depth independent of the
            # candidates bound before it; any lookup yields the same
            # surviving candidates in the same (slot) order.
            lookup = next(
                (lk for lk in lookups if lk[1] == trigger_stream),
                lookups[0] if lookups else None,
            )
            residual = closed
            if lookup is not None:
                pinned[(j, lookup[0])] = lookup[1:]
                residual = [
                    p
                    for p in closed
                    if not (
                        isinstance(p, EquiPredicate)
                        and origin(p.left_stream, p.left_attr)
                        == origin(p.right_stream, p.right_attr)
                    )
                ]
            steps.append(ProbeStep(j, lookup, closed, residual))
            bound_set = bound_set | {j}
        read_later: set = set()
        for step in reversed(steps):
            step.factor = not step.residual and step.stream not in read_later
            if step.lookup is not None:
                read_later.add(step.lookup[1])
            for predicate in step.residual:
                read_later |= predicate.streams
        return ProbePlan(trigger_stream, order, steps)

    # ------------------------------------------------------------------
    # in-order probing
    # ------------------------------------------------------------------

    def _probe(self, trigger: StreamTuple) -> Union[List[JoinResult], int]:
        """Answer an in-order trigger whose other windows are all non-empty.

        On this path every other window has just been expired to
        ``[e.ts - W_j, e.ts]`` and Alg. 2 checks no pairwise window
        bound, so the result set is every combination of live tuples
        satisfying the condition.
        """
        plan = self._plan_for(trigger.stream)
        bound = {trigger.stream: trigger}
        if self._collect_results:
            collected: List[JoinResult] = []
            self._collect_from(0, plan, bound, trigger.ts, collected)
            return collected
        return self._count_from(0, plan.count_steps, bound)

    def _count_from(
        self, depth: int, steps: Sequence[ProbeStep], bound: Dict[int, StreamTuple]
    ) -> int:
        """How many combinations extend ``bound`` over ``steps[depth:]``.

        ``steps`` are a plan's ``count_steps``.  Factor depths contribute
        a bucket size (no tuple touched, early exit on zero); the first
        non-factor depth filters its candidates through the residuals'
        :meth:`~repro.join.conditions.Predicate.select` chain and
        recurses on each survivor — except at the last depth, which
        counts the survivors in one C-level pass.
        """
        windows = self.windows
        last = len(steps) - 1
        product = 1
        while True:
            step = steps[depth]
            j = step.stream
            lookup = step.lookup
            if lookup is not None:
                attr, source, source_attr = lookup
                value = bound[source].get(source_attr)
                if value != value:
                    return 0  # NaN: the implied ``==`` rejects every candidate
            if not step.factor:
                break
            window = windows[j]
            product *= len(window) if lookup is None else window.count(attr, value)
            if not product or depth == last:
                return product
            depth += 1
        survivors = (
            windows[j].tuples() if lookup is None else windows[j].lookup(attr, value)
        )
        for predicate in step.residual:
            survivors = predicate.select(j, bound, survivors)
        if depth == last:
            return product * len(list(survivors))
        count = 0
        for candidate in survivors:
            bound[j] = candidate
            count += self._count_from(depth + 1, steps, bound)
        bound.pop(j, None)
        return product * count

    def _candidates(
        self, step: ProbeStep, bound: Dict[int, StreamTuple]
    ) -> Iterable[StreamTuple]:
        """What ``step`` binds under ``bound``, in slot order."""
        window = self.windows[step.stream]
        if step.lookup is None:
            return window.tuples()
        attr, source, source_attr = step.lookup
        value = bound[source].get(source_attr)
        if value != value:
            return ()  # NaN: the implied ``==`` rejects every candidate
        return window.lookup(attr, value)

    def _collect_from(
        self,
        depth: int,
        plan: ProbePlan,
        bound: Dict[int, StreamTuple],
        result_ts: int,
        collected: List[JoinResult],
    ) -> None:
        """Bind ``plan.steps[depth:]``, appending every match in DFS order.

        Only the enumerating prefix is walked depth-first, each depth
        over the survivors of its residuals' ``select`` chain.  Below it
        every step is a factor — no residual, read by nothing later —
        so the matches under one prefix binding are the product of the
        remaining candidate lists, each fetched once, last step
        varying fastest: exactly what the recursion would emit.  A plan
        without factors ends in the empty product, one result.
        """
        if depth == plan.prefix:
            # ``bound`` holds the trigger, then the prefix bindings in
            # step order (each level pops its own): the row layout
            # ``plan.pick`` expects, as one-candidate pools.
            suffix = (self._candidates(step, bound) for step in plan.steps[depth:])
            rows = product(*zip(bound.values()), *suffix)
            collected.extend(map(JoinResult, repeat(result_ts), map(plan.pick, rows)))
            return
        step = plan.steps[depth]
        j = step.stream
        survivors = self._candidates(step, bound)
        for predicate in step.residual:
            survivors = predicate.select(j, bound, survivors)
        for candidate in survivors:
            bound[j] = candidate
            self._collect_from(depth + 1, plan, bound, result_ts, collected)
        bound.pop(j, None)

    # ------------------------------------------------------------------
    # out-of-order probing (footnote-2 mode)
    # ------------------------------------------------------------------

    def _probe_late(self, trigger: StreamTuple) -> List[JoinResult]:
        """Probe for a late trigger; every pairwise window bound is checked.

        Unlike the in-order path, window content can hold tuples with
        timestamps *above* the trigger's, and two candidates that each
        match the trigger's range may violate the window constraint
        between themselves — so the DFS validates each new binding
        against all already-bound tuples (and evaluates every closed
        predicate, trusting no lookup).  Result timestamps are the
        maximum component timestamp (which may exceed the trigger's).
        """
        plan = self._plan_for(trigger.stream)
        bound: Dict[int, StreamTuple] = {trigger.stream: trigger}
        results: List[JoinResult] = []
        self._probe_late_depth(0, plan.steps, bound, results)
        self.stats.results_produced += len(results)
        self.stats.probes += 1
        return results

    def _window_compatible(self, a: StreamTuple, b: StreamTuple) -> bool:
        return (
            b.ts >= a.ts - self.window_sizes_ms[b.stream]
            and a.ts >= b.ts - self.window_sizes_ms[a.stream]
        )

    def _probe_late_depth(
        self,
        depth: int,
        steps: Sequence[ProbeStep],
        bound: Dict[int, StreamTuple],
        results: List[JoinResult],
    ) -> None:
        if depth == len(steps):
            components = tuple(bound[s] for s in range(self.num_streams))
            results.append(JoinResult(max(c.ts for c in components), components))
            return
        step = steps[depth]
        j = step.stream
        if step.lookup is not None:
            attr, source, source_attr = step.lookup
            candidates = self.windows[j].lookup(attr, bound[source].get(source_attr))
        else:
            candidates = self.windows[j].tuples()
        closed = step.closed
        for candidate in candidates:
            if not all(
                self._window_compatible(candidate, partner)
                for partner in bound.values()
            ):
                continue
            bound[j] = candidate
            if all(predicate.evaluate(bound) for predicate in closed):
                self._probe_late_depth(depth + 1, steps, bound, results)
        bound.pop(j, None)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def window_cardinalities(self) -> List[int]:
        return [w.cardinality for w in self.windows]

    def reset(self) -> None:
        """Clear all windows and counters (reuse across experiment runs)."""
        for window in self.windows:
            window.clear()
        self.on_t = 0
        self.stats = JoinStatistics()
