"""Compiled probe plans: classification, and count-only ≡ collecting ≡ brute force.

A :class:`~repro.join.mswj.ProbePlan` decides *how* a trigger is
answered — which predicates an index lookup already implies, and which
depths a count-only probe can answer by a bucket size.  None of that may
change a single result, so the differential bank below replays random
streams through three operators (collecting, count-only, and a
collecting one whose probe-order policy records what it was shown) and
requires, per trigger, the same count, the same productivity-callback
arguments, the same ``JoinStatistics`` and — against a nested-loop
enumeration of the recorded window content under the full condition —
the same result *sequence*.  A second property pins the collecting
probe's own shape: it walks depth-first only over the enumerating prefix
of a plan and expands the factor suffix as one product, which must emit
the sequence of the plain recursion kept here and fetch each factor
depth's candidates once per expansion.

Join keys are drawn from the values where an index lookup and ``==``
could disagree: ``None`` and a missing attribute (one bucket), ``1`` /
``1.0`` / ``True`` (one bucket), ``"1"`` (another), the shared
``math.nan`` object (found by identity, rejected by ``==``) and fresh
``float("nan")`` objects.
"""

import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BandPredicate,
    EquiPredicate,
    InMemoryStore,
    JoinCondition,
    MSWJOperator,
    Predicate,
    StreamTuple,
    ThetaPredicate,
    TieredStore,
    TieredStoreConfig,
    equi_join_chain,
    star_equi_join,
)
from repro.core.blocks import freeze_segment
from repro.join.ordering import IndexAwareOrder, ProbeOrderPolicy

SMALL_TIERED = TieredStoreConfig(hot_budget=4, bucket_span_ms=20, cache_tuples=8)

MISSING = "<missing>"
FRESH_NAN = "<fresh nan>"
KEY_POOL = [None, MISSING, 1, 1.0, True, "1", math.nan, FRESH_NAN, 2]


def _close(a, b, c):
    return abs((a.get("x") or 0) - (c.get("x") or 0)) <= 1 + (b.get("x") or 0)


def _near(a, b):
    return abs((a.get("x") or 0) - (b.get("x") or 0)) <= 1


def _below(a, b):
    # Asymmetric: which argument the candidate is changes the answer.
    return (a.get("x") or 0) < (b.get("x") or 0) + 2


class Apart(Predicate):
    """``S0.x != S1.x`` defined by ``evaluate`` alone, so the probe filters
    through :meth:`Predicate.select`'s fallback; appends every binding it
    is shown to ``log``."""

    streams = frozenset((0, 1))

    def __init__(self, log=None):
        self.log = log

    def evaluate(self, bound):
        if self.log is not None:
            self.log.append(("apart", bound[0].seq, bound[1].seq))
        return (bound[0].get("x") or 0) != (bound[1].get("x") or 0)


#: name -> (number of streams, condition).  Triggers arrive on every
#: stream, so the star is probed from its centre and from each satellite.
CONDITIONS = {
    "chain2": (2, equi_join_chain("a", 2)),
    "chain3": (3, equi_join_chain("a", 3)),
    "chain4": (4, equi_join_chain("a", 4)),
    "star4": (4, star_equi_join(0, {1: "a", 2: "b", 3: "c"})),
    # Two equivalence classes in a row: from either end the far stream
    # is keyed by an enumerated candidate (prefix + factor suffix); from
    # the middle both are keyed by the trigger (pure product).
    "chain-ab": (
        3,
        JoinCondition([EquiPredicate(0, "a", 1, "a"), EquiPredicate(1, "b", 2, "b")]),
    ),
    # Three equivalence classes: the second equi predicate that closes
    # at the last depth is not implied by the lookup and must survive.
    "triangle": (
        3,
        JoinCondition(
            [
                EquiPredicate(0, "a", 1, "a"),
                EquiPredicate(1, "b", 2, "b"),
                EquiPredicate(0, "c", 2, "c"),
            ]
        ),
    ),
    # One equivalence class: both predicates closing last are implied.
    "cycle": (
        3,
        JoinCondition(
            [
                EquiPredicate(0, "a", 1, "a"),
                EquiPredicate(1, "a", 2, "a"),
                EquiPredicate(0, "a", 2, "a"),
            ]
        ),
    ),
    "equi+band": (
        3,
        JoinCondition(
            equi_join_chain("a", 3).predicates + [BandPredicate(0, "x", 1, "x", 1)]
        ),
    ),
    "equi+theta": (
        3,
        JoinCondition(
            equi_join_chain("a", 3).predicates + [ThetaPredicate((0, 1, 2), _close)]
        ),
    ),
    "equi+free": (3, JoinCondition([EquiPredicate(0, "a", 2, "a")])),
    "cross": (3, JoinCondition()),
    "theta": (2, JoinCondition([ThetaPredicate((0, 1), _near)])),
    # The candidate is the first argument from an S0 trigger and the
    # second from an S1 trigger.
    "theta-reversed": (2, JoinCondition([ThetaPredicate((1, 0), _below)])),
    # Two residuals closing at the one (last) depth: the theta runs only
    # on what the band let through.
    "band+theta": (
        2,
        JoinCondition([BandPredicate(0, "x", 1, "x", 1), ThetaPredicate((0, 1), _below)]),
    ),
    # A predicate with only ``evaluate``, closing in the middle of the
    # order from an S0 trigger (S1 before S2) and last from an S2 one.
    "custom": (3, JoinCondition(equi_join_chain("a", 3).predicates + [Apart()])),
}


def recording(condition, log):
    """``condition`` with every theta callable and :class:`Apart` logging
    the ``seq`` of each argument it is called with, in call order."""

    def logged(name, fn):
        def call(*args):
            log.append((name,) + tuple(t.seq for t in args))
            return fn(*args)

        return call

    predicates = []
    for predicate in condition.predicates:
        if isinstance(predicate, ThetaPredicate):
            predicate = ThetaPredicate(
                predicate._ordered_streams, logged(predicate.name, predicate._fn)
            )
        elif isinstance(predicate, Apart):
            predicate = Apart(log)
        predicates.append(predicate)
    return JoinCondition(predicates)


class RecordingOrder(ProbeOrderPolicy):
    """The default order, remembering the window content it was shown —
    which at that moment is exactly what the probe will see."""

    def __init__(self):
        self._inner = IndexAwareOrder()
        self.seen = None

    def order(self, trigger_stream, windows, condition):
        order = self._inner.order(trigger_stream, windows, condition)
        self.seen = (tuple(order), [list(w.tuples()) for w in windows])
        return order


def nested_loop(trigger, order, content, condition):
    """Every combination in probe order, checked against the whole
    condition: the emission sequence of a DFS that trusts no index."""
    expected = []
    for combo in itertools.product(*(content[j] for j in order)):
        bound = {trigger.stream: trigger}
        bound.update(zip(order, combo))
        if condition.evaluate(bound):
            expected.append(tuple(bound[s] for s in range(len(content))))
    return expected


def fetch(op, step, bound):
    """The candidates of ``step`` under ``bound`` as a list (``None`` for a
    NaN key, which the operator answers without the store)."""
    store = op.windows[step.stream].store  # not the counted façade
    if step.lookup is None:
        return list(store.tuples())
    attr, source, source_attr = step.lookup
    value = bound[source].get(source_attr)
    return None if value != value else list(store.lookup(attr, value))


def recursive_count(op, trigger, steps):
    """The count-only probe as a per-candidate loop over a plan's
    ``count_steps``: a factor depth multiplies by its candidate count
    (stopping at zero), any other depth evaluates each residual in turn
    on each candidate and descends into those that pass all of them."""

    def count(depth, bound):
        if depth == len(steps):
            return 1
        step = steps[depth]
        found = fetch(op, step, bound)
        if not found:
            return 0
        if step.factor:
            return len(found) * count(depth + 1, bound)
        total = 0
        for candidate in found:
            bound[step.stream] = candidate
            if all(p.evaluate(bound) for p in step.residual):
                total += count(depth + 1, bound)
        bound.pop(step.stream, None)
        return total

    return count(0, {trigger.stream: trigger})


def recursive_probe(op, trigger, plan):
    """The collecting probe as plain recursion, one level per step,
    candidates fetched anew under every surviving binding.

    Returns the emitted component rows and, per stream, how often the
    operator may fetch that window's candidates: once per binding that
    reaches an enumerating depth, and once per *expansion* — a binding
    of the whole enumerating prefix — for each factor depth below it
    (never for a NaN key, which is answered without the store).
    """
    emitted, fetches = [], Counter()

    def bind(depth, bound):
        if depth == plan.prefix:
            for step in plan.steps[depth:]:
                fetches[step.stream] += fetch(op, step, bound) is not None
        if depth == len(plan.steps):
            emitted.append(tuple(bound[s] for s in range(op.num_streams)))
            return
        step = plan.steps[depth]
        found = fetch(op, step, bound)
        if depth < plan.prefix:
            fetches[step.stream] += found is not None
        for candidate in found or ():
            bound[step.stream] = candidate
            if all(p.evaluate(bound) for p in step.residual):
                bind(depth + 1, bound)
        bound.pop(step.stream, None)

    bind(0, {trigger.stream: trigger})
    return emitted, +fetches


#: The conditions with user code to record: a theta callable or Apart.
CALLING = sorted(
    name
    for name, (_, condition) in CONDITIONS.items()
    if any(isinstance(p, (ThetaPredicate, Apart)) for p in condition.predicates)
)


@st.composite
def streams(draw, names=tuple(sorted(CONDITIONS))):
    name = draw(st.sampled_from(names))
    num_streams, _ = CONDITIONS[name]
    windows = [draw(st.sampled_from([15, 40, 90])) for _ in range(num_streams)]
    # A few keys per example, so that combinations do match.
    palette = draw(st.lists(st.sampled_from(KEY_POOL), min_size=1, max_size=3))
    rows = []
    ts = 100
    for seq in range(draw(st.integers(min_value=2, max_value=28))):
        ts = max(0, ts + draw(st.integers(min_value=-25, max_value=30)))
        values = {}
        for attr in ("a", "b", "c"):
            key = draw(st.sampled_from(palette))
            if key is not MISSING:
                values[attr] = key
        x = draw(st.sampled_from([MISSING, 0, 1, 2, 5]))
        if x is not MISSING:
            values["x"] = x
        rows.append((ts, values, draw(st.integers(0, num_streams - 1)), seq))
    tiered = draw(st.booleans())
    return name, windows, rows, tiered


def _tuples(rows):
    # One FRESH_NAN cell becomes one new NaN object, shared by the three
    # operators' copies of the tuple (as one input stream would).
    return [
        StreamTuple(
            ts,
            {k: float("nan") if v is FRESH_NAN else v for k, v in values.items()},
            stream=stream,
            seq=seq,
        )
        for ts, values, stream, seq in rows
    ]


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(case=streams())
    def test_count_only_collecting_and_nested_loop_agree(self, case):
        name, windows, rows, tiered = case
        _, condition = CONDITIONS[name]
        store = SMALL_TIERED if tiered else None
        calls = {"count": [], "collect": []}

        def callback(kind):
            return lambda t, n_cross, n_on, in_order: calls[kind].append(
                (t.seq, n_cross, n_on, in_order)
            )

        counting = MSWJOperator(
            windows,
            condition,
            collect_results=False,
            store=store,
            productivity_callback=callback("count"),
        )
        collecting = MSWJOperator(
            windows, condition, store=store, productivity_callback=callback("collect")
        )
        recorder = RecordingOrder()
        recorded = MSWJOperator(windows, condition, probe_order=recorder)
        for t in _tuples(rows):
            recorder.seen = None
            reference = recorded.process(t)
            results = collecting.process(t)
            assert counting.process(t) == len(results)
            emitted = [r.components for r in results]
            assert emitted == [r.components for r in reference]
            assert all(r.ts == t.ts for r in results)
            if recorder.seen is not None:
                order, content = recorder.seen
                assert emitted == nested_loop(t, order, content, condition)
            else:  # out of order, dropped, or another window was empty
                assert emitted == []
        assert counting.stats.as_dict() == collecting.stats.as_dict()
        assert counting.stats.as_dict() == recorded.stats.as_dict()
        assert calls["count"] == calls["collect"]

    @settings(max_examples=150, deadline=None)
    @given(case=streams())
    def test_product_expansion_emits_the_recursive_sequence(self, case):
        name, windows, rows, tiered = case
        _, condition = CONDITIONS[name]
        op = MSWJOperator(
            windows, condition, store=SMALL_TIERED if tiered else None
        )
        fetched = Counter()

        def counted(fetch, stream):
            def wrapper(*args):
                fetched[stream] += 1
                return fetch(*args)

            return wrapper

        for stream, window in enumerate(op.windows):
            window.lookup = counted(window.lookup, stream)
            window.tuples = counted(window.tuples, stream)
        probe = op._probe

        def checked_probe(trigger):
            plan = op._plan_for(trigger.stream)
            assert all(step.factor for step in plan.steps[plan.prefix :])
            assert not (plan.prefix and plan.steps[plan.prefix - 1].factor)
            expected, expected_fetches = recursive_probe(op, trigger, plan)
            fetched.clear()
            results = probe(trigger)
            assert [r.components for r in results] == expected
            assert +fetched == expected_fetches
            if plan.is_product:  # one fetch per window, whatever matches
                assert all(n == 1 for n in fetched.values())
            return results

        op._probe = checked_probe
        for t in _tuples(rows):
            op.process(t)

    @settings(max_examples=150, deadline=None)
    @given(case=streams(CALLING))
    def test_predicates_see_the_per_candidate_call_sequence(self, case):
        # Filtering a candidate list in one pass must call user code
        # exactly as a loop evaluating one residual after another on one
        # candidate at a time did: same arguments, same order, same
        # short-circuits — in both modes.
        name, windows, rows, tiered = case
        log = []
        condition = recording(CONDITIONS[name][1], log)
        store = SMALL_TIERED if tiered else None
        for collect in (True, False):
            op = MSWJOperator(windows, condition, store=store, collect_results=collect)
            probe = op._probe

            def checked_probe(trigger, op=op, probe=probe, collect=collect):
                plan = op._plan_for(trigger.stream)
                if collect:
                    expected = len(recursive_probe(op, trigger, plan)[0])
                else:
                    expected = recursive_count(op, trigger, plan.count_steps)
                expected_calls = log[:]
                log.clear()
                results = probe(trigger)
                assert (len(results) if collect else results) == expected
                assert log == expected_calls
                log.clear()
                return results

            op._probe = checked_probe
            for t in _tuples(rows):
                op.process(t)


def _plan(condition, num_streams, trigger, order):
    op = MSWJOperator([100] * num_streams, condition)
    return op._compile(trigger, tuple(order))


class TestClassification:
    @pytest.mark.parametrize("trigger,order", [(0, (1, 2)), (1, (0, 2)), (2, (1, 0))])
    def test_chain_is_a_product_plan_from_every_trigger(self, trigger, order):
        plan = _plan(equi_join_chain("a", 3), 3, trigger, order)
        assert plan.is_product
        for step in plan.steps:
            # Keyed by the trigger — directly, or through the earlier
            # lookup on the same equivalence class.
            assert step.lookup == ("a", trigger, "a")
            assert step.residual == [] and step.factor
            assert len(step.closed) == 1

    def test_star_from_centre_is_a_product_plan(self):
        plan = _plan(CONDITIONS["star4"][1], 4, 0, (1, 2, 3))
        assert plan.is_product
        assert [s.lookup for s in plan.steps] == [
            ("a", 0, "a"),
            ("b", 0, "b"),
            ("c", 0, "c"),
        ]

    def test_star_from_satellite_enumerates_the_centre_only(self):
        plan = _plan(CONDITIONS["star4"][1], 4, 1, (0, 2, 3))
        assert not plan.is_product
        centre, middle, leaf = plan.steps
        assert centre.lookup == ("a", 1, "a") and not centre.factor
        # Candidate-keyed (by the centre), no residual, read by nothing
        # later: answered by a count per centre candidate.
        assert middle.lookup == ("b", 0, "b") and middle.factor
        assert leaf.lookup == ("c", 0, "c") and leaf.factor
        assert middle.residual == [] and leaf.residual == []

    @pytest.mark.parametrize(
        "name,trigger,order,prefix",
        [
            ("chain3", 0, (1, 2), 0),  # from an end: keyed through the pins
            ("chain-ab", 1, (0, 2), 0),  # from the middle
            ("chain-ab", 0, (1, 2), 1),  # S2 keyed by the S1 candidate
            ("star4", 0, (1, 2, 3), 0),
            ("star4", 1, (0, 2, 3), 1),  # the centre, then two factors
            ("cross", 2, (0, 1), 0),
            ("equi+band", 0, (1, 2), 1),  # band residual, trigger-keyed factor
            ("equi+band", 2, (1, 0), 2),  # the band closes last
            ("equi+theta", 0, (1, 2), 2),
            ("triangle", 0, (1, 2), 2),
        ],
    )
    def test_collecting_prefix_ends_where_the_trailing_factors_begin(
        self, name, trigger, order, prefix
    ):
        num_streams, condition = CONDITIONS[name]
        plan = _plan(condition, num_streams, trigger, order)
        assert plan.prefix == prefix
        assert all(step.factor for step in plan.steps[prefix:])
        # ``pick`` turns a (trigger, *bindings in step order) row into
        # stream position.
        row = (trigger, *order)
        assert plan.pick(row) == tuple(range(num_streams))

    def test_band_leaves_a_residual_and_no_collapse(self):
        band = BandPredicate(0, "x", 1, "x", 1)
        condition = JoinCondition([EquiPredicate(0, "a", 1, "a"), band])
        (step,) = _plan(condition, 2, 0, (1,)).steps
        assert step.lookup == ("a", 0, "a")
        assert step.residual == [band] and not step.factor

    def test_second_class_closing_last_survives_as_residual(self):
        condition = CONDITIONS["triangle"][1]
        first, last = _plan(condition, 3, 0, (1, 2)).steps
        assert first.residual == [] and not first.factor  # read by S1.b == S2.b
        # Trigger-keyed lookup preferred over the candidate-keyed one.
        assert last.lookup == ("c", 0, "c")
        assert last.residual == [condition.predicates[1]] and not last.factor

    def test_one_class_implies_every_predicate_closing_last(self):
        plan = _plan(CONDITIONS["cycle"][1], 3, 0, (1, 2))
        assert plan.is_product
        assert len(plan.steps[1].closed) == 2 and plan.steps[1].residual == []

    def test_theta_over_all_streams_blocks_every_factor(self):
        plan = _plan(CONDITIONS["equi+theta"][1], 3, 0, (1, 2))
        assert [s.factor for s in plan.steps] == [False, False]
        assert [len(s.residual) for s in plan.steps] == [0, 1]

    def test_unconstrained_streams_are_size_factors(self):
        assert _plan(JoinCondition(), 3, 0, (1, 2)).is_product
        free, keyed = _plan(CONDITIONS["equi+free"][1], 3, 0, (1, 2)).steps
        assert free.lookup is None and free.factor
        assert keyed.lookup == ("a", 0, "a") and keyed.factor

    def test_trigger_keyed_factor_is_counted_before_the_enumeration(self):
        # S1 carries the band residual and must be enumerated; S2 is a
        # factor keyed by the trigger, so a count-only probe takes its
        # bucket size once, not once per surviving S1 candidate.
        plan = _plan(CONDITIONS["equi+band"][1], 3, 0, (1, 2))
        banded, keyed = plan.steps
        assert not banded.factor and keyed.factor
        assert keyed.lookup == ("a", 0, "a")
        assert plan.count_steps == [keyed, banded]
        # A factor keyed by an enumerated candidate stays where it is.
        plan = _plan(CONDITIONS["star4"][1], 4, 1, (0, 2, 3))
        assert plan.count_steps == plan.steps

        calls = []
        op = MSWJOperator(
            [100] * 3, CONDITIONS["equi+band"][1], collect_results=False
        )
        for seq in range(4):
            op.process(StreamTuple(seq, {"a": 1, "x": 0}, stream=1, seq=seq))
        op.process(StreamTuple(5, {"a": 1}, stream=2, seq=0))
        window = op.windows[2]
        count = window.store.count
        window.store.count = lambda *args: calls.append(args) or count(*args)
        assert op.process(StreamTuple(6, {"a": 1, "x": 1}, stream=0, seq=0)) == 4
        assert calls == [("a", 1)]

    def test_count_only_product_plan_stops_consulting_the_policy(self):
        class Counting(IndexAwareOrder):
            calls = 0

            def order(self, *args):
                self.calls += 1
                return super().order(*args)

        for collect, expected in ((False, 2), (True, 5)):
            policy = Counting()
            op = MSWJOperator(
                [100, 100],
                equi_join_chain("a", 2),
                probe_order=policy,
                collect_results=collect,
            )
            for seq in range(6):
                op.process(StreamTuple(seq, {"a": 1}, stream=seq % 2, seq=seq))
            # The first trigger meets an empty window and is not probed.
            assert policy.calls == expected

    @pytest.mark.parametrize("collect", [False, True])
    def test_nan_key_found_by_the_index_still_matches_nothing(self, collect):
        stats = []
        for condition in (equi_join_chain("a", 2), CONDITIONS["equi+band"][1]):
            n = 2 if len(condition.predicates) == 1 else 3
            op = MSWJOperator([100] * n, condition, collect_results=collect)
            for stream in range(n - 1):
                op.process(StreamTuple(1, {"a": math.nan, "x": 0}, stream=stream, seq=0))
            assert op.windows[0].count("a", math.nan) == 1  # the index finds it
            trigger = StreamTuple(2, {"a": math.nan, "x": 0}, stream=n - 1, seq=0)
            assert op.process(trigger) == ([] if collect else 0)
            stats.append(op.stats.as_dict())
        assert [s["results_produced"] for s in stats] == [0, 0]
        assert [s["probes"] for s in stats] == [2, 3]


def _filled(store, rows):
    for seq, (ts, value) in enumerate(rows):
        values = {} if value is MISSING else {"v": value}
        store.insert(StreamTuple(ts, values, stream=0, seq=seq))
    return store


class TestStoreCount:
    VALUES = [None, MISSING, 1, 1.0, True, "1", math.nan, 2, 3]

    def _assert_counts(self, store):
        for value in [None, 1, "1", math.nan, float("nan"), 2, 3, "absent"]:
            assert store.count("v", value) == len(list(store.lookup("v", value)))

    def _rows(self, start, stop, step=3):
        return [
            (ts, self.VALUES[i % len(self.VALUES)])
            for i, ts in enumerate(range(start, stop, step))
        ]

    @pytest.mark.parametrize("make", [InMemoryStore, lambda a: TieredStore(a, SMALL_TIERED)])
    def test_count_is_the_lookup_length_through_the_store_lifecycle(self, make):
        store = _filled(make(("v",)), self._rows(0, 200))
        self._assert_counts(store)  # tiered: most of it frozen by now
        assert store.expire_before(70) > 0  # drops segments, thaws a straddler
        self._assert_counts(store)
        batch = [
            StreamTuple(ts, {"v": value}, stream=0, seq=100 + i)
            for i, (ts, value) in enumerate([(210, 1.0), (211, None), (212, 2)])
        ]
        store.adopt_frozen(freeze_segment(batch, range(3), ("v",)))
        self._assert_counts(store)
        assert store.extract_state(lambda t: "gone" if t.get("v") == 2 else None)
        self._assert_counts(store)
        with pytest.raises(KeyError):
            store.count("unindexed", 1)

    def _lifecycle(self, store):
        """The lifecycle above, pausing (yielding) after each step."""
        _filled(store, self._rows(0, 200))
        yield "filled"
        assert store.expire_before(70) > 0
        yield "expired"
        batch = [
            StreamTuple(ts, {"v": value}, stream=0, seq=100 + i)
            for i, (ts, value) in enumerate([(210, 1.0), (211, None), (212, 2)])
        ]
        store.adopt_frozen(freeze_segment(batch, range(3), ("v",)))
        yield "adopted"
        assert store.extract_state(lambda t: "gone" if t.get("v") == 2 else None)
        yield "extracted"

    def test_count_decodes_nothing_through_the_store_lifecycle(self):
        store = TieredStore(("v",), SMALL_TIERED)
        probes = self.VALUES + [float("nan"), "absent"]
        for point in self._lifecycle(store):
            assert store.metrics().cold_tuples > 0, point
            before = store.metrics()
            counts = [store.count("v", value) for value in probes]  # no lookup yet
            after = store.metrics()
            assert (after.decode_hits, after.decode_misses, after.resident_objects) == (
                before.decode_hits, before.decode_misses, before.resident_objects
            ), point
            assert counts == [len(list(store.lookup("v", v))) for v in probes], point

    @pytest.mark.parametrize(
        "empty",
        [
            lambda store: store.expire_before(max(t.ts for t in store.tuples()) + 1),
            lambda store: store.clear(),
            lambda store: store.extract_state(lambda t: "all"),
        ],
        ids=["expire-all", "clear", "extract-all"],
    )
    def test_emptied_store_counts_zero_and_keeps_no_cold_sizes(self, empty):
        store = TieredStore(("v",), SMALL_TIERED)
        for _ in self._lifecycle(store):
            pass
        assert store._cold_sizes["v"]  # non-vacuous: cold keys were held
        empty(store)
        for value in self.VALUES + [float("nan")]:
            assert store.count("v", value) == 0
        assert store._cold_sizes == {"v": {}}

    def test_equal_keys_count_as_one_bucket_across_a_straddling_thaw(self):
        rows = [(ts, (1, 1.0, True)[ts % 3]) for ts in range(46)]
        tiered = _filled(TieredStore(("v",), SMALL_TIERED), rows)
        memory = _filled(InMemoryStore(("v",)), rows)

        def assert_one_bucket(expected, cold):
            assert tiered.metrics().cold_tuples == cold
            for key in (1, 1.0, True):
                assert tiered.count("v", key) == memory.count("v", key) == expected
                assert len(list(tiered.lookup("v", key))) == expected

        assert_one_bucket(46, cold=40)  # buckets [0, 20) and [20, 40) frozen
        tiered.expire_before(10)  # [0, 20) straddles: thaws, half of it expires
        memory.expire_before(10)
        assert tiered.metrics().thaws == 1
        assert_one_bucket(36, cold=20)
