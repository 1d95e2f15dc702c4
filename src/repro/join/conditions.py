"""Join condition algebra for m-way stream joins with arbitrary predicates.

The paper's framework is generic: "supports MSWJs with arbitrary join
conditions" (Sec. I) — equality predicates (Q×3, Q×4), user-defined theta
predicates like the soccer distance function (Q×2), and conjunctions of
both.  This module models a join condition as a conjunction of predicates,
each declaring which streams it references so the MSWJ probe can evaluate
a predicate as soon as all referenced streams are bound and can use hash
indexes for equality predicates.

Classes
-------
* :class:`EquiPredicate` — ``S_i.attr_a == S_j.attr_b``; index-assisted.
* :class:`BandPredicate` — ``|S_i.attr_a - S_j.attr_b| <= band``; a common
  stream-join shape (value proximity), evaluated by scan.
* :class:`ThetaPredicate` — arbitrary boolean function over the bound
  tuples of the streams it references (e.g. the soccer ``dist()`` UDF).
* :class:`JoinCondition` — a conjunction; ``JoinCondition([])`` is the
  cross join (always true).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import compress, repeat, tee
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.tuples import StreamTuple


class Predicate(ABC):
    """A boolean predicate over tuples of a fixed subset of streams."""

    @property
    @abstractmethod
    def streams(self) -> FrozenSet[int]:
        """Indices of the streams this predicate references."""

    @abstractmethod
    def evaluate(self, bound: Mapping[int, StreamTuple]) -> bool:
        """Evaluate against ``bound`` (stream index → tuple).

        Callers guarantee every referenced stream is present in ``bound``.
        """

    def select(
        self,
        stream: int,
        bound: Mapping[int, StreamTuple],
        candidates: Iterable[StreamTuple],
    ) -> Iterator[StreamTuple]:
        """The ``candidates`` of ``stream`` that satisfy the predicate.

        ``bound`` holds every *other* referenced stream; ``stream`` is one
        this predicate references.  Yields lazily and in order, testing
        one candidate per step, so chained ``select`` calls test (and
        call user code) in the same order as a loop over the candidates
        that evaluates each predicate in turn.  Reads ``bound`` without
        changing it; the other streams' bindings must not change while
        the result is consumed.  This default evaluates ``bound`` extended
        by each candidate; subclasses answer the same in fewer frames.
        """
        extended = dict(bound)
        for candidate in candidates:
            extended[stream] = candidate
            if self.evaluate(extended):
                yield candidate


class _AttributePair(Predicate):
    """A predicate on one attribute of each of two distinct streams."""

    def __init__(self, left_stream: int, left_attr: str, right_stream: int, right_attr: str) -> None:
        if left_stream == right_stream:
            raise ValueError(f"{type(self).__name__} must reference two distinct streams")
        self.left_stream = left_stream
        self.left_attr = left_attr
        self.right_stream = right_stream
        self.right_attr = right_attr
        self._streams = frozenset((left_stream, right_stream))

    @property
    def streams(self) -> FrozenSet[int]:
        return self._streams

    def side_for(self, stream: int) -> Tuple[str, int, str]:
        """Return ``(attr_on_stream, other_stream, attr_on_other)``.

        Used by the probe to turn "stream being bound next" into an index
        lookup key derived from an already-bound stream.
        """
        if stream == self.left_stream:
            return (self.left_attr, self.right_stream, self.right_attr)
        if stream == self.right_stream:
            return (self.right_attr, self.left_stream, self.left_attr)
        raise ValueError(f"stream {stream} not referenced by this predicate")


class EquiPredicate(_AttributePair):
    """Equality between one attribute of each of two streams.

    ``EquiPredicate(0, "a1", 1, "a1")`` is ``S0.a1 == S1.a1``.
    """

    def evaluate(self, bound: Mapping[int, StreamTuple]) -> bool:
        # Missing attributes read as None (mirroring the hash-index
        # behaviour), so None == None matches rather than raising.
        return (
            bound[self.left_stream].get(self.left_attr)
            == bound[self.right_stream].get(self.right_attr)
        )

    def select(
        self,
        stream: int,
        bound: Mapping[int, StreamTuple],
        candidates: Iterable[StreamTuple],
    ) -> Iterator[StreamTuple]:
        attr, other, other_attr = self.side_for(stream)
        value = bound[other].get(other_attr)
        if stream == self.left_stream:  # ``==`` keeps its operand order
            return (c for c in candidates if c.get(attr) == value)
        return (c for c in candidates if value == c.get(attr))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"S{self.left_stream}.{self.left_attr} == "
            f"S{self.right_stream}.{self.right_attr}"
        )


class BandPredicate(_AttributePair):
    """``|S_i.attr_a - S_j.attr_b| <= band`` between two streams."""

    def __init__(
        self,
        left_stream: int,
        left_attr: str,
        right_stream: int,
        right_attr: str,
        band: float,
    ) -> None:
        super().__init__(left_stream, left_attr, right_stream, right_attr)
        if band < 0:
            raise ValueError(f"band must be non-negative, got {band}")
        self.band = band

    def evaluate(self, bound: Mapping[int, StreamTuple]) -> bool:
        left = bound[self.left_stream].get(self.left_attr)
        right = bound[self.right_stream].get(self.right_attr)
        if left is None or right is None:
            return False
        return abs(left - right) <= self.band

    def select(
        self,
        stream: int,
        bound: Mapping[int, StreamTuple],
        candidates: Iterable[StreamTuple],
    ) -> Iterator[StreamTuple]:
        attr, other, other_attr = self.side_for(stream)
        value, band = bound[other].get(other_attr), self.band
        # No early return on a missing value: the candidates are still
        # pulled, so an upstream select calls its user code as before.
        known = value is not None
        if stream == self.left_stream:  # ``-`` keeps its operand order
            return (
                c
                for c in candidates
                if known and (v := c.get(attr)) is not None and abs(v - value) <= band
            )
        return (
            c
            for c in candidates
            if known and (v := c.get(attr)) is not None and abs(value - v) <= band
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"|S{self.left_stream}.{self.left_attr} - "
            f"S{self.right_stream}.{self.right_attr}| <= {self.band}"
        )


class ThetaPredicate(Predicate):
    """Arbitrary user-defined predicate over tuples of given streams.

    ``fn`` receives the bound tuples of ``streams`` positionally, in the
    order given, and its result is tested for truthiness.  The probe may
    call it through ``map`` over a candidate list (:meth:`select`), so
    it is called once per candidate tested, in candidate order, but from
    C rather than from a Python loop.
    Example (the paper's Q×2 soccer condition)::

        ThetaPredicate(
            (0, 1),
            lambda a, b: player_distance(a["x"], a["y"], b["x"], b["y"]) < 5,
            name="dist<5",
        )
    """

    def __init__(
        self,
        streams: Sequence[int],
        fn: Callable[..., bool],
        name: Optional[str] = None,
    ) -> None:
        if len(set(streams)) != len(streams):
            raise ValueError("streams must be distinct")
        if not streams:
            raise ValueError("theta predicate must reference at least one stream")
        self._ordered_streams = tuple(streams)
        self._streams = frozenset(streams)
        self._fn = fn
        self.name = name or getattr(fn, "__name__", "theta")

    @property
    def streams(self) -> FrozenSet[int]:
        return self._streams

    def evaluate(self, bound: Mapping[int, StreamTuple]) -> bool:
        return bool(self._fn(*(bound[s] for s in self._ordered_streams)))

    def select(
        self,
        stream: int,
        bound: Mapping[int, StreamTuple],
        candidates: Iterable[StreamTuple],
    ) -> Iterator[StreamTuple]:
        data, args = tee(candidates)
        return compress(
            data,
            map(
                self._fn,
                *(args if s == stream else repeat(bound[s]) for s in self._ordered_streams),
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        refs = ", ".join(f"S{s}" for s in self._ordered_streams)
        return f"{self.name}({refs})"


class JoinCondition:
    """Conjunction of predicates; the empty conjunction is the cross join.

    Every predicate must reference at least two streams: a test on one
    stream alone is a filter, to be applied to that stream before the
    join.  Pre-computes, for each stream, the equality predicates
    touching it and the indexed attributes it needs, so the window layer
    knows which hash indexes to maintain and the probe knows which
    lookups are available.
    """

    def __init__(self, predicates: Sequence[Predicate] = ()) -> None:
        self.predicates: List[Predicate] = list(predicates)
        for predicate in self.predicates:
            if len(predicate.streams) < 2:
                raise ValueError(
                    f"{predicate!r} references a single stream; a join condition "
                    "relates streams — filter the stream before the join instead"
                )
        self._equi_by_stream: Dict[int, List[EquiPredicate]] = {}
        for predicate in self.predicates:
            if isinstance(predicate, EquiPredicate):
                for stream in predicate.streams:
                    self._equi_by_stream.setdefault(stream, []).append(predicate)

    @property
    def is_cross_join(self) -> bool:
        return not self.predicates

    def referenced_streams(self) -> FrozenSet[int]:
        refs: set = set()
        for predicate in self.predicates:
            refs |= predicate.streams
        return frozenset(refs)

    def indexed_attributes(self, stream: int) -> List[str]:
        """Attributes of ``stream`` that appear in equality predicates.

        The window on ``stream`` maintains one hash index per entry.
        """
        attrs: List[str] = []
        for predicate in self._equi_by_stream.get(stream, ()):
            attr, _, _ = predicate.side_for(stream)
            if attr not in attrs:
                attrs.append(attr)
        return attrs

    def equi_lookups(
        self, stream: int, bound_streams: FrozenSet[int]
    ) -> List[Tuple[str, int, str]]:
        """Index lookups usable when binding ``stream`` given ``bound_streams``.

        Returns ``(attr_on_stream, bound_stream, attr_on_bound)`` triples:
        candidate tuples of ``stream`` can be fetched from the hash index
        on ``attr_on_stream`` keyed by the bound tuple's value of
        ``attr_on_bound``.
        """
        lookups: List[Tuple[str, int, str]] = []
        for predicate in self._equi_by_stream.get(stream, ()):
            attr, other, other_attr = predicate.side_for(stream)
            if other in bound_streams:
                lookups.append((attr, other, other_attr))
        return lookups

    def predicates_closed_by(
        self, new_stream: int, bound_streams: FrozenSet[int]
    ) -> List[Predicate]:
        """Predicates that become fully bound when ``new_stream`` joins.

        These are exactly the checks to run when extending a partial
        binding by ``new_stream``: every referenced stream is either
        already bound or is ``new_stream`` itself, and ``new_stream`` is
        referenced (otherwise the predicate was checked earlier).  Every
        predicate references two or more streams (``__init__`` checks),
        so it closes at exactly one depth of any probe order — never at
        the trigger, which no depth binds.
        """
        closed: List[Predicate] = []
        extended = bound_streams | {new_stream}
        for predicate in self.predicates:
            if new_stream in predicate.streams and predicate.streams <= extended:
                closed.append(predicate)
        return closed

    def evaluate(self, bound: Mapping[int, StreamTuple]) -> bool:
        """Full evaluation; requires all referenced streams bound."""
        return all(predicate.evaluate(bound) for predicate in self.predicates)

    def partition_attributes(self, num_streams: int) -> Optional[Dict[int, str]]:
        """Per-stream attributes that co-partition the join, if any exist.

        Hash partitioning an m-way join is exact when every stream can be
        routed on an attribute such that all m components of any join
        result carry the *same* value — then hashing that value sends all
        contributing tuples to the same partition.  Equality propagates
        transitively through equi predicates, so this runs a union-find
        over ``(stream, attr)`` nodes with one edge per
        :class:`EquiPredicate`: a connected component that covers **all**
        ``num_streams`` streams yields a valid assignment (its attribute
        on each stream).

        Returns ``{stream: attr}`` for the first qualifying component (in
        predicate order, so the choice is deterministic), or ``None`` when
        the condition cannot be hash-partitioned exactly — e.g. a star
        equi-join whose center matches each satellite on a different
        attribute, band/theta predicates only, or the cross join.
        """
        if num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {num_streams}")
        parent: Dict[Tuple[int, str], Tuple[int, str]] = {}

        def find(node: Tuple[int, str]) -> Tuple[int, str]:
            root = node
            while parent[root] != root:
                root = parent[root]
            while parent[node] != root:  # path compression
                parent[node], node = root, parent[node]
            return root

        for predicate in self.predicates:
            if not isinstance(predicate, EquiPredicate):
                continue
            left = (predicate.left_stream, predicate.left_attr)
            right = (predicate.right_stream, predicate.right_attr)
            parent.setdefault(left, left)
            parent.setdefault(right, right)
            parent[find(left)] = find(right)

        components: Dict[Tuple[int, str], Dict[int, str]] = {}
        for node in parent:
            stream, attr = node
            members = components.setdefault(find(node), {})
            # Keep the first attribute seen per stream (predicate order).
            members.setdefault(stream, attr)
        for members in components.values():
            if len(members) == num_streams and set(members) == set(
                range(num_streams)
            ):
                return dict(sorted(members.items()))
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.predicates:
            return "JoinCondition(<cross join>)"
        return "JoinCondition(" + " AND ".join(map(repr, self.predicates)) + ")"


def equi_join_chain(attr: str, num_streams: int) -> JoinCondition:
    """Chain equi-join ``S0.attr == S1.attr AND S1.attr == S2.attr ...``.

    Matches the paper's Q×3 shape (``S1.a1=S2.a1 AND S2.a1=S3.a1``).
    """
    predicates = [
        EquiPredicate(i, attr, i + 1, attr) for i in range(num_streams - 1)
    ]
    return JoinCondition(predicates)


def star_equi_join(center: int, attr_map: Mapping[int, str]) -> JoinCondition:
    """Star equi-join: the center stream matches each satellite on one attr.

    ``star_equi_join(0, {1: "a1", 2: "a2", 3: "a3"})`` is the paper's Q×4
    (``S1.a1=S2.a1 AND S1.a2=S3.a2 AND S1.a3=S4.a3``).
    """
    predicates = [
        EquiPredicate(center, attr, satellite, attr)
        for satellite, attr in attr_map.items()
    ]
    return JoinCondition(predicates)
