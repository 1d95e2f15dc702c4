"""Pluggable window state stores: hot in-memory and tiered hot/cold.

:class:`~repro.join.window.SlidingWindow` holds *what* a window means
(size, index attributes); a :class:`WindowStore` holds *how* its live
tuples are represented.  Two implementations ship:

* :class:`InMemoryStore` — every live tuple is a Python object.  A
  byte-identical extraction of the original ``SlidingWindow`` internals:
  slot-id dict + lazy-deletion ts-heap + insertion-ordered hash indexes.
* :class:`TieredStore` — an :class:`InMemoryStore` (it *is* one: the
  hot tier and every operation on it are inherited, written once)
  bounded by a budget, plus a **cold tier** of older tuples compacted into
  time-range buckets of :class:`~repro.core.blocks.ColdSegment`
  (``TupleBlock``-encoded columns, the PR 3 codec).  The cold tier
  keeps per-key sizes beside the hot tier's buckets, so a count is two
  dict reads and never decodes; a collecting probe touches cold state
  only when the sizes say the key is there and a segment's
  per-attribute value summary admits it, decoding lazily through a
  bounded LRU cache; expiry is bucket-granular — segments wholly below
  the bound drop without decoding, the one straddling segment *thaws*
  back into the hot tier so expiration stays exact.

The contract (:class:`WindowStore`) is what Alg. 2 needs of a window —
insert, exact expiry, probe access — plus state migration
(``extract_state`` / ``adopt_frozen``, the one extraction path) and
metrics; it carries no diagnostic or second-path surface.

Both stores observe the same externally visible contract — candidate
order is slot-id (= insertion) order, expiration is exact, ``len`` is
the live count — so a pipeline over a :class:`TieredStore` produces
result sequences and :class:`~repro.join.mswj.JoinStatistics`
byte-identical to :class:`InMemoryStore` (proven by the differential
tests and the soak bank).

Slot ids are assigned monotonically per store and never reused; a
frozen segment remembers its slots, so merged hot+cold candidates sort
back into exact insertion order.  Shard-state migration moves cold
segments as already-encoded blocks (:meth:`WindowStore.extract_state` /
:meth:`WindowStore.adopt_frozen`) — no decode/re-encode round trip —
unless a segment's slot range interleaves with other moving tuples, in
which case it is exploded to preserve candidate order.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import Counter, OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.blocks import (
    ColdSegment,
    freeze_segment,
    segment_column,
    thaw_segment,
)
from ..core.tuples import StreamTuple

#: ``tuple → migration group (or None to stay)``; must be pure — stores
#: may evaluate it in any order and skip it entirely for cold segments
#: classified by column (see ``extract_state``).
Classifier = Callable[[StreamTuple], Optional[object]]
#: ``partition-attribute value → migration group (or None)``; the
#: column-level fast path equivalent of a :data:`Classifier`.
ValueClassifier = Callable[[object], Optional[object]]
#: What ``extract_state`` yields per group: raw tuples and/or frozen
#: segments, in source slot (= insertion) order.
StateItem = Union[StreamTuple, ColdSegment]

_SLOT = itemgetter(0)


@dataclass
class StoreMetrics:
    """A point-in-time snapshot of one store's state-size counters.

    ``resident_objects`` counts live :class:`StreamTuple` objects the
    store currently holds in Python-object form (hot tier plus decode
    cache); ``cold_tuples`` live only as encoded columns.  ``evicted``,
    ``decode_hits`` / ``decode_misses``, ``freezes`` and ``thaws`` are
    cumulative over the store's lifetime.
    """

    resident_objects: int = 0
    hot_objects: int = 0
    cold_tuples: int = 0
    encoded_bytes: int = 0
    segments: int = 0
    evicted: int = 0
    decode_hits: int = 0
    decode_misses: int = 0
    freezes: int = 0
    thaws: int = 0


@dataclass(frozen=True)
class TieredStoreConfig:
    """Tuning knobs of a :class:`TieredStore`.

    ``hot_budget`` is the compaction trigger: when the hot tier exceeds
    it, every tuple outside the *active* time bucket (the one containing
    the store's maximum seen timestamp) and above the expiry bound is
    frozen.  Hot residency can therefore transiently exceed the budget
    by the active bucket's population plus the one thawed straddling
    bucket — callers deriving a hard assertion bound add that slack from
    the workload's analytic rates (see
    :meth:`repro.workloads.Workload.analytic_caps`).

    ``bucket_span_ms`` is the cold tier's time-bucket width (expiry
    granularity: a whole bucket drops undecoded; the straddler thaws).
    ``cache_tuples`` bounds the decoded-segment LRU cache, in tuples.
    """

    hot_budget: int = 4096
    bucket_span_ms: int = 1_000
    cache_tuples: int = 4096

    def __post_init__(self) -> None:
        if self.hot_budget <= 0:
            raise ValueError(f"hot_budget must be positive, got {self.hot_budget}")
        if self.bucket_span_ms <= 0:
            raise ValueError(
                f"bucket_span_ms must be positive, got {self.bucket_span_ms}"
            )
        if self.cache_tuples < 0:
            raise ValueError(f"cache_tuples must be >= 0, got {self.cache_tuples}")


#: How callers select a store: ``None`` / ``"memory"`` for
#: :class:`InMemoryStore`, ``"tiered"`` for a default-configured
#: :class:`TieredStore`, or a :class:`TieredStoreConfig`.  Plain data —
#: it must survive pickling into worker processes inside a
#: ``PipelineConfig``.
StoreSpec = Union[None, str, TieredStoreConfig]


class WindowStore(ABC):
    """State container behind one stream's sliding window.

    The contract every implementation must honour (the byte-identity
    differential tests enforce it):

    * slot ids are per-store monotonic and never reused; every probe
      surface (:meth:`lookup`, :meth:`tuples`) yields candidates in
      slot (= insertion) order;
    * :meth:`expire_before` is exact — afterwards no live tuple has
      ``ts < bound`` — and returns the evicted count;
    * :meth:`__len__` is the exact live count (the join's ``n×``
      productivity input).
    """

    @abstractmethod
    def insert(self, t: StreamTuple) -> None:
        """Add a tuple under the next slot id."""

    @abstractmethod
    def needs_expiry(self, bound_ts: int) -> bool:
        """Cheap, possibly-conservative check whether any live tuple may
        have ``ts < bound_ts`` (hot-path guard for :meth:`expire_before`;
        false positives allowed, false negatives not)."""

    @abstractmethod
    def expire_before(self, bound_ts: int) -> int:
        """Remove all tuples with ``ts < bound_ts``; return how many."""

    @abstractmethod
    def extract_state(
        self,
        classify: Classifier,
        partition_attr: Optional[str] = None,
        value_classifier: Optional[ValueClassifier] = None,
    ) -> Dict[object, List[StateItem]]:
        """Remove migrating state, grouped by destination.

        ``classify`` maps a tuple to its group or ``None`` (stay).  When
        ``partition_attr`` + ``value_classifier`` are given, a tiered
        store classifies frozen segments by reading that payload column —
        a uniformly-classified segment moves *as the encoded segment*
        without decoding.  Each group's items come back in source slot
        order; adopting them in sequence reproduces candidate order."""

    @abstractmethod
    def adopt_frozen(self, segment: ColdSegment) -> None:
        """Absorb a migrated frozen segment (its tuples get this store's
        next slot ids, preserving their relative order)."""

    @abstractmethod
    def clear(self) -> None:
        """Drop all content (slot counter keeps advancing)."""

    @abstractmethod
    def __len__(self) -> int:
        """Exact live tuple count."""

    @abstractmethod
    def tuples(self) -> Iterator[StreamTuple]:
        """Iterate all live tuples in slot order."""

    @abstractmethod
    def has_index(self, attr: str) -> bool:
        """Whether equality lookups on ``attr`` are supported."""

    @abstractmethod
    def lookup(self, attr: str, value: object) -> Iterable[StreamTuple]:
        """Live tuples with ``attr == value`` in slot order (requires an
        index on ``attr``; raises ``KeyError`` otherwise)."""

    @abstractmethod
    def count(self, attr: str, value: object) -> int:
        """``len(list(lookup(attr, value)))``, from the store's per-key
        sizes — no tuple is touched (count-only probes)."""

    @abstractmethod
    def metrics(self) -> StoreMetrics:
        """Current state-size / codec-traffic snapshot."""


class InMemoryStore(WindowStore):
    """All live tuples as Python objects (the original representation).

    Slot-id dict (dict order == slot order: ids are monotonic and only
    ever removed), ts-min-heap with lazy deletion for expiry, and
    insertion-ordered ``Dict[int, None]`` index buckets so lookups yield
    deterministic insertion-order candidates with no per-probe sort.
    """

    def __init__(self, indexed_attributes: Sequence[str] = ()) -> None:
        self._slots: Dict[int, StreamTuple] = {}
        self._next_slot = 0
        self._heap: List[Tuple[int, int]] = []  # (ts, slot)
        self._indexes: Dict[str, Dict[object, Dict[int, None]]] = {
            attr: {} for attr in indexed_attributes
        }
        self._evicted = 0

    # -- content maintenance ------------------------------------------

    def insert(self, t: StreamTuple) -> None:
        slot = self._next_slot
        self._next_slot += 1
        self._hold(slot, t)

    def _hold(self, slot: int, t: StreamTuple) -> None:
        """Hold ``t`` as a live object under ``slot``: slot dict, expiry
        heap, every index.  The one way a tuple becomes resident —
        :meth:`insert` with a fresh slot, a tiered thaw with the slot
        the tuple was frozen under (which is why only a store that never
        re-holds an old slot may read dict order as slot order)."""
        self._slots[slot] = t
        heapq.heappush(self._heap, (t.ts, slot))
        for attr, index in self._indexes.items():
            index.setdefault(t.get(attr), {})[slot] = None

    def needs_expiry(self, bound_ts: int) -> bool:
        heap = self._heap
        return bool(heap) and heap[0][0] < bound_ts

    def expire_before(self, bound_ts: int) -> int:
        removed = 0
        while self._heap and self._heap[0][0] < bound_ts:
            _, slot = heapq.heappop(self._heap)
            t = self._slots.pop(slot, None)
            if t is None:
                continue  # lazily deleted earlier
            removed += 1
            self._unindex(slot, t)
        self._evicted += removed
        return removed

    def _unindex(self, slot: int, t: StreamTuple) -> None:
        for attr, index in self._indexes.items():
            value = t.get(attr)
            bucket = index.get(value)
            if bucket is not None:
                bucket.pop(slot, None)
                if not bucket:
                    del index[value]

    def _carve(self, classify: Classifier) -> List[Tuple[int, object, StreamTuple]]:
        """Remove every resident tuple ``classify`` gives a group; return
        ``(slot, group, tuple)`` in slot-dict order.  Heap entries of the
        carved slots stay behind as lazy deletions."""
        moved: List[Tuple[int, object, StreamTuple]] = []
        for slot, t in self._slots.items():
            group = classify(t)
            if group is not None:
                moved.append((slot, group, t))
        for slot, _, t in moved:
            del self._slots[slot]
            self._unindex(slot, t)
        return moved

    def extract_state(
        self,
        classify: Classifier,
        partition_attr: Optional[str] = None,
        value_classifier: Optional[ValueClassifier] = None,
    ) -> Dict[object, List[StateItem]]:
        groups: Dict[object, List[StateItem]] = {}
        for _, group, t in self._carve(classify):
            groups.setdefault(group, []).append(t)
        return groups

    def adopt_frozen(self, segment: ColdSegment) -> None:
        for t in thaw_segment(segment):
            self.insert(t)

    def clear(self) -> None:
        self._slots.clear()
        self._heap.clear()
        for index in self._indexes.values():
            index.clear()

    # -- probe access -------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots)

    def tuples(self) -> Iterator[StreamTuple]:
        return iter(self._slots.values())

    def has_index(self, attr: str) -> bool:
        return attr in self._indexes

    def lookup(self, attr: str, value: object) -> Iterable[StreamTuple]:
        index = self._indexes.get(attr)
        if index is None:
            raise KeyError(f"no index maintained on attribute {attr!r}")
        slots = index.get(value)
        if not slots:
            return ()
        # Lazy single-pass iterable; the window must not be mutated
        # while it is consumed (the probe loop guarantees that).
        return map(self._slots.__getitem__, slots)

    def count(self, attr: str, value: object) -> int:
        index = self._indexes.get(attr)
        if index is None:
            raise KeyError(f"no index maintained on attribute {attr!r}")
        slots = index.get(value)
        return len(slots) if slots else 0

    def metrics(self) -> StoreMetrics:
        return StoreMetrics(
            resident_objects=len(self._slots),
            hot_objects=len(self._slots),
            evicted=self._evicted,
        )


class _CacheEntry:
    """One decoded segment in the LRU cache: (slot, tuple) pairs plus
    lazily-built per-attribute equality indexes."""

    __slots__ = ("pairs", "indexes")

    def __init__(self, pairs: List[Tuple[int, StreamTuple]]) -> None:
        self.pairs = pairs
        self.indexes: Dict[str, Dict[object, List[Tuple[int, StreamTuple]]]] = {}


class TieredStore(InMemoryStore):
    """An :class:`InMemoryStore` bounded by a cold columnar tier (see
    module docstring).

    Hot tier: the inherited structures (slot dict, lazy-deletion heap,
    insertion-ordered indexes) and operations — this class adds only
    what the cold tier needs.  When the hot tier outgrows
    ``config.hot_budget``, every hot tuple that lies in a *completed*
    time bucket (strictly below the bucket of the maximum seen
    timestamp) and above the expiry bound is frozen: grouped by
    ``ts // bucket_span_ms``, sorted by slot, and encoded into one
    :class:`~repro.core.blocks.ColdSegment` per bucket.

    Cold tier: ``bucket key → [segments]``.  Expiry drops segments with
    ``max_ts < bound`` whole (no decode) and *thaws* a straddling
    segment back into the hot tier under its original slot ids, so the
    subsequent heap sweep stays exact; a bucket thaws at most once
    because frozen buckets always sit fully above the expiry bound.
    ``_cold_sizes`` maps each indexed attribute to ``key → live cold
    tuples with that key``, kept by :meth:`_admit` / :meth:`_drop_segment`
    from the segment's column: :meth:`count` adds it to the hot bucket's
    length, and :meth:`lookup` skips the cold tier when it reads 0.
    Otherwise probes consult per-attribute value summaries to skip
    segments, and decode through a bounded LRU keyed by segment
    identity.  Merged hot+cold candidates sort by slot id — exactly the
    insertion order an :class:`InMemoryStore` would have yielded.
    """

    def __init__(
        self,
        indexed_attributes: Sequence[str] = (),
        config: Optional[TieredStoreConfig] = None,
    ) -> None:
        super().__init__(indexed_attributes)
        self.config = config or TieredStoreConfig()
        self._attrs: Tuple[str, ...] = tuple(indexed_attributes)
        self._span = self.config.bucket_span_ms
        # cold tier
        self._buckets: Dict[int, List[ColdSegment]] = {}
        self._cold_count = 0
        self._cold_sizes: Dict[str, Dict[object, int]] = {
            attr: {} for attr in self._attrs
        }
        self._cold_min: Optional[int] = None
        self._encoded_bytes = 0
        # decode cache (LRU by segment identity; entries are invalidated
        # explicitly whenever a segment leaves the cold tier)
        self._cache: "OrderedDict[int, _CacheEntry]" = OrderedDict()
        self._cached_tuples = 0
        # compaction state
        self._max_ts_seen: Optional[int] = None
        self._expire_bound: Optional[int] = None
        self._compact_trigger = self.config.hot_budget
        # cumulative metrics
        self._decode_hits = 0
        self._decode_misses = 0
        self._freezes = 0
        self._thaws = 0

    # -- content maintenance ------------------------------------------

    def insert(self, t: StreamTuple) -> None:
        super().insert(t)
        if self._max_ts_seen is None or t.ts > self._max_ts_seen:
            self._max_ts_seen = t.ts
        if len(self._slots) > self._compact_trigger:
            self._compact()

    def needs_expiry(self, bound_ts: int) -> bool:
        if super().needs_expiry(bound_ts):
            return True
        return self._cold_min is not None and self._cold_min < bound_ts

    def expire_before(self, bound_ts: int) -> int:
        if self._expire_bound is None or bound_ts > self._expire_bound:
            self._expire_bound = bound_ts
        evicted = self._evicted
        if self._cold_min is not None and self._cold_min < bound_ts:

            def sweep(seg: ColdSegment) -> Optional[ColdSegment]:
                if seg.max_ts < bound_ts:
                    self._evicted += len(seg)
                    self._drop_segment(seg)
                elif seg.min_ts < bound_ts:
                    # Straddler: thaw into the hot tier (original
                    # slots) so the heap sweep below expires exactly.
                    self._thaw(seg)
                else:
                    return seg
                return None

            self._rebuild_buckets(sweep, below=bound_ts)
        # Thawed straddlers are resident (and on the heap) by now, so
        # the inherited heap sweep finishes the job exactly.
        super().expire_before(bound_ts)
        # Expiry changes freeze eligibility; re-arm the compaction probe.
        self._compact_trigger = self.config.hot_budget
        return self._evicted - evicted

    def extract_state(
        self,
        classify: Classifier,
        partition_attr: Optional[str] = None,
        value_classifier: Optional[ValueClassifier] = None,
    ) -> Dict[object, List[StateItem]]:
        # (first slot, last slot, group, item) — slots kept so the final
        # per-group assembly can detect slot-range interleavings.
        moved: List[Tuple[int, int, object, StateItem]] = [
            (slot, slot, group, t) for slot, group, t in self._carve(classify)
        ]

        def split(seg: ColdSegment) -> Optional[ColdSegment]:
            if value_classifier is not None and partition_attr is not None:
                # Column fast path: classify without decoding.
                per_tuple = [
                    value_classifier(v) for v in segment_column(seg, partition_attr)
                ]
            else:
                per_tuple = [classify(t) for _, t in self._entry_of(seg).pairs]
            first = per_tuple[0]
            if all(g is None for g in per_tuple):
                return seg
            if first is not None and all(g == first for g in per_tuple):
                # Uniform destination: the whole segment moves as the
                # already-encoded block.
                self._drop_segment(seg)
                moved.append((seg.slots[0], seg.slots[-1], first, seg))
                return None
            # Mixed destinations: decode and split per tuple.
            pairs = self._entry_of(seg).pairs
            self._drop_segment(seg)
            stayers: List[Tuple[int, StreamTuple]] = []
            for (slot, t), group in zip(pairs, per_tuple):
                if group is None:
                    stayers.append((slot, t))
                else:
                    moved.append((slot, slot, group, t))
            return self._freeze(stayers) if stayers else None

        if self._cold_count:
            self._rebuild_buckets(split)
        moved.sort(key=_SLOT)
        grouped: Dict[object, List[Tuple[int, int, StateItem]]] = {}
        for lo, hi, group, item in moved:
            grouped.setdefault(group, []).append((lo, hi, item))
        return {
            group: self._assemble(triples) for group, triples in grouped.items()
        }

    def _assemble(
        self, triples: List[Tuple[int, int, StateItem]]
    ) -> List[StateItem]:
        """Order one group's moved items; explode segments on overlap.

        Items are sorted by first slot.  If some segment's slot range
        contains another moved item's slot (a hot tuple frozen past, or
        two segments of one bucket with interleaved slots), shipping the
        segment whole would misorder candidates at the destination — so
        the rare overlapping group is flattened to plain slot-sorted
        tuples instead.
        """
        prev_hi = -1
        overlap = False
        for lo, hi, _ in triples:
            if lo <= prev_hi:
                overlap = True
                break
            prev_hi = max(prev_hi, hi)
        if not overlap:
            return [item for _, _, item in triples]
        flat: List[Tuple[int, StreamTuple]] = []
        for lo, _, item in triples:
            if isinstance(item, ColdSegment):
                self._decode_misses += 1
                flat.extend(zip(item.slots, thaw_segment(item)))
            else:
                flat.append((lo, item))
        flat.sort(key=_SLOT)
        return [t for _, t in flat]

    def adopt_frozen(self, segment: ColdSegment) -> None:
        missing = [a for a in self._attrs if a not in segment.summaries]
        if missing:
            # Summaries don't cover this store's probe indexes (peer had
            # different attrs); fall back to object adoption.
            super().adopt_frozen(segment)
            return
        n = len(segment)
        base = self._next_slot
        self._next_slot = base + n
        seg = self._admit(segment.with_slots(tuple(range(base, base + n))))
        self._buckets.setdefault(seg.min_ts // self._span, []).append(seg)
        if self._max_ts_seen is None or seg.max_ts > self._max_ts_seen:
            self._max_ts_seen = seg.max_ts

    def clear(self) -> None:
        super().clear()
        self._buckets.clear()
        self._cold_count = 0
        for sizes in self._cold_sizes.values():
            sizes.clear()
        self._cold_min = None
        self._encoded_bytes = 0
        self._cache.clear()
        self._cached_tuples = 0
        self._max_ts_seen = None
        self._expire_bound = None
        self._compact_trigger = self.config.hot_budget

    # -- probe access -------------------------------------------------

    def __len__(self) -> int:
        return len(self._slots) + self._cold_count

    def tuples(self) -> Iterator[StreamTuple]:
        pairs: List[Tuple[int, StreamTuple]] = list(self._slots.items())
        for key in sorted(self._buckets):
            for seg in self._buckets[key]:
                pairs.extend(self._entry_of(seg).pairs)
        pairs.sort(key=_SLOT)
        return iter([t for _, t in pairs])

    def lookup(self, attr: str, value: object) -> Iterable[StreamTuple]:
        index = self._indexes.get(attr)
        if index is None:
            raise KeyError(f"no index maintained on attribute {attr!r}")
        bucket = index.get(value)
        pairs: List[Tuple[int, StreamTuple]] = (
            [(slot, self._slots[slot]) for slot in bucket] if bucket else []
        )
        if self._cold_sizes[attr].get(value):
            for key in sorted(self._buckets):
                for seg in self._buckets[key]:
                    summary = seg.summaries.get(attr)
                    if summary is not None and value in summary:
                        pairs.extend(self._segment_lookup(seg, attr, value))
        if not pairs:
            return ()
        # Slot sort restores exact insertion order across tiers (hot
        # buckets alone can be out of slot order after a thaw).
        pairs.sort(key=_SLOT)
        return [t for _, t in pairs]

    def count(self, attr: str, value: object) -> int:
        return super().count(attr, value) + self._cold_sizes[attr].get(value, 0)

    def metrics(self) -> StoreMetrics:
        return StoreMetrics(
            resident_objects=len(self._slots) + self._cached_tuples,
            hot_objects=len(self._slots),
            cold_tuples=self._cold_count,
            encoded_bytes=self._encoded_bytes,
            segments=sum(len(segs) for segs in self._buckets.values()),
            evicted=self._evicted,
            decode_hits=self._decode_hits,
            decode_misses=self._decode_misses,
            freezes=self._freezes,
            thaws=self._thaws,
        )

    # -- internals ----------------------------------------------------

    def _compact(self) -> None:
        """Freeze completed-bucket hot tuples into cold segments.

        Eligible: bucket strictly below the active bucket (the maximum
        seen timestamp's) and fully above the expiry bound — frozen
        buckets never need immediate thawing.  When nothing is eligible
        (all hot content is recent), back off so the scan doesn't rerun
        on every insert while the hot tier legitimately exceeds the
        budget by the active bucket's population.
        """
        span = self._span
        assert self._max_ts_seen is not None  # insert() set it
        active_key = self._max_ts_seen // span
        bound = self._expire_bound
        groups: Dict[int, List[Tuple[int, StreamTuple]]] = {}
        for slot, t in self._slots.items():
            key = t.ts // span
            if key < active_key and (bound is None or key * span >= bound):
                groups.setdefault(key, []).append((slot, t))
        for key in sorted(groups):
            pairs = sorted(groups[key], key=_SLOT)
            for slot, t in pairs:
                del self._slots[slot]
                self._unindex(slot, t)
            self._buckets.setdefault(key, []).append(self._freeze(pairs))
        if groups:
            self._compact_trigger = self.config.hot_budget
        else:
            self._compact_trigger = len(self._slots) + max(
                1, self.config.hot_budget // 8
            )

    def _freeze(self, pairs: List[Tuple[int, StreamTuple]]) -> ColdSegment:
        """Encode slot-ordered ``(slot, tuple)`` pairs — a compacted
        bucket, or the staying part of a split segment — as one admitted
        segment (the caller files it under its bucket)."""
        self._freezes += 1
        return self._admit(
            freeze_segment([t for _, t in pairs], [s for s, _ in pairs], self._attrs)
        )

    def _admit(self, seg: ColdSegment) -> ColdSegment:
        """Enter a segment into cold accounting (:meth:`_drop_segment`
        is the inverse; ``_cold_min`` only ever lowers here and is
        recomputed by :meth:`_rebuild_buckets`)."""
        self._cold_count += len(seg)
        self._encoded_bytes += seg.encoded_bytes
        for attr, sizes in self._cold_sizes.items():
            for key, n in Counter(segment_column(seg, attr)).items():
                sizes[key] = sizes.get(key, 0) + n
        if self._cold_min is None or seg.min_ts < self._cold_min:
            self._cold_min = seg.min_ts
        return seg

    def _drop_segment(self, seg: ColdSegment) -> None:
        """Remove a segment from cold accounting + decode cache (the
        caller removes it from its bucket list).  Segments are immutable,
        so the column counts subtracted are the ones :meth:`_admit`
        added; a key whose size reaches 0 leaves the map."""
        self._cold_count -= len(seg)
        self._encoded_bytes -= seg.encoded_bytes
        for attr, sizes in self._cold_sizes.items():
            for key, n in Counter(segment_column(seg, attr)).items():
                if sizes[key] == n:
                    del sizes[key]
                else:
                    sizes[key] -= n
        entry = self._cache.pop(id(seg), None)
        if entry is not None:
            self._cached_tuples -= len(entry.pairs)

    def _rebuild_buckets(
        self,
        keep: Callable[[ColdSegment], Optional[ColdSegment]],
        below: Optional[int] = None,
    ) -> None:
        """Pass every segment (bucket by bucket, ascending; with
        ``below``, only buckets starting under that timestamp) through
        ``keep`` and rebuild each bucket's list from what it returns —
        the segment itself, a re-frozen remainder, or ``None`` once
        ``keep`` has dropped or thawed it — then refresh ``_cold_min``."""
        for key in sorted(self._buckets):
            if below is not None and key * self._span >= below:
                break
            kept = [seg for seg in map(keep, self._buckets[key]) if seg is not None]
            if kept:
                self._buckets[key] = kept
            else:
                del self._buckets[key]
        self._cold_min = min(
            (seg.min_ts for segs in self._buckets.values() for seg in segs),
            default=None,
        )

    def _thaw(self, seg: ColdSegment) -> None:
        """Move a straddling segment's tuples back to the hot tier under
        their original slot ids (exact expiry then proceeds on the heap)."""
        pairs = self._entry_of(seg).pairs
        self._drop_segment(seg)
        for slot, t in pairs:
            self._hold(slot, t)
        self._thaws += 1

    def _entry_of(self, seg: ColdSegment) -> _CacheEntry:
        key = id(seg)
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
            self._decode_hits += 1
            return entry
        self._decode_misses += 1
        entry = _CacheEntry(list(zip(seg.slots, thaw_segment(seg))))
        self._cache[key] = entry
        self._cached_tuples += len(entry.pairs)
        budget = self.config.cache_tuples
        while self._cached_tuples > budget and len(self._cache) > 1:
            _, old = self._cache.popitem(last=False)
            self._cached_tuples -= len(old.pairs)
        return entry

    def _segment_lookup(
        self, seg: ColdSegment, attr: str, value: object
    ) -> List[Tuple[int, StreamTuple]]:
        entry = self._entry_of(seg)
        index = entry.indexes.get(attr)
        if index is None:
            index = {}
            for slot, t in entry.pairs:
                index.setdefault(t.get(attr), []).append((slot, t))
            entry.indexes[attr] = index
        return index.get(value, [])


def make_store(
    spec: StoreSpec, indexed_attributes: Sequence[str] = ()
) -> WindowStore:
    """Construct a fresh store from a :data:`StoreSpec`.

    ``None`` / ``"memory"`` → :class:`InMemoryStore`; ``"tiered"`` →
    default-configured :class:`TieredStore`; a
    :class:`TieredStoreConfig` → :class:`TieredStore` with it.
    """
    if spec is None or spec == "memory":
        return InMemoryStore(indexed_attributes)
    if spec == "tiered":
        return TieredStore(indexed_attributes)
    if isinstance(spec, TieredStoreConfig):
        return TieredStore(indexed_attributes, spec)
    raise ValueError(f"unknown window-store spec {spec!r}")
