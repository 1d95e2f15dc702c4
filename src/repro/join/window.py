"""Time-based sliding windows with hash indexes for equality predicates.

Each input stream of an MSWJ carries a time-based sliding window of
``W_i`` milliseconds (paper Sec. II-A).  The window supports the three
operations Alg. 2 needs:

* :meth:`SlidingWindow.insert` — add a tuple (in- or out-of-order);
* :meth:`SlidingWindow.expire_before` — invalidate tuples with
  ``ts < bound`` (Alg. 2 line 6);
* probe access — either a full scan (:meth:`tuples`) or, for equality
  predicates, an index lookup (:meth:`lookup`) on a maintained attribute,
  or just its size (:meth:`count`) when the probe only counts results.

The window itself is a thin façade: live state lives behind a pluggable
:class:`~repro.join.store.WindowStore` — :class:`~repro.join.store.InMemoryStore`
(all tuples as objects; the default) or
:class:`~repro.join.store.TieredStore` (the same store as a bounded hot
tier, plus cold ``TupleBlock``-encoded segments).  Beyond the three
operations above, the façade passes through only state migration
(:meth:`SlidingWindow.extract_state` / :meth:`SlidingWindow.adopt_frozen`)
and the store's metrics.  Every store honours the same probe contract — candidates in slot (= insertion) order, exact expiry — so
the choice changes memory shape, never join output (the byte-identity
differential tests pin this).

Representation contract: the MSWJ operator's hot paths
(:mod:`repro.join.mswj`) call :meth:`needs_expiry` to skip no-op
expiration calls, ``len(window.store)`` for cardinality and
:meth:`count` for the size of an index bucket — the store interface is
the hot-path surface, not private fields.  ``count(attr, value)`` must
equal the length of ``lookup(attr, value)`` under the index's own key
rule (dict-key equality: ``1``, ``1.0`` and ``True`` share a bucket, a
missing attribute is ``None``, a NaN matches only itself by identity);
both stores answer it from per-key sizes without touching a tuple (the
in-memory store: the bucket's length; the tiered store adds its cold
tier's size for the key).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from ..core.blocks import ColdSegment
from ..core.tuples import StreamTuple
from .store import (
    Classifier,
    StateItem,
    StoreMetrics,
    StoreSpec,
    ValueClassifier,
    WindowStore,
    make_store,
)


class SlidingWindow:
    """Window content of one stream, with optional per-attribute hash indexes.

    Parameters
    ----------
    size_ms:
        Window size ``W_i`` in milliseconds.
    indexed_attributes:
        Attribute names to maintain equality hash indexes for (derived
        from the join condition via
        :meth:`repro.join.conditions.JoinCondition.indexed_attributes`).
    store:
        A :data:`~repro.join.store.StoreSpec` (``None`` / ``"memory"`` /
        ``"tiered"`` / a :class:`~repro.join.store.TieredStoreConfig`),
        or an already-constructed empty
        :class:`~repro.join.store.WindowStore` to adopt as-is.
    """

    def __init__(
        self,
        size_ms: int,
        indexed_attributes: Sequence[str] = (),
        store: Union[StoreSpec, WindowStore] = None,
    ) -> None:
        if size_ms <= 0:
            raise ValueError(f"window size must be positive, got {size_ms}")
        self.size_ms = int(size_ms)
        if isinstance(store, WindowStore):
            self.store: WindowStore = store
        else:
            self.store = make_store(store, indexed_attributes)

    # ------------------------------------------------------------------
    # content maintenance
    # ------------------------------------------------------------------

    def insert(self, t: StreamTuple) -> None:
        self.store.insert(t)

    def needs_expiry(self, bound_ts: int) -> bool:
        """Cheap guard: may any live tuple have ``ts < bound_ts``?
        (Conservative — a stale heap head can answer True; the
        subsequent :meth:`expire_before` is exact either way.)"""
        return self.store.needs_expiry(bound_ts)

    def expire_before(self, bound_ts: int) -> int:
        """Remove all tuples with ``ts < bound_ts``; return how many."""
        return self.store.expire_before(bound_ts)

    def extract_state(
        self,
        classify: Classifier,
        partition_attr: Optional[str] = None,
        value_classifier: Optional[ValueClassifier] = None,
    ) -> Dict[object, List[StateItem]]:
        """Remove migrating state grouped by destination (tier-aware).

        See :meth:`repro.join.store.WindowStore.extract_state`: cold
        segments whose ``partition_attr`` column maps uniformly to one
        destination move as already-encoded blocks.
        """
        return self.store.extract_state(classify, partition_attr, value_classifier)

    def adopt_frozen(self, segment: ColdSegment) -> None:
        """Absorb a migrated cold segment (store decides whether it
        stays frozen or decodes)."""
        self.store.adopt_frozen(segment)

    def clear(self) -> None:
        self.store.clear()

    # ------------------------------------------------------------------
    # probe access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.store)

    @property
    def cardinality(self) -> int:
        return len(self.store)

    def tuples(self) -> Iterator[StreamTuple]:
        """Iterate over live window content (slot order)."""
        return self.store.tuples()

    def has_index(self, attr: str) -> bool:
        return self.store.has_index(attr)

    def lookup(self, attr: str, value: object) -> Iterable[StreamTuple]:
        """Tuples whose ``attr`` equals ``value`` (requires an index on attr).

        Candidates come back in slot-id (= insertion) order — probe order
        decides the order of emitted results within one trigger, so this
        is what makes two identical runs produce identical result
        *sequences* (not just sets), whichever store holds the state.

        May return a lazy single-pass iterable; the window must not be
        mutated while it is being consumed — the probe loop guarantees
        that: expiration happens before the probe and the trigger is
        inserted after it.
        """
        return self.store.lookup(attr, value)

    def count(self, attr: str, value: object) -> int:
        """How many tuples :meth:`lookup` would yield — the index
        bucket's size where the store keeps one."""
        return self.store.count(attr, value)

    def store_metrics(self) -> StoreMetrics:
        """The backing store's state-size snapshot."""
        return self.store.metrics()
