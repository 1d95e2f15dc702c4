"""Hash routing of input tuples to join shards, through a slot table.

Partitioned execution of an equi-join is exact when every tuple can be
routed by a key value that all components of any join result share (the
shared-nothing stream-join partitioning of Chakraborty's windowed-join
cluster work and PanJoin's hash sub-windows).  The
:class:`KeyRouter` asks the :class:`~repro.join.conditions.JoinCondition`
for such a per-stream key assignment
(:meth:`~repro.join.conditions.JoinCondition.partition_attributes`) and
hash-routes every tuple to exactly one shard.  Conditions without a
complete equi key (pure theta/band predicates, star joins over distinct
attributes, cross joins) fall back to *broadcast*: every shard receives
every tuple and maintains the full join state, which gains no partition
parallelism — callers should prefer one shard there.

Routing is indirect: ``stable_hash(key) → slot → shard``, through a
*slot table* of ``slots_per_shard × num_shards`` virtual slots (the
consistent-slot scheme of partitioned stores, sized so each shard owns
many slots).  The initial table assigns ``slot % num_shards``, which —
because the slot count is a multiple of the shard count — makes the
key→shard map *identical* to direct ``stable_hash(key) % num_shards``
hashing.  The indirection exists so a
:class:`~repro.parallel.rebalancer.Rebalancer` can repair load skew at
slot granularity: reassigning a slot moves one small key cohort between
shards, and the router's per-slot routed-tuple counters are exactly the
load signal the rebalancer plans from.

Hashing must agree across worker processes and across runs, so the
router never uses the builtin ``hash`` (randomized per process for
strings); see :func:`stable_hash`.
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.tuples import StreamTuple
from ..join.conditions import JoinCondition

#: Virtual slots per shard in the routing table.  64 keeps the table a
#: few hundred entries at typical shard counts — cheap to scan for the
#: rebalancer, fine-grained enough that one slot holds ~1/64th of a
#: shard's key space.
DEFAULT_SLOTS_PER_SHARD = 64


def stable_hash(value: object) -> int:
    """Deterministic hash, stable across processes and interpreter runs.

    Must be consistent with ``==`` on the key values equi predicates
    compare, or tuples that join would land on different shards.  For
    numbers Python's own ``hash`` already guarantees exactly that across
    numeric types (``hash(5) == hash(5.0) == hash(Decimal(5)) ==
    hash(Fraction(5))``) and — unlike string hashing — is *not*
    randomized per process, so it is used directly.  Tuples (composite
    keys) combine their elements' stable hashes recursively, so
    ``(1, 2) == (1.0, 2.0)`` co-locates too; frozensets combine
    commutatively (their repr order is not canonical).  Everything else
    goes through CRC-32 of its ``repr``, which is process-stable; equal
    keys of other kinds whose reprs differ (e.g. objects with the
    default id-based repr) are not supported for exact routing.
    """
    if isinstance(value, numbers.Number):
        if value != value:  # NaN: id-based hash since 3.10; pin it
            return 0x7FC00000
        return hash(value)  # repro-lint: disable=determinism
    if isinstance(value, tuple):
        combined = 0x345678
        for item in value:
            combined = ((combined * 1000003) ^ stable_hash(item)) & 0xFFFFFFFF
        return combined ^ len(value)
    if isinstance(value, frozenset):
        # Unordered: equal frozensets may repr in different element order,
        # so combine element hashes commutatively.
        combined = 0
        for item in value:
            combined ^= stable_hash(item)
        return combined ^ len(value)
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


@dataclass(frozen=True)
class MigrationSpec:
    """Everything a source shard needs to carve out migrating state.

    Travels parent → source worker on the rebalancing barrier.  The
    worker rebuilds the slot classifier locally from ``attr_by_stream``
    and ``num_slots`` (both mirror the parent's router, so worker-side
    slot computation agrees with routing exactly) and drains to
    ``beacon_ts`` — the parent's global arrival clock — before
    extraction, which is what keeps the handoff order-preserving.
    Built by :meth:`KeyRouter.migration_spec`, the one place that reads
    the router's side of it.
    """

    #: slot → destination shard, restricted to slots leaving one source.
    moves: Dict[int, int]
    #: Per-stream partition-key attribute names (router mirror).
    attr_by_stream: Tuple[Optional[str], ...]
    #: Slot-table size (router mirror).
    num_slots: int
    #: Global arrival clock at the barrier; the drain watermark base.
    beacon_ts: int
    #: Completeness-gate progress bound: the minimum over streams of the
    #: maximum timestamp routed so far
    #: (:attr:`KeyRouter.stream_progress_ts`).
    #: The barrier's forced synchronizer drain stops at this minus K: a
    #: stream can trail the others in timestamp (or be entirely silent)
    #: while internally in order, and only the completeness gate keeps
    #: such runs exact — under lossless K no future input of stream *s*
    #: sits below its progress minus K, so the floored drain provably
    #: never emits past what the gate could still be holding.
    drain_floor_ts: int = 0


class KeyRouter:
    """Routes each input tuple to one shard by equi-join key, or to all.

    ``attributes`` is the per-stream key assignment (``None`` when the
    condition is not hash-partitionable); :attr:`exact` tells callers
    whether sharded execution partitions the result space exactly.

    Exact routing goes through the virtual-slot table (module
    docstring): :attr:`slot_table` maps each of
    ``slots_per_shard × num_shards`` slots to a shard, and routing a
    tuple increments its slot's entry in :attr:`slot_loads` (the
    rebalancer's planning signal, decayed by it between plans), the
    owning shard's entry in :attr:`shard_loads` (cumulative, for
    imbalance reporting), and advances :attr:`watermark_ts` (the global
    arrival clock the migration barrier drains to) and
    :attr:`stream_progress_ts` (the per-stream progress that floors the
    barrier's forced drain).  Broadcast routing bypasses the table
    entirely — there is no key, hence no slot.
    """

    def __init__(
        self,
        condition: JoinCondition,
        num_streams: int,
        num_shards: int,
        slots_per_shard: int = DEFAULT_SLOTS_PER_SHARD,
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if slots_per_shard < 1:
            raise ValueError(
                f"slots_per_shard must be >= 1, got {slots_per_shard}"
            )
        self.num_shards = num_shards
        self.num_streams = num_streams
        self.attributes: Optional[Dict[int, str]] = condition.partition_attributes(
            num_streams
        )
        # Flat per-stream key-attribute lookup for the batched routing
        # path: indexing a tuple beats a dict probe per routed tuple.
        self._attr_by_stream: Optional[Tuple[Optional[str], ...]] = (
            None
            if self.attributes is None
            else tuple(self.attributes.get(s) for s in range(num_streams))
        )
        #: Number of virtual slots; a multiple of ``num_shards`` so the
        #: identity table reproduces direct modulo hashing exactly.
        self.num_slots = slots_per_shard * num_shards
        #: slot → shard.  Starts as ``slot % num_shards``; the
        #: rebalancer rewrites entries via :meth:`reassign`.
        self.slot_table: List[int] = [
            slot % num_shards for slot in range(self.num_slots)
        ]
        #: Routed tuples per slot since the rebalancer last decayed them.
        self.slot_loads: List[int] = [0] * self.num_slots
        #: Cumulative routed tuples per shard (imbalance reporting).
        self.shard_loads: List[int] = [0] * num_shards
        #: Max ``max(arrival, ts)`` over all routed tuples — the global
        #: arrival clock; the migration barrier's beacon.
        self.watermark_ts = 0
        #: Per-stream maximum routed timestamp.  ``min(stream_progress_ts)``
        #: is the completeness-gate progress bound: under lossless
        #: disorder handling (per-stream K covering realized delays) no
        #: future synchronizer input of stream *s* can carry a timestamp
        #: below ``stream_progress_ts[s] - K``, so the migration
        #: barrier's forced drain — floored at ``min(progress) - K`` —
        #: provably never emits past what any shard's completeness gate
        #: could still be holding (a silent or timestamp-trailing stream
        #: pins the floor down, exactly as it pins the gate).
        self.stream_progress_ts: List[int] = [0] * num_streams

    @property
    def exact(self) -> bool:
        """True when hash partitioning preserves the exact result space."""
        return self.attributes is not None

    def key_of(self, t: StreamTuple) -> object:
        """The tuple's partition-key value (requires :attr:`exact`)."""
        if self.attributes is None:
            raise ValueError("condition has no partition key; tuples broadcast")
        return t.get(self.attributes[t.stream])

    def slot_of(self, t: StreamTuple) -> int:
        """The tuple's virtual routing slot (requires :attr:`exact`)."""
        return stable_hash(self.key_of(t)) % self.num_slots

    def shard_of(self, t: StreamTuple) -> Optional[int]:
        """Target shard for ``t``, or ``None`` meaning broadcast.

        A missing key attribute reads as ``None`` and hashes like any
        other value — consistent with ``EquiPredicate``, where ``None``
        only matches ``None``, so all such tuples meet in one shard.
        Pure query: unlike :meth:`route_batch` it updates no load counters.
        """
        if self.attributes is None:
            return None
        return self.slot_table[self.slot_of(t)]

    def grow(self, count: int = 1) -> Dict[int, int]:
        """Admit ``count`` new shards; return the rebalancing moves.

        The slot count is *fixed* at construction — growing adds shards,
        not slots, so every existing key keeps its slot and only slot →
        shard entries change.  The returned moves rebalance ownership to
        an even split (each shard ends within one slot of
        ``num_slots / new_total``), taking the minimum number of slots
        from over-quota shards in slot order — deterministic, so two
        runs that grow at the same point migrate identically.

        Like :class:`~repro.parallel.rebalancer.Rebalancer` plans, the
        moves are **not** applied here: the caller must migrate the
        moved slots' state first and then :meth:`reassign`.  Requires
        :attr:`exact` routing (a broadcast condition has no slots to
        hand over, so every worker already holds full state and growing
        cannot partition it).
        """
        if count < 1:
            raise ValueError(f"grow count must be >= 1, got {count}")
        if self.attributes is None:
            raise ValueError(
                "condition has no partition key; broadcast routing cannot grow"
            )
        new_total = self.num_shards + count
        old_shards = self.num_shards
        self.num_shards = new_total
        self.shard_loads.extend([0] * count)
        quota, extra = divmod(self.num_slots, new_total)
        target = [quota + (1 if s < extra else 0) for s in range(new_total)]
        owned = [0] * new_total
        overflow: List[int] = []
        for slot, shard in enumerate(self.slot_table):
            if owned[shard] < target[shard]:
                owned[shard] += 1
            else:
                overflow.append(slot)
        moves: Dict[int, int] = {}
        dest = old_shards  # fill the new shards first
        for slot in overflow:
            while owned[dest] >= target[dest]:
                dest = (dest + 1) % new_total
            moves[slot] = dest
            owned[dest] += 1
        return moves

    def migration_spec(
        self, moves: Dict[int, int], barrier: bool = True
    ) -> MigrationSpec:
        """The extraction order for ``moves`` (slots leaving one shard;
        requires :attr:`exact` — broadcast routing has no slots).

        With ``barrier`` the source drains to the router's arrival clock
        first, floored at the slowest stream's progress — the live
        migration barrier.  Without it beacon and floor are 0: state
        that came out of a checkpoint was extracted without a drain, so
        re-extracting it must not advance any (monotone) disorder clock
        either — the zero barrier of
        :func:`~repro.parallel.shard.checkpoint_shard_state`.
        """
        return MigrationSpec(
            moves,
            self._attr_by_stream,
            self.num_slots,
            self.watermark_ts if barrier else 0,
            min(self.stream_progress_ts) if barrier else 0,
        )

    def reassign(self, moves: Dict[int, int]) -> None:
        """Apply a rebalancing plan: rewrite ``slot → shard`` entries.

        The caller (:class:`~repro.parallel.pipeline.PartitionedPipeline`)
        must have migrated the moved slots' shard state first — the
        router only changes where *future* tuples go.
        """
        for slot, shard in moves.items():
            if not 0 <= slot < self.num_slots:
                raise ValueError(f"slot {slot} outside [0, {self.num_slots})")
            if not 0 <= shard < self.num_shards:
                raise ValueError(
                    f"shard {shard} outside [0, {self.num_shards})"
                )
            self.slot_table[slot] = shard

    def route_batch(
        self, batch: Sequence[StreamTuple]
    ) -> Optional[List[List[StreamTuple]]]:
        """Partition a whole arrival batch into per-shard lists, one pass.

        Returns ``None`` for broadcast conditions (no partition key) —
        the caller feeds the batch to every shard unsliced.  The routing
        loop is the vectorized sibling of :meth:`shard_of`: per-stream
        key attributes are hoisted into a flat tuple, the per-shard
        ``append`` methods are pre-bound, and the dominant numeric-key
        case inlines the :func:`stable_hash` fast path (plain ``hash``,
        which ints can never reach the NaN branch of), so each tuple
        pays one dict probe, one hash, one modulo, one slot-table load
        and the counter updates — no per-tuple method dispatch.  Shard
        assignment is identical to :meth:`shard_of` for every tuple.
        """
        if self.attributes is None:
            return None
        per_shard: List[List[StreamTuple]] = [
            [] for _ in range(self.num_shards)
        ]
        appends = [shard_list.append for shard_list in per_shard]
        attr_of = self._attr_by_stream
        num_streams = self.num_streams
        num_slots = self.num_slots
        table = self.slot_table
        loads = self.slot_loads
        totals = self.shard_loads
        watermark = self.watermark_ts
        progress = self.stream_progress_ts
        _hash = stable_hash
        for t in batch:
            stream = t.stream
            if not 0 <= stream < num_streams:
                raise ValueError(
                    f"tuple stream index {stream} outside [0, {num_streams})"
                )
            value = t.values.get(attr_of[stream])
            if type(value) is int:
                # Int fast path: hash(int) is process-stable by design
                # (stable_hash's own numeric branch relies on it).
                slot = hash(value) % num_slots  # repro-lint: disable=determinism
            else:
                slot = _hash(value) % num_slots
            loads[slot] += 1
            shard = table[slot]
            totals[shard] += 1
            ts = t.ts
            arrival = t.arrival
            if arrival < ts:
                arrival = ts
            if arrival > watermark:
                watermark = arrival
            if ts > progress[stream]:
                progress[stream] = ts
            appends[shard](t)
        self.watermark_ts = watermark
        return per_shard
