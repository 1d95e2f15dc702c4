"""Columnar tuple-block codec for bulk tuple movement between processes.

The partitioned pipeline's scale-out ceiling is set by how cheaply a
routed batch crosses the parent→worker pipe.  Pickling N
:class:`~repro.core.tuples.StreamTuple` objects ships N object graphs:
per tuple a class reference, a state tuple, and a payload dict that
re-frames the same attribute names over and over.  This module packs a
whole batch into one flat *block* instead — shared-nothing stream joins
(Chakraborty's windowed-join cluster, runtime-optimized m-way operators)
get their scaling from exactly this kind of cheap bulk transport:

* :class:`TupleBlock` — parallel columns ``ts`` / ``stream`` / ``seq`` /
  ``arrival`` / ``delay`` plus one column per payload attribute.  One
  pipe message carries one small picklable object whose state is a
  handful of flat lists, not N nested graphs.
* :class:`ResultBlock` — the return path: a batch of
  :class:`~repro.core.tuples.JoinResult` objects as a ``ts`` column, a
  flat component-index array, and one :class:`TupleBlock` of the
  *distinct* component tuples (components repeat heavily across results;
  they are interned once and shared again after decode).
* :class:`StateBlock` — shard state on the move: the window +
  in-flight state of a set of routing slots, always encoded, whatever
  takes it out of a shard — the skew-aware router moving slots between
  shards (see :mod:`repro.parallel.rebalancer`), a checkpoint, a
  restore, or a dead shard's failover to the survivors.
* :class:`ColdSegment` — the tiered window store's cold-tier unit
  (see :mod:`repro.join.store`): one slot-ordered run of window tuples
  frozen into a :class:`TupleBlock`, carrying the slot ids, the time
  range, and per-attribute value summaries probes use to skip the
  segment without decoding.  Cold segments are *already encoded*, so a
  shard-state migration ships them inside the :class:`StateBlock`
  window leg verbatim — no decode/re-encode round trip.

Schema negotiation
------------------
Payload attribute names travel **once per (connection, attribute-set)**:
the :class:`BlockEncoder` interns each distinct attribute set, inlines
the names in the first block that uses it, and afterwards sends only the
small integer ``schema_id``; the :class:`BlockDecoder` on the other end
caches ``schema_id → names``.  Encoder and decoder are therefore a
stateful pair — one encoder must feed one decoder (the executor keeps
one pair per shard connection).

Tuples within one block may disagree on their attribute sets; absent
attributes are carried as the pickle-stable :data:`MISSING` sentinel and
dropped again on decode, so ``None`` payload values stay distinguishable
from absent attributes.
"""

from __future__ import annotations

import pickle
import zlib
from itertools import repeat
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
    cast,
)

from .tuples import JoinResult, StreamTuple

#: Pickle protocol for block messages (out-of-band-buffer capable;
#: available on every supported interpreter, 3.8+).
PICKLE_PROTOCOL = 5

#: One item of a state block's window leg once *decoded* — what
#: :func:`decode_state` returns and a pipeline adopts: a raw tuple, or a
#: still-frozen cold segment that the destination store installs
#: without decoding.
WindowStateItem = Union[StreamTuple, "ColdSegment"]

#: The window leg of a :class:`StateBlock`, kept in source slot (=
#: insertion) order: :class:`TupleBlock` runs (consecutive raw tuples
#: packed together) and :class:`ColdSegment` items (already encoded;
#: they ship verbatim).
WindowPayload = List[Union["TupleBlock", "ColdSegment"]]

#: Bare pickle-state tuples (kept positional — see the ``__getstate__``
#: comments); the aliases keep the mypy-strict signatures readable.
_TupleBlockState = Tuple[
    int,
    Optional[Tuple[str, ...]],
    bool,
    List[int],
    List[int],
    List[int],
    List[int],
    List[int],
    List[List[Any]],
]
_ResultBlockState = Tuple[int, List[int], List[int], "TupleBlock"]
_StateBlockState = Tuple[int, int, Tuple[int, ...], "WindowPayload", "TupleBlock"]
_ColdSegmentState = Tuple[
    "TupleBlock",
    Tuple[int, ...],
    int,
    int,
    Dict[str, FrozenSet[Any]],
    int,
]


class _MissingType:
    """Singleton marking an absent payload attribute inside a column.

    Distinct from ``None`` (a legal payload value) and pickle-stable:
    unpickling yields the same singleton, so decoders can test with
    ``is MISSING``.
    """

    __slots__ = ()
    _instance: Optional["_MissingType"] = None

    def __new__(cls) -> "_MissingType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self) -> Tuple[Type["_MissingType"], Tuple[()]]:
        return (_MissingType, ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MISSING"


MISSING = _MissingType()


class TupleBlock:
    """A batch of stream tuples in columnar form (see module docstring).

    ``attributes`` is the inlined schema (first block of its attribute
    set on a connection) or ``None`` when ``schema_id`` refers to a
    schema the receiving decoder has already cached.  ``columns`` holds
    one payload column per schema attribute, in schema order;
    ``has_missing`` tells the decoder whether any cell is the
    :data:`MISSING` sentinel (dense blocks skip the per-cell check).
    """

    __slots__ = (
        "schema_id",
        "attributes",
        "has_missing",
        "ts",
        "stream",
        "seq",
        "arrival",
        "delay",
        "columns",
    )

    def __init__(
        self,
        schema_id: int,
        attributes: Optional[Tuple[str, ...]],
        has_missing: bool,
        ts: List[int],
        stream: List[int],
        seq: List[int],
        arrival: List[int],
        delay: List[int],
        columns: List[List[Any]],
    ) -> None:
        self.schema_id = schema_id
        self.attributes = attributes
        self.has_missing = has_missing
        self.ts = ts
        self.stream = stream
        self.seq = seq
        self.arrival = arrival
        self.delay = delay
        self.columns = columns

    def __len__(self) -> int:
        return len(self.ts)

    # Bare state tuple: the block is the unit of IPC, so its own pickle
    # framing is kept as small as the tuples' (cf. StreamTuple).
    def __getstate__(self) -> _TupleBlockState:
        return (
            self.schema_id,
            self.attributes,
            self.has_missing,
            self.ts,
            self.stream,
            self.seq,
            self.arrival,
            self.delay,
            self.columns,
        )

    def __setstate__(self, state: _TupleBlockState) -> None:
        (
            self.schema_id,
            self.attributes,
            self.has_missing,
            self.ts,
            self.stream,
            self.seq,
            self.arrival,
            self.delay,
            self.columns,
        ) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TupleBlock(n={len(self.ts)}, schema={self.schema_id}, "
            f"attrs={self.attributes})"
        )


class ResultBlock:
    """A batch of join results: ts column + component indexes + one
    :class:`TupleBlock` of the distinct component tuples.

    ``component_indexes`` is flat, ``arity`` entries per result, indexing
    into the decoded component list — decoding restores the sharing of
    component tuples across results instead of duplicating them.
    """

    __slots__ = ("arity", "ts", "component_indexes", "components")

    def __init__(
        self,
        arity: int,
        ts: List[int],
        component_indexes: List[int],
        components: TupleBlock,
    ) -> None:
        self.arity = arity
        self.ts = ts
        self.component_indexes = component_indexes
        self.components = components

    def __len__(self) -> int:
        return len(self.ts)

    def __getstate__(self) -> _ResultBlockState:
        return (self.arity, self.ts, self.component_indexes, self.components)

    def __setstate__(self, state: _ResultBlockState) -> None:
        self.arity, self.ts, self.component_indexes, self.components = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultBlock(n={len(self.ts)}, arity={self.arity}, "
            f"distinct_components={len(self.components)})"
        )


class StateBlock:
    """Window + in-flight state of a set of routing slots, one hop.

    The third block message (alongside :class:`TupleBlock` and
    :class:`ResultBlock`): when the partitioned engine's rebalancer moves
    virtual routing slots between shards, the source shard's state for
    those slots crosses the parent twice — source worker → parent →
    destination worker — as one ``StateBlock`` per destination.  A
    checkpoint is the same block with source = destination and every
    slot in it.

    A state block is **always encoded** — the one portable form of shard
    state, whatever moves it (rebalance / grow / shrink, checkpoint,
    restore, failover) and whichever executor carries it (the serial
    executor hands over the same blocks a worker ships).  ``window``
    carries the state removed from the source's join windows as a
    :data:`WindowPayload` — slot-ordered :class:`TupleBlock` runs and
    already-frozen :class:`ColdSegment` objects from a tiered store's
    cold tier (re-adopting the items in sequence reproduces probe
    candidate order); ``pending`` carries the tuples still in flight in
    the source's disorder-handling front as one :class:`TupleBlock`.
    Unlike the steady-state tuple stream, state blocks are rare one-shot
    messages, so each is self-contained: :func:`encode_state` uses fresh
    encoders whose schemas travel inline, and :func:`decode_state` pairs
    them with fresh decoders — no connection-level schema negotiation.
    """

    __slots__ = ("source", "dest", "slots", "window", "pending")

    def __init__(
        self,
        source: int,
        dest: int,
        slots: Tuple[int, ...],
        window: WindowPayload,
        pending: TupleBlock,
    ) -> None:
        self.source = source
        self.dest = dest
        self.slots = slots
        self.window = window
        self.pending = pending

    def __getstate__(self) -> _StateBlockState:
        return (self.source, self.dest, self.slots, self.window, self.pending)

    def __setstate__(self, state: _StateBlockState) -> None:
        self.source, self.dest, self.slots, self.window, self.pending = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateBlock({self.source}->{self.dest}, slots={self.slots}, "
            f"window={len(self.window)}, pending={len(self.pending)})"
        )


class ColdSegment:
    """A frozen cold-tier window segment (see :mod:`repro.join.store`).

    One slot-ordered run of a single stream's window tuples in columnar
    form.  ``slots`` are the owning store's slot ids (strictly
    increasing within the segment); ``min_ts`` / ``max_ts`` bound the
    contained timestamps, so expiry can drop or thaw a segment without
    decoding; ``summaries`` maps each indexed attribute to the frozenset
    of its distinct values, so an equality probe skips the segment when
    the probed value cannot match; ``encoded_bytes`` is the segment's
    pickled size, the cold tier's memory-accounting unit.

    The block inside is self-contained (fresh encoder, schema inline),
    so a segment can cross a process boundary verbatim — the tier-aware
    migration path ships cold state this way, with no decode/re-encode
    round trip.
    """

    __slots__ = ("block", "slots", "min_ts", "max_ts", "summaries", "encoded_bytes")

    def __init__(
        self,
        block: TupleBlock,
        slots: Tuple[int, ...],
        min_ts: int,
        max_ts: int,
        summaries: Dict[str, FrozenSet[Any]],
        encoded_bytes: int,
    ) -> None:
        self.block = block
        self.slots = slots
        self.min_ts = min_ts
        self.max_ts = max_ts
        self.summaries = summaries
        self.encoded_bytes = encoded_bytes

    def __len__(self) -> int:
        return len(self.slots)

    def stream(self) -> int:
        """The owning stream (segments are single-stream by construction)."""
        return self.block.stream[0]

    def with_slots(self, slots: Tuple[int, ...]) -> "ColdSegment":
        """The same frozen content under new (destination) slot ids."""
        return ColdSegment(
            self.block, slots, self.min_ts, self.max_ts,
            self.summaries, self.encoded_bytes,
        )

    def __getstate__(self) -> _ColdSegmentState:
        return (
            self.block,
            self.slots,
            self.min_ts,
            self.max_ts,
            self.summaries,
            self.encoded_bytes,
        )

    def __setstate__(self, state: _ColdSegmentState) -> None:
        (
            self.block,
            self.slots,
            self.min_ts,
            self.max_ts,
            self.summaries,
            self.encoded_bytes,
        ) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColdSegment(n={len(self.slots)}, ts=[{self.min_ts},{self.max_ts}], "
            f"bytes={self.encoded_bytes})"
        )


def freeze_segment(
    batch: Sequence[StreamTuple],
    slots: Sequence[int],
    summary_attributes: Sequence[str],
) -> ColdSegment:
    """Freeze a slot-ordered run of window tuples into a cold segment.

    The entire tuple payload travels through :meth:`BlockEncoder.encode`
    — the single cold-tier encode path — so every
    :class:`~repro.core.tuples.StreamTuple` slot the codec covers is
    covered here too (the repro-lint ``codec-coverage`` rule pins this
    delegation).  ``summary_attributes`` are the store's indexed
    attributes; their distinct values become the probe-skip summaries.
    """
    if not batch:
        raise ValueError("cannot freeze an empty segment")
    if len(batch) != len(slots):
        raise ValueError(f"{len(batch)} tuples but {len(slots)} slots")
    block = BlockEncoder().encode(batch)
    summaries: Dict[str, FrozenSet[Any]] = {
        attr: frozenset(t.get(attr) for t in batch) for attr in summary_attributes
    }
    encoded_bytes = len(pickle.dumps(block, PICKLE_PROTOCOL))
    return ColdSegment(
        block, tuple(slots), min(block.ts), max(block.ts), summaries, encoded_bytes
    )


def thaw_segment(segment: ColdSegment) -> List[StreamTuple]:
    """Decode a cold segment back into tuples (segment slot order)."""
    return BlockDecoder().decode(segment.block)


def segment_column(segment: ColdSegment, attr: str) -> List[Any]:
    """Per-tuple payload values of ``attr`` without decoding the segment.

    Absent cells (attribute missing from a tuple's payload) come back as
    ``None`` — exactly what ``t.values.get(attr)`` would have produced —
    so migration classifiers can partition a frozen segment by reading
    one column instead of materializing tuple objects.
    """
    block = segment.block
    attrs = block.attributes  # always inline: segments use fresh encoders
    if attrs is None or attr not in attrs:
        return [None] * len(block)
    column = block.columns[attrs.index(attr)]
    if block.has_missing:
        return [None if v is MISSING else v for v in column]
    return list(column)


def encode_state(
    source: int,
    dest: int,
    slots: Tuple[int, ...],
    window: Sequence[WindowStateItem],
    pending: Sequence[StreamTuple],
) -> StateBlock:
    """Pack extracted shard state into its portable form (see
    :class:`StateBlock`) — the only constructor of state blocks.

    Runs of consecutive raw tuples in the window leg are packed into
    :class:`TupleBlock` columns (one shared encoder, schemas inline on
    first use); :class:`ColdSegment` items are already encoded and pass
    through untouched — the tier-aware half of the migration path.
    """
    encoder = BlockEncoder()
    packed: WindowPayload = []
    run: List[StreamTuple] = []
    for item in window:
        if isinstance(item, ColdSegment):
            if run:
                packed.append(encoder.encode(run))
                run = []
            packed.append(item)
        else:
            run.append(item)
    if run:
        packed.append(encoder.encode(run))
    return StateBlock(source, dest, slots, packed, BlockEncoder().encode(pending))


def decode_state(
    block: StateBlock,
) -> Tuple[List[WindowStateItem], List[StreamTuple]]:
    """Unpack a columnar :class:`StateBlock` into ``(window, pending)``.

    Window-leg :class:`TupleBlock` runs decode back into raw tuples
    (one decoder across the runs, pairing the encoder's schema
    negotiation); :class:`ColdSegment` items stay frozen — the adopting
    store installs them without a decode.
    """
    decoder = BlockDecoder()
    window: List[WindowStateItem] = []
    for item in block.window:
        if isinstance(item, TupleBlock):
            window.extend(decoder.decode(item))
        else:
            window.append(item)
    return window, BlockDecoder().decode(block.pending)


class BlockEncoder:
    """Stateful encoder end of a connection (see module docstring)."""

    __slots__ = ("_schemas",)

    def __init__(self) -> None:
        # attribute-set → (schema_id, canonical attribute order).  The
        # first block of a set fixes the column order for every later
        # block of that set, so decoders index columns consistently.
        self._schemas: Dict[FrozenSet[str], Tuple[int, Tuple[str, ...]]] = {}

    def encode(
        self,
        batch: Sequence[StreamTuple],
        start: int = 0,
        stop: Optional[int] = None,
    ) -> TupleBlock:
        """Pack ``batch[start:stop]`` into one block — without slicing.

        The index window keeps large pending buffers drain-able in
        ``batch_size`` chunks with zero intermediate list copies.
        """
        if stop is None:
            stop = len(batch)
        ts_col: List[int] = []
        stream_col: List[int] = []
        seq_col: List[int] = []
        arrival_col: List[int] = []
        delay_col: List[int] = []
        payloads: List[Dict[str, Any]] = []
        for i in range(start, stop):
            t = batch[i]
            ts_col.append(t.ts)
            stream_col.append(t.stream)
            seq_col.append(t.seq)
            arrival_col.append(t.arrival)
            delay_col.append(t.delay)
            payloads.append(t.values)

        if payloads:
            first_keys = payloads[0].keys()
            uniform = all(v.keys() == first_keys for v in payloads)
        else:
            uniform = True
        if uniform and payloads:
            attr_set = frozenset(first_keys)
            natural: Tuple[str, ...] = tuple(first_keys)
        elif payloads:
            union: Dict[str, None] = {}
            for values in payloads:
                for name in values:
                    if name not in union:
                        union[name] = None
            attr_set = frozenset(union)
            natural = tuple(union)
        else:
            attr_set = frozenset()
            natural = ()

        entry = self._schemas.get(attr_set)
        if entry is None:
            schema_id = len(self._schemas)
            self._schemas[attr_set] = (schema_id, natural)
            attrs, inline = natural, natural
        else:
            schema_id, attrs = entry
            inline = None

        columns: List[List[Any]]
        if uniform and attrs == natural:
            columns = [[v[a] for v in payloads] for a in attrs]
            has_missing = False
        else:
            # Mixed attribute sets (or a schema whose canonical order was
            # fixed by an earlier block): absent cells carry MISSING.
            columns = [[v.get(a, MISSING) for v in payloads] for a in attrs]
            has_missing = not uniform
        return TupleBlock(
            schema_id,
            inline,
            has_missing,
            ts_col,
            stream_col,
            seq_col,
            arrival_col,
            delay_col,
            columns,
        )

    def encode_results(self, results: Sequence[JoinResult]) -> ResultBlock:
        """Pack join results, interning each distinct component tuple
        once: a :class:`ResultAccumulator` fed a single batch."""
        accumulator = ResultAccumulator()
        accumulator.extend(results)
        return accumulator.block(self)


class ResultAccumulator:
    """A :class:`ResultBlock` under construction, fed batch by batch.

    What a shard worker keeps instead of its results: each batch's
    :class:`~repro.core.tuples.JoinResult` objects are taken apart into
    the block's columns at once and die with the batch that made them.
    Components are deduplicated by object identity — exactly the sharing
    the operator created (one window tuple appears in many results),
    which is also what pickle's memo would discover, minus the
    per-object graph walk — and numbered by first appearance, so the
    block does not depend on how the results were cut into batches.
    """

    __slots__ = ("_arity", "_ts", "_flat", "_distinct", "_index_of")

    def __init__(self) -> None:
        self._arity = 0
        self._ts: List[int] = []
        self._flat: List[int] = []
        # Holding the interned components keeps every ``id()`` in
        # ``_index_of`` valid for the accumulator's lifetime.
        self._distinct: List[StreamTuple] = []
        self._index_of: Dict[int, int] = {}

    def extend(self, results: Sequence[JoinResult]) -> None:
        if not results:
            return
        self._arity = len(results[0].components)
        ts_append = self._ts.append
        flat_append = self._flat.append
        distinct = self._distinct
        index_of = self._index_of
        for result in results:
            ts_append(result.ts)
            for component in result.components:
                key = id(component)
                idx = index_of.get(key)
                if idx is None:
                    idx = index_of[key] = len(distinct)
                    distinct.append(component)
                flat_append(idx)

    def block(self, encoder: BlockEncoder) -> ResultBlock:
        """Everything fed so far as one block (which takes the columns:
        feed a fresh accumulator afterwards, not this one)."""
        return ResultBlock(
            self._arity, self._ts, self._flat, encoder.encode(self._distinct)
        )


class BlockDecoder:
    """Stateful decoder end of a connection (see module docstring)."""

    __slots__ = ("_schemas",)

    def __init__(self) -> None:
        self._schemas: Dict[int, Tuple[str, ...]] = {}

    def decode(self, block: TupleBlock) -> List[StreamTuple]:
        """Unpack a block back into :class:`StreamTuple` objects.

        Preserves everything the transport carries: payload (``None``
        values kept, :data:`MISSING` cells dropped), ``delay`` and
        ``arrival`` annotations included.
        """
        attrs = block.attributes
        if attrs is not None:
            self._schemas[block.schema_id] = attrs
        else:
            try:
                attrs = self._schemas[block.schema_id]
            except KeyError:
                raise ValueError(
                    f"block references unknown schema {block.schema_id}; "
                    "encoder and decoder must form one connection pair"
                ) from None
        restore = StreamTuple.restore
        if not attrs:
            return [
                restore(ts, {}, stream, seq, arrival, delay)
                for ts, stream, seq, arrival, delay in zip(
                    block.ts, block.stream, block.seq, block.arrival, block.delay
                )
            ]
        rows = zip(
            block.ts, block.stream, block.seq, block.arrival, block.delay,
            *block.columns,
        )
        if block.has_missing:
            return [
                restore(
                    row[0],
                    {
                        a: v
                        for a, v in zip(attrs, row[5:])
                        if v is not MISSING
                    },
                    row[1],
                    row[2],
                    row[3],
                    row[4],
                )
                for row in rows
            ]
        return [
            restore(row[0], dict(zip(attrs, row[5:])), row[1], row[2], row[3], row[4])
            for row in rows
        ]

    def decode_results(self, block: ResultBlock) -> List[JoinResult]:
        """Unpack a result block, re-sharing decoded component tuples.

        Results are rebuilt column by column in C, so the block's shape
        is checked up front — a ``zip`` would silently truncate what a
        short index array leaves incomplete: ``ValueError`` unless
        ``component_indexes`` holds exactly ``arity`` entries per
        timestamp, each inside the component block.
        """
        components = self.decode(block.components)
        arity = block.arity
        flat = block.component_indexes
        if len(flat) != arity * len(block.ts):
            raise ValueError(
                f"result block of {len(block.ts)} results x arity {arity} "
                f"carries {len(flat)} component indexes"
            )
        if flat and (min(flat) < 0 or max(flat) >= len(components)):
            raise ValueError(
                f"result block indexes [{min(flat)}, {max(flat)}] reach outside "
                f"its {len(components)} components"
            )
        pick = components.__getitem__
        rows: Iterable[Tuple[StreamTuple, ...]] = (
            zip(*(map(pick, flat[j::arity]) for j in range(arity)))
            if arity
            else repeat(())
        )
        return list(map(JoinResult, block.ts, rows))


_CheckpointFrameState = Tuple[int, int, int, bytes, int]


class CheckpointIntegrityError(ValueError):
    """A checkpoint frame failed its CRC check and must be rejected."""


class CheckpointFrame:
    """One shard checkpoint: a pickled :class:`StateBlock` plus a CRC.

    The supervised executor's recovery unit (see
    :mod:`repro.parallel.supervision`).  The worker pickles its full
    shard state — the same :class:`StateBlock` shape the migration
    barrier ships — *immediately* at capture time, so the frame is a
    true snapshot: later mutation of the live window store cannot leak
    into a frame already held by the parent.  ``crc`` (CRC-32 of the
    payload) lets the parent reject a frame corrupted in flight or by a
    misbehaving worker before it ever becomes the recovery point;
    ``epoch`` and ``seq`` identify which worker incarnation produced it
    and how many batches it covers (batches ``1..seq`` of that shard,
    by pipe ordering).
    """

    __slots__ = ("shard", "epoch", "seq", "payload", "crc")

    def __init__(
        self, shard: int, epoch: int, seq: int, payload: bytes, crc: int
    ) -> None:
        self.shard = shard
        self.epoch = epoch
        self.seq = seq
        self.payload = payload
        self.crc = crc

    def __getstate__(self) -> _CheckpointFrameState:
        return (self.shard, self.epoch, self.seq, self.payload, self.crc)

    def __setstate__(self, state: _CheckpointFrameState) -> None:
        self.shard, self.epoch, self.seq, self.payload, self.crc = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CheckpointFrame(shard={self.shard}, epoch={self.epoch}, "
            f"seq={self.seq}, {len(self.payload)}B)"
        )


def frame_checkpoint(
    shard: int, epoch: int, seq: int, state: StateBlock
) -> CheckpointFrame:
    """Freeze ``state`` into an integrity-checked checkpoint frame."""
    payload = pickle.dumps(state, protocol=PICKLE_PROTOCOL)
    return CheckpointFrame(shard, epoch, seq, payload, zlib.crc32(payload))


def unframe_checkpoint(frame: CheckpointFrame) -> StateBlock:
    """Verify and unpickle a checkpoint frame's :class:`StateBlock`.

    Raises :class:`CheckpointIntegrityError` on CRC mismatch — callers
    must treat the whole checkpoint record as never having existed.
    """
    verify_checkpoint(frame)
    return cast(StateBlock, pickle.loads(frame.payload))


def verify_checkpoint(frame: CheckpointFrame) -> None:
    """CRC-check a frame without paying for the unpickle."""
    actual = zlib.crc32(frame.payload)
    if actual != frame.crc:
        raise CheckpointIntegrityError(
            f"checkpoint frame for shard {frame.shard} "
            f"(epoch {frame.epoch}, seq {frame.seq}) fails CRC: "
            f"stored {frame.crc:#010x}, computed {actual:#010x}"
        )
