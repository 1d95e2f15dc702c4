"""One measured pass of one workload, and what is read off it.

A *pass* is: set up (generate the dataset through ``repro.streams``,
build the engine, fork workers), replay every arrival chunk by chunk as
fast as the engine accepts it, ``flush()``.  Each driver call is timed on
its own; between calls the calibration kernel is sliced in (never inside
a timed call) so every wall-clock figure can be put at reference speed —
see ``calibrate.py``.  The traced variant wraps the live engine's layer
methods first (``tracing.py``) and is never mixed into end-to-end numbers.
"""

from __future__ import annotations

import gc
import pickle
import resource
import socket
import statistics
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import calibrate
import reference
import workloads
from tracing import Tracer, instrument_partitioned, instrument_pipeline
from workloads import Workload

from repro import BlockDecoder, BlockEncoder, RecallMeter, ShmRing, StreamTuple, TruthIndex
from repro.core.blocks import freeze_segment, thaw_segment
from repro.distributed.runtime import SocketConnection

#: Engine seconds between two calibration slices (single-process runs).
SLICE_EVERY_S = 0.05
#: Slices before the first chunk and after flush when slicing between
#: chunks would measure the workers' load instead of the box (sharded).
BLOCK_SLICES = 25
#: Slices around each set-up.
SETUP_SLICES = 3
RESULTS_PER_BLOCK = 4_096
SEGMENT_TUPLES = 64


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def _mean_slices(count: int) -> float:
    return statistics.fmean(calibrate.slice_once() for _ in range(count))


def rss_mib(children: bool) -> float:
    """Peak resident set of this process (plus the largest reaped child)."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kib / 1024.0


@dataclass
class Setup:
    """One timed set-up: everything up to the first fed tuple."""

    seed: int
    arrivals: List[StreamTuple]
    chunks: List[Sequence[StreamTuple]]
    engine: object
    generate_s: float
    construct_s: float
    slice_s: float
    produced: Dict[int, int]
    on_t: List[int]

    @property
    def setup_ref_s(self) -> float:
        return calibrate.to_reference(self.generate_s + self.construct_s, self.slice_s)


def set_up(workload: Workload, seed: int, scale: float, executor: str = "process") -> Setup:
    produced: Dict[int, int] = {}
    on_t: List[int] = []

    def on_results(ts: int, count: int) -> None:
        produced[ts] = produced.get(ts, 0) + count

    def on_adaptation(pipeline, _boundary_ms: int) -> None:
        # γ(P) is anchored at the join's output progress; the samples are
        # replayed against the oracle's counts after the run.
        on_t.append(pipeline.join.on_t)

    before = _mean_slices(SETUP_SLICES)
    start = perf_counter()
    dataset = workload.dataset(seed, scale)
    arrivals = list(dataset.arrivals())
    chunks = workloads.chunked(arrivals)
    generated = perf_counter()
    engine = workloads.make_engine(
        workload,
        dataset,
        executor=executor,
        on_adaptation=on_adaptation if workload.adaptive else None,
        on_results=on_results,
    )
    built = perf_counter()
    after = _mean_slices(SETUP_SLICES)
    return Setup(
        seed=seed,
        arrivals=arrivals,
        chunks=chunks,
        engine=engine,
        generate_s=generated - start,
        construct_s=built - generated,
        slice_s=(before + after) / 2,
        produced=produced,
        on_t=on_t,
    )


def discard(workload: Workload, setup: Setup) -> None:
    """Release an engine that will not be run (extra set-up samples)."""
    if workload.sharded:
        setup.engine.close()  # type: ignore[attr-defined]


@dataclass
class Pass:
    """Everything one pass measured."""

    setup: Setup
    tuples: int
    chunk_s: List[float] = field(default_factory=list)
    #: Per chunk, the mean of the calibration slices around it.
    chunk_slice_s: List[float] = field(default_factory=list)
    flush_s: float = 0.0
    flush_slice_s: float = 0.0
    calls: int = 0
    failed: int = 0
    error: str = ""
    result_count: int = 0
    checksum: Optional[int] = None
    results: Optional[list] = None
    rss_mib: float = 0.0
    avg_k_ms: float = 0.0
    buffer_wait_ms: float = 0.0
    tracer: Optional[Tracer] = None
    counters: Dict[str, float] = field(default_factory=dict)
    routed: List[Tuple[int, Sequence[StreamTuple]]] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.chunk_s) + self.flush_s

    @property
    def chunk_ref_ms(self) -> List[float]:
        return [
            1000.0 * calibrate.to_reference(seconds, slice_s)
            for seconds, slice_s in zip(self.chunk_s, self.chunk_slice_s)
        ]

    @property
    def wall_ref_s(self) -> float:
        return sum(self.chunk_ref_ms) / 1000.0 + calibrate.to_reference(
            self.flush_s, self.flush_slice_s
        )

    @property
    def speed(self) -> float:
        """Box speed over this pass relative to the reference (1 = equal)."""
        return self.wall_ref_s / self.wall_s


def run_pass(
    workload: Workload,
    seed: int,
    scale: float,
    traced: bool = False,
    executor: str = "process",
    keep_results: bool = False,
) -> Pass:
    """Set up, replay, flush; never raises for an engine failure."""
    setup = set_up(workload, seed, scale, executor)
    engine = setup.engine
    tracer = Tracer() if traced else None
    outcome = Pass(setup=setup, tuples=len(setup.arrivals), tracer=tracer)
    # The pipelines whose layers can be seen from this process.
    if not workload.sharded:
        visible = [engine]
    elif executor == "serial":
        visible = list(engine.executor.pipelines)
    else:
        visible = []
    feed = engine.process if workload.per_tuple else engine.process_batch
    flush = engine.flush
    if tracer is not None:
        _instrument(tracer, workload, engine, visible, outcome)
        top = "parallel.pipeline" if workload.sharded else "core.pipeline"
        feed = tracer.traced(feed, top)
        flush = tracer.traced(flush, top + ".flush")

    interleave = not workload.sharded
    chunk_s = outcome.chunk_s
    segment_of_chunk: List[int] = []
    slices: List[float] = []
    count = 0
    results: list = []
    collect = workload.sharded
    peak_kslack = peak_sync = 0
    gc.collect()
    try:
        try:
            slices.append(_mean_slices(1 if interleave else BLOCK_SLICES))
            since_slice = 0.0
            for index, chunk in enumerate(setup.chunks):
                if interleave and since_slice >= SLICE_EVERY_S:
                    slices.append(calibrate.slice_once())
                    since_slice = 0.0
                segment_of_chunk.append(len(slices) - 1)
                if workload.per_tuple:
                    start = perf_counter()
                    for t in chunk:
                        count += feed(t)
                    elapsed = perf_counter() - start
                else:
                    start = perf_counter()
                    out = feed(chunk)
                    elapsed = perf_counter() - start
                    if collect:
                        results.extend(out)
                    else:
                        count += out
                chunk_s.append(elapsed)
                since_slice += elapsed
                outcome.calls += 1
                if tracer is not None:
                    tracer.end_chunk(index)
                    peak_kslack = max(
                        peak_kslack, sum(k.buffered for p in visible for k in p.kslacks)
                    )
                    peak_sync = max(peak_sync, sum(p.synchronizer.buffered for p in visible))
            outcome.calls += 1
            start = perf_counter()
            out = flush()
            outcome.flush_s = perf_counter() - start
            if collect:
                results.extend(out)
            else:
                count += out
            if tracer is not None:
                tracer.end_chunk(len(setup.chunks))
        except Exception as exc:  # the engine failed: the run is reported, not the traceback
            outcome.failed += 1
            outcome.error = f"{type(exc).__name__}: {exc}"
            return outcome
        finally:
            if workload.sharded:
                engine.close()
        outcome.rss_mib = rss_mib(children=workload.sharded and executor == "process")
        slices.append(_mean_slices(1 if interleave else BLOCK_SLICES))
    finally:
        if tracer is not None:
            tracer.remove()

    # A chunk is normalized by the slices on both sides of its segment.
    around = [(slices[i] + slices[i + 1]) / 2 for i in range(len(slices) - 1)]
    outcome.chunk_slice_s = [around[segment] for segment in segment_of_chunk]
    outcome.flush_slice_s = around[-1]
    metrics = engine.metrics
    end_time = None if workload.sharded else engine.app_time_ms()
    outcome.avg_k_ms = metrics.average_k_ms(end_time)
    outcome.buffer_wait_ms = metrics.average_latency_ms()
    if collect:
        outcome.result_count = len(results)
        outcome.checksum = reference.MASK & sum(
            reference.result_digest(r.ts, [c.seq for c in r.components]) for r in results
        )
        if keep_results:
            outcome.results = results
    else:
        outcome.result_count = count
    if tracer is not None:
        outcome.counters["core.kslack.peak_buffered"] = peak_kslack
        outcome.counters["core.synchronizer.peak_buffered"] = peak_sync
        _read_engine_counters(workload, engine, visible, metrics, outcome)
    return outcome


def _instrument(tracer: Tracer, workload: Workload, engine, visible: list, outcome: Pass) -> None:
    if workload.sharded:
        instrument_partitioned(tracer, engine, outcome.routed)
    for shard, pipeline in enumerate(visible):
        instrument_pipeline(tracer, pipeline, outcome.counters)
        if workload.sharded:
            tracer.wrap(pipeline, "process_batch", f"core.pipeline.shard{shard}")
            tracer.wrap(pipeline, "flush", f"core.pipeline.shard{shard}")


def _read_engine_counters(
    workload: Workload, engine, visible: list, metrics, outcome: Pass
) -> None:
    """Counts the engine already keeps, read once at the end of the run."""
    counters = outcome.counters
    stats = engine.join_statistics() if workload.sharded else engine.join.stats.as_dict()
    counters["join.mswj.probes"] = stats["probes"]
    counters["join.mswj.results"] = stats["results_produced"]
    counters["join.mswj.out_of_order_kept"] = stats["tuples_out_of_order_kept"]
    counters["join.mswj.dropped"] = stats["tuples_dropped"]
    stores = [s for p in visible for s in p.store_metrics()]
    counters["join.store.freezes"] = sum(s.freezes for s in stores)
    counters["join.store.thaws"] = sum(s.thaws for s in stores)
    counters["join.store.peak_resident"] = sum(metrics.stream_resident_objects)
    counters["join.store.peak_encoded_bytes"] = sum(metrics.stream_encoded_bytes)
    counters["join.store.decode_hits"] = metrics.decode_hits
    counters["join.store.decode_misses"] = metrics.decode_misses
    counters["core.adaptation.k_changes"] = len(metrics.k_history) - 1
    per_shard = [0] * workloads.SHARDS
    for shard, batch in outcome.routed:
        per_shard[shard] += len(batch)
    counters["parallel.router.imbalance"] = (
        max(per_shard) * len(per_shard) / sum(per_shard) if outcome.routed else 0.0
    )


# ----------------------------------------------------------------------
# verification against the independent oracle
# ----------------------------------------------------------------------


@dataclass
class Truth:
    """The oracle's answer for one input."""

    ts_counts: List[Tuple[int, int]]
    total: int
    checksum: Optional[int] = None


def compute_truth(
    workload: Workload, arrivals: Sequence[StreamTuple], window_ms: Optional[int] = None
) -> Truth:
    """``window_ms`` overrides the workload's window — the self-check feeds
    a window one millisecond short and expects the run to be refused."""
    window = workload.window_ms if window_ms is None else window_ms
    ts_counts = workloads.oracle_counts(workload, arrivals, window)
    truth = Truth(ts_counts, reference.total_count(ts_counts))
    if workload.sharded:
        count, truth.checksum = reference.equi_chain_checksum(
            workloads.oracle_rows(workload, arrivals), workload.num_streams, window
        )
        if count != truth.total:
            raise AssertionError("oracle disagrees with itself: sweep vs enumeration")
    return truth


def verify(workload: Workload, outcome: Pass, truth: Truth) -> str:
    """'' when the pass's output is right, else what is wrong with it."""
    if outcome.failed:
        return outcome.error
    if workload.adaptive:
        # Lossy disorder handling may miss results, never invent them.
        true_at = dict(truth.ts_counts)
        for ts, count in outcome.setup.produced.items():
            if count > true_at.get(ts, 0):
                return f"{count} results at ts {ts}, oracle has {true_at.get(ts, 0)}"
        return ""
    if outcome.result_count != truth.total:
        return f"{outcome.result_count} results, oracle has {truth.total}"
    if workload.sharded:
        if outcome.checksum != truth.checksum:
            return f"result checksum {outcome.checksum:#x}, oracle has {truth.checksum:#x}"
    elif outcome.setup.produced != dict(truth.ts_counts):
        return "per-timestamp result counts differ from the oracle"
    return ""


def recall_fulfilled(workload: Workload, outcome: Pass, truth: Truth) -> float:
    """Share of measurement periods with γ(P) >= Γ, on the oracle's counts."""
    if not workload.adaptive:
        return 1.0
    meter = RecallMeter(TruthIndex(truth.ts_counts), workloads.PERIOD_MS)
    for ts in sorted(outcome.setup.produced):
        meter.record_produced(ts, outcome.setup.produced[ts])
    for on_t in outcome.setup.on_t:
        meter.measure(on_t)
    return meter.fulfillment(workloads.GAMMA)


# ----------------------------------------------------------------------
# codec / transport micro-drive (over the run's real batches)
# ----------------------------------------------------------------------


def _timed_us(function, items: Sequence, units: int) -> float:
    start = perf_counter()
    for item in items:
        function(item)
    return 1e6 * (perf_counter() - start) / max(1, units)


def codec_micro_drive(
    batches: Sequence[Sequence[StreamTuple]], results: Sequence
) -> Dict[str, float]:
    """Block codec and frame transports over real routed batches/results."""
    out: Dict[str, float] = {}
    tuples = sum(len(batch) for batch in batches)
    encoder, decoder = BlockEncoder(), BlockDecoder()
    blocks: list = []
    out["core.blocks.encode_us_per_tuple"] = _timed_us(
        lambda batch: blocks.append(encoder.encode(batch)), batches, tuples
    )
    frames = [pickle.dumps(block, protocol=5) for block in blocks]
    out["core.blocks.bytes_per_tuple"] = sum(map(len, frames)) / max(1, tuples)
    out["core.blocks.decode_us_per_tuple"] = _timed_us(decoder.decode, blocks, tuples)

    if results:  # count-only runs have no result objects to encode
        groups = [
            results[i : i + RESULTS_PER_BLOCK]
            for i in range(0, len(results), RESULTS_PER_BLOCK)
        ]
        result_blocks: list = []
        out["core.blocks.encode_results_us_per_result"] = _timed_us(
            lambda group: result_blocks.append(encoder.encode_results(group)),
            groups,
            len(results),
        )
        out["core.blocks.bytes_per_result"] = sum(
            len(pickle.dumps(block, protocol=5)) for block in result_blocks
        ) / len(results)
        out["core.blocks.decode_results_us_per_result"] = _timed_us(
            decoder.decode_results, result_blocks, len(results)
        )

    ring = ShmRing.create()
    try:
        def through_ring(frame: bytes) -> None:
            ring.read_frame(ring.write_frame(frame))

        out["parallel.shm.frame_us"] = _timed_us(through_ring, frames, len(frames))
    finally:
        ring.close()
        ring.unlink()
        # shared_memory started the interpreter's resource tracker; it
        # would otherwise outlive this process by a moment, and a
        # benchmark run waits for every process it started.
        resource_tracker._resource_tracker._stop()
    left, right = socket.socketpair()
    sender, receiver = SocketConnection(left), SocketConnection(right)
    try:
        def through_socket(frame: bytes) -> None:
            sender.send_frame(frame)
            receiver.recv_bytes()

        out["distributed.runtime.frame_us"] = _timed_us(through_socket, frames, len(frames))
    finally:
        sender.close()
        receiver.close()
    return out


def segment_micro_drive(workload: Workload, arrivals: Sequence[StreamTuple]) -> Dict[str, float]:
    """Cold-segment freeze / thaw over the workload's own tuples."""
    groups = []
    for stream in range(workload.num_streams):
        own = [t for t in arrivals if t.stream == stream]
        groups.extend(
            own[i : i + SEGMENT_TUPLES] for i in range(0, len(own), SEGMENT_TUPLES)
        )
    tuples = sum(len(group) for group in groups)
    attrs = [workload.key_attr] if workload.key_attr else []
    segments: list = []
    return {
        "core.blocks.freeze_us_per_tuple": _timed_us(
            lambda group: segments.append(freeze_segment(group, range(len(group)), attrs)),
            groups,
            tuples,
        ),
        "core.blocks.thaw_us_per_tuple": _timed_us(thaw_segment, segments, tuples),
    }
