"""The ledger's metric tables, and how each value is read off the passes.

``END_TO_END`` are the ledger's ten figures; their bounds are what
``--compare`` applies between two ledger files **of one seed**.  ``GATE``
is the subset ``BENCHMARK.json`` lists, with the bounds that hold when
every run has *another* seed (the self-check keeps the file in step):

* ``chunk_ms_p50`` is left out: on ``nexmark_tiered`` the chunk times are
  bimodal (burst vs steady phase) and the median flips between the modes
  from seed to seed (7.1-9.9 ms, spread 20 %);
* the three stream-time / quality figures that are exact for one seed are
  left out: across seeds average K on ``d3_adaptive`` ranges 2.2-3.2 s;
* ``failed_share`` must be 0, which a gated metric may never be — the
  result object's ``failed`` / ``attempted`` carry it.

``PER_LAYER`` comes from the traced pass.  Wall-clock values are at
reference speed (``calibrate.py``).
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Union

import calibrate
import measure
import workloads
from measure import Pass, Truth, percentile
from tracing import layer_of
from workloads import Workload

#: ``bound`` of the metrics that must repeat bit for bit for one seed.
EXACT = "exact"
#: Seconds of engine time one run measures (``BENCHMARK.json`` run_seconds).
RUN_SECONDS = 10


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the base median the metric may worsen by; ``EXACT``; or
    #: ``None`` for per-layer metrics, which have no bound.
    bound: Union[float, str, None]
    definition: str


END_TO_END: Sequence[Metric] = (
    Metric("setup_s", "s", "lower", 0.25,
           "dataset generation through repro.streams + engine construction "
           "(worker fork) up to the first fed tuple; median of the run's set-ups; "
           "--compare also allows +0.05 s"),
    Metric("tuples_per_s", "tuples/s", "higher", 0.1,
           "input tuples / seconds blocked in driver calls, first feed to flush() return"),
    Metric("chunk_ms_p50", "ms", "lower", 0.1,
           "time the caller is blocked per 16-arrival chunk, median"),
    Metric("chunk_ms_p95", "ms", "lower", 0.15,
           "same, 95th percentile: adaptation steps, release bursts, "
           "expiry/compaction storms, IPC dispatch stalls"),
    Metric("avg_k_ms", "stream_ms", "lower", EXACT,
           "time-weighted average K (PipelineMetrics.average_k_ms): the paper's latency measure"),
    Metric("buffer_wait_ms_avg", "stream_ms", "lower", EXACT,
           "mean stream time a tuple waits in K-slack + synchronizer (average_latency_ms)"),
    Metric("recall", "ratio", "higher", EXACT,
           "produced / true results over the whole run, true count from the ledger's oracle"),
    Metric("recall_fulfilled", "ratio", "higher", EXACT,
           "share of measurement periods with recall >= the requirement "
           "(RecallMeter.fulfillment on the oracle's counts)"),
    Metric("peak_rss_mb", "MiB", "lower", 0.1,
           "driver ru_maxrss right after the first flush() (before the oracle runs), "
           "plus the largest worker's on nexmark_sharded"),
    Metric("failed_share", "ratio", "lower", EXACT,
           "(calls that raised) / (chunks fed + 1 flush); 1.0 on an oracle or input-digest mismatch"),
)

#: ``BENCHMARK.json`` end_to_end: metric -> bound across seeds.  Observed
#: spreads (ten seeds, README "Noise") stay below a third of each bound.
GATE: Dict[str, float] = {
    "setup_s": 0.25,
    "tuples_per_s": 0.25,
    "chunk_ms_p95": 0.25,
    "peak_rss_mb": 0.1,
    "recall": 0.02,
}


def _layer(names: str, unit: str, better: str, definition: str) -> List[Metric]:
    return [Metric(name, unit, better, None, definition) for name in names.split()]


PER_LAYER: Sequence[Metric] = (
    *_layer("streams.generate_s core.pipeline.construct_s", "s", "lower", "set-up halves"),
    *_layer("core.pipeline.calls", "count", "lower", "driver calls incl. flush"),
    *_layer("core.pipeline.self_s core.pipeline.flush_s", "s", "lower",
            "driver glue self time; flush() inclusive"),
    *_layer("core.kslack.calls core.kslack.released core.kslack.peak_buffered "
            "core.synchronizer.calls core.synchronizer.emitted core.synchronizer.peak_buffered "
            "core.statistics.calls core.profiler.calls core.result_monitor.calls "
            "core.adaptation.steps core.adaptation.k_changes", "count", "lower",
            "work done, read at the layer boundary (peaks sampled per chunk)"),
    *_layer("core.kslack.self_s core.synchronizer.self_s core.statistics.self_s "
            "core.profiler.self_s core.result_monitor.self_s core.adaptation.self_s",
            "s", "lower", "self seconds"),
    *_layer("core.adaptation.step_ms_p50 core.adaptation.step_ms_p95", "ms", "lower",
            "policy.decide per step"),
    *_layer("join.mswj.calls join.mswj.probes join.mswj.results join.mswj.out_of_order_kept "
            "join.mswj.dropped", "count", "lower", "operator counters"),
    *_layer("join.mswj.self_s", "s", "lower", "probe loop self seconds"),
    *_layer("join.mswj.results_per_probe", "ratio", "higher", "results / probes"),
    *_layer("join.store.insert_calls join.store.expire_calls join.store.expired "
            "join.store.lookup_calls join.store.peak_resident join.store.peak_encoded_bytes "
            "join.store.freezes join.store.thaws join.store.decode_hits join.store.decode_misses",
            "count", "lower", "window store traffic"),
    *_layer("join.store.insert_s join.store.expire_s join.store.lookup_s", "s", "lower",
            "store seconds; lookup = call and iteration of the lazy iterable"),
    *_layer("join.store.decode_hit_ratio", "ratio", "higher", "decode hits / (hits + misses)"),
    *_layer("parallel.router.calls parallel.executors.submit_calls", "count", "lower", "calls"),
    *_layer("parallel.router.imbalance parallel.shard.compute_max_over_mean", "ratio", "lower",
            "max / mean over shards"),
    *_layer("parallel.router.self_s parallel.executors.start_s parallel.executors.submit_s "
            "parallel.executors.finish_s parallel.pipeline.self_s parallel.pipeline.flush_s "
            "parallel.pipeline.merge_s parallel.shard.compute_s", "s", "lower",
            "parent-side seconds; merge = flush - executor.finish; compute from the serial leg"),
    *_layer("core.blocks.encode_us_per_tuple core.blocks.decode_us_per_tuple "
            "core.blocks.encode_results_us_per_result core.blocks.decode_results_us_per_result "
            "core.blocks.freeze_us_per_tuple core.blocks.thaw_us_per_tuple "
            "parallel.shm.frame_us distributed.runtime.frame_us", "us", "lower",
            "codec / frame round trip micro-drive over the run's real batches"),
    *_layer("core.blocks.bytes_per_tuple core.blocks.bytes_per_result", "bytes", "lower",
            "pickled block size"),
    *_layer("trace.overhead_ratio", "ratio", "lower", "traced wall / untraced wall"),
    *_layer("trace.coverage", "ratio", "higher", "named-layer self seconds / traced wall"),
    *_layer("quality.avg_k_ms quality.buffer_wait_ms_avg", "stream_ms", "lower",
            "the ungated ledger figures, reported here so every traced run carries them"),
    *_layer("quality.recall_fulfilled", "ratio", "higher", "see recall_fulfilled"),
    *_layer("driver.chunk_ms_p50", "ms", "lower", "see chunk_ms_p50"),
    *_layer("calibration.speed", "ratio", "higher",
            "box speed over the untraced pass relative to the reference (1 = equal)"),
    *_layer("raw.tuples_per_s", "tuples/s", "higher", "tuples_per_s before normalization"),
)


def end_to_end(
    workload: Workload,
    passes: Sequence[Pass],
    setup_ref_s: Sequence[float],
    truth: Truth,
    wrong: str,
) -> Dict[str, float]:
    """The ten ledger figures of one run (medians over its passes)."""
    calls = sum(p.calls for p in passes)
    raised = sum(p.failed for p in passes)
    good = [p for p in passes if not p.failed]
    values = {
        "setup_s": statistics.median(setup_ref_s),
        "failed_share": 1.0 if wrong else raised / max(1, calls),
    }
    if not good:
        return values
    first = good[0]
    values.update(
        tuples_per_s=statistics.median([p.tuples / p.wall_ref_s for p in good]),
        chunk_ms_p50=statistics.median([statistics.median(p.chunk_ref_ms) for p in good]),
        chunk_ms_p95=statistics.median([percentile(p.chunk_ref_ms, 0.95) for p in good]),
        # Read off the first pass: the high-water mark must not depend on
        # how many passes the box's speed let the run fit.
        peak_rss_mb=first.rss_mib,
        recall=first.result_count / truth.total if truth.total else 1.0,
        avg_k_ms=first.avg_k_ms,
        buffer_wait_ms_avg=first.buffer_wait_ms,
        recall_fulfilled=measure.recall_fulfilled(workload, first, truth),
    )
    return values


def per_layer(
    workload: Workload,
    untraced: Pass,
    traced: Pass,
    serial: Optional[Pass],
    micro: Dict[str, float],
    ledger: Dict[str, float],
) -> Dict[str, float]:
    """Every ``PER_LAYER`` value (0 where a layer is not in the workload).

    ``traced`` carries the parent-side spans; ``serial`` is the sharded
    workload's serial x N leg, the only place its shards' own layers can
    be seen from outside.  Seconds are put at the reference speed of the
    pass they were measured in.
    """
    values = {metric.name: 0.0 for metric in PER_LAYER}
    inner = traced if serial is None else serial
    if serial is None:
        _fold_spans(values, traced, lambda name: True)
    else:
        _fold_spans(values, traced, lambda name: name.startswith("parallel."))
        _fold_spans(values, serial, lambda name: not name.startswith("parallel."))
    values.update({k: float(v) for k, v in inner.counters.items() if k in values})
    if serial is not None:
        values["parallel.router.imbalance"] = traced.counters["parallel.router.imbalance"]
        assert serial.tracer is not None
        to_ref = serial.wall_ref_s / serial.wall_s
        shard_s = [
            total_s * to_ref
            for name, (_c, _s, total_s) in serial.tracer.totals().items()
            if name.startswith("core.pipeline.shard")
        ]
        values["parallel.shard.compute_s"] = sum(shard_s)
        values["parallel.shard.compute_max_over_mean"] = max(shard_s) * len(shard_s) / sum(shard_s)
    if workload.sharded:
        values["parallel.pipeline.merge_s"] = (
            values["parallel.pipeline.flush_s"] - values["parallel.executors.finish_s"]
        )
        values["parallel.executors.start_s"] = calibrate.to_reference(
            traced.setup.construct_s, traced.setup.slice_s
        )
    steps = inner.tracer.durations.get("core.adaptation", [])  # type: ignore[union-attr]
    if steps:
        to_ms = 1000.0 * inner.wall_ref_s / inner.wall_s
        values["core.adaptation.step_ms_p50"] = to_ms * statistics.median(steps)
        values["core.adaptation.step_ms_p95"] = to_ms * percentile(steps, 0.95)
    probes = values["join.mswj.probes"]
    values["join.mswj.results_per_probe"] = values["join.mswj.results"] / probes if probes else 0.0
    decodes = values["join.store.decode_hits"] + values["join.store.decode_misses"]
    values["join.store.decode_hit_ratio"] = (
        values["join.store.decode_hits"] / decodes if decodes else 0.0
    )
    setup = untraced.setup
    values["streams.generate_s"] = calibrate.to_reference(setup.generate_s, setup.slice_s)
    values["core.pipeline.construct_s"] = calibrate.to_reference(setup.construct_s, setup.slice_s)
    values["trace.overhead_ratio"] = traced.wall_ref_s / untraced.wall_ref_s
    values["trace.coverage"] = _coverage(traced)
    values["quality.avg_k_ms"] = ledger["avg_k_ms"]
    values["quality.buffer_wait_ms_avg"] = ledger["buffer_wait_ms_avg"]
    values["quality.recall_fulfilled"] = ledger["recall_fulfilled"]
    values["driver.chunk_ms_p50"] = ledger["chunk_ms_p50"]
    values["calibration.speed"] = untraced.speed
    values["raw.tuples_per_s"] = untraced.tuples / untraced.wall_s
    values.update(micro)
    return values


#: Span name -> the PER_LAYER names its calls / self / inclusive seconds feed.
_SPAN_FIELDS = {
    "core.pipeline": ("core.pipeline.calls", "core.pipeline.self_s", None),
    "core.pipeline.flush": ("core.pipeline.calls", "core.pipeline.self_s", "core.pipeline.flush_s"),
    "core.adaptation": ("core.adaptation.steps", "core.adaptation.self_s", None),
    "join.store.insert": ("join.store.insert_calls", "join.store.insert_s", None),
    "join.store.expire": ("join.store.expire_calls", "join.store.expire_s", None),
    "join.store.lookup": ("join.store.lookup_calls", "join.store.lookup_s", None),
    "parallel.pipeline": (None, "parallel.pipeline.self_s", None),
    "parallel.pipeline.flush": (None, "parallel.pipeline.self_s", "parallel.pipeline.flush_s"),
    "parallel.executors.submit": (
        "parallel.executors.submit_calls", None, "parallel.executors.submit_s"),
    "parallel.executors.finish": (None, None, "parallel.executors.finish_s"),
}


def _fold_spans(values: Dict[str, float], source: Pass, keep: Callable[[str], bool]) -> None:
    """Add the spans of one traced pass into the per-layer values."""
    assert source.tracer is not None
    to_ref = source.wall_ref_s / source.wall_s
    for name, (calls, self_s, total_s) in source.tracer.totals().items():
        if not keep(name):
            continue
        if name.startswith("core.pipeline.shard"):
            name = "core.pipeline"
        layer = layer_of(name)
        calls_key, self_key, total_key = _SPAN_FIELDS.get(
            name, (f"{layer}.calls", f"{layer}.self_s", None)
        )
        amounts = ((calls_key, calls), (self_key, self_s * to_ref), (total_key, total_s * to_ref))
        for key, amount in amounts:
            if key is not None:
                values[key] += amount


def _coverage(traced: Pass) -> float:
    assert traced.tracer is not None
    return sum(traced.tracer.layer_self_seconds().values()) / traced.wall_s


def layer_shares(source: Pass) -> Dict[str, float]:
    """layer -> share of the traced self seconds (README interaction table)."""
    assert source.tracer is not None
    layers = source.tracer.layer_self_seconds()
    whole = sum(layers.values())
    return {layer: seconds / whole for layer, seconds in sorted(layers.items())}


def manifest() -> Dict[str, object]:
    """What ``BENCHMARK.json`` must say, generated from the tables above."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": GATE[m.name]}
            for m in END_TO_END
            if m.name in GATE
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
