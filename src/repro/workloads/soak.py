"""Deterministic soak & differential-oracle harness.

Replays a seeded NEXMark-style workload (:mod:`repro.workloads`) for N
phases through a *bank* of pipeline variants — the single-shard serial
reference, partitioned runs at several shard counts, and a rebalanced
run — while checking six invariants:

1. **subset** — every produced result is a true result
   (produced ⊆ true against
   :class:`~repro.quality.truth.TruthIndex` keys), checked on each
   phase's freshly produced results and on the terminal flush.  The
   true result set holds distinct results, so a *duplicate* produced
   result also violates the (multiset) subset relation and is counted
   here.
2. **recall** — per phase, the *distinct* results whose timestamps fall
   in the phase's range must reach the configured recall requirement
   (distinct, so duplicates cannot mask dropped results); the harness
   runs under *lossless* settings (fixed K covering the realized
   maximum delay), so the expectation is exactly 1.0.
3. **identity** — the canonical merged output (the byte serialization of
   the ``(ts, result key)`` sequence) must be identical across shard
   counts 1/2/4 and between static and rebalanced routing.  This is the
   differential oracle: any divergence in routing, transport, migration
   or merge logic shows up as a byte mismatch.
4. **memory** — at every phase boundary, realized state sizes (join
   windows; K-slack + synchronizer pending) must stay under the
   workload's *analytic* caps (:meth:`~repro.workloads.Workload.analytic_caps`),
   proving the engine's footprint is bounded by configured rates, not by
   stream length.  State is probed on serially-executed variants (under
   exact partitioning the union of shard states equals the
   single-pipeline state; process workers are not introspectable
   mid-run, which is why the serial reference always rides along).
5. **hot-tier** (only when the bank has tiered-store variants) — at
   every phase boundary, each tiered variant's per-stream hot-tier
   residency must stay under the configured
   :attr:`~repro.join.store.TieredStoreConfig.hot_budget` plus the
   analytic slack the tier legitimately holds as objects: the active
   bucket (tuples too recent to freeze), one straddler bucket thawed
   back during expiry, and the compaction back-off hysteresis — all
   derived from the workload's configured peak rates, like the memory
   caps.  Together with the identity check this is the tiered-store
   contract: bounded object residency, byte-identical output.
6. **recovery** (only in ``chaos`` mode) — the bank gains a supervised
   variant running under the seeded fault plan
   (:func:`~repro.faults.chaos_plan`: crashes, SIGKILLs, hangs,
   checkpoint corruption).  The identity oracle must not be able to
   tell its output from a clean run, and the supervision counters must
   show the faults actually fired (>= 1 respawn, >= 1 admitted
   checkpoint) so the chaos run cannot pass vacuously.

Determinism: the workload is seeded, the replay is arrival-driven, and
every check compares exact counts/bytes — a soak run either passes
reproducibly or fails reproducibly.  ``tools/soak.py`` is the CLI.

Failure injection: the harness takes a ``driver_factory`` so tests can
wrap variants in deliberately broken drivers and prove each of the four
checks actually fails (see ``tests/test_soak.py``).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.kslack import KSlackBuffer
from ..core.pipeline import PipelineConfig
from ..core.tuples import JoinResult, StreamTuple
from ..distributed.tree import TreeJoinOperator
from ..faults import chaos_plan
from ..join.store import StoreSpec, TieredStore, TieredStoreConfig
from ..parallel.executors import SerialExecutor
from ..parallel.pipeline import PartitionedPipeline
from ..parallel.shard import TRANSPORT_BLOCKS
from ..parallel.supervision import SupervisionConfig
from ..quality.truth import compute_truth
from . import (
    NexmarkConfig,
    Workload,
    WorkloadCaps,
    auction_bids_workload,
    fixed_k_config,
)

#: The six invariant check identifiers.
CHECK_SUBSET = "subset"
CHECK_RECALL = "recall"
CHECK_IDENTITY = "identity"
CHECK_MEMORY = "memory"
CHECK_HOT_TIER = "hot-tier"
#: Chaos mode only: the supervised chaos variant must both survive its
#: seeded fault plan byte-identically (the identity oracle covers the
#: output) *and* actually exercise recovery — at least one respawn and
#: one admitted checkpoint, so a plan whose faults never fire cannot
#: pass vacuously.
CHECK_RECOVERY = "recovery"
ALL_CHECKS = (
    CHECK_SUBSET, CHECK_RECALL, CHECK_IDENTITY, CHECK_MEMORY, CHECK_HOT_TIER,
    CHECK_RECOVERY,
)


def resolve_tiered(store: StoreSpec) -> Optional[TieredStoreConfig]:
    """The :class:`TieredStoreConfig` a store spec denotes, else ``None``."""
    if isinstance(store, TieredStoreConfig):
        return store
    if store == "tiered":
        return TieredStoreConfig()
    return None


@dataclass(frozen=True)
class VariantSpec:
    """One pipeline variant of the differential bank."""

    name: str
    shards: int
    executor: str = "serial"
    transport: str = TRANSPORT_BLOCKS
    rebalance: bool = False
    #: Window-store selection for this variant's shard pipelines
    #: (``None`` = the in-memory default).  Tiered variants ride the
    #: same bank, so the identity oracle proves store byte-identity.
    store: StoreSpec = None
    #: Chaos twin: run under the ``"supervised"`` executor with the
    #: seeded :func:`~repro.faults.chaos_plan` armed — crashes, SIGKILLs,
    #: hangs and checkpoint corruption injected mid-run, which the
    #: identity oracle must not be able to tell apart from a clean run.
    chaos: bool = False
    #: Tree twin: execute through the paper Sec. V tree of binary joins
    #: (:class:`~repro.distributed.tree.TreeJoinOperator`) instead of
    #: the MSWJ pipeline — the identity oracle then differentially
    #: proves the tree decomposition result-identical to the m-way
    #: operator over the workload's disorder and burst phases.
    tree: bool = False


@dataclass
class SoakConfig:
    """Soak-run parameters (everything derives deterministically from these)."""

    phases: int = 3
    seed: int = 7
    phase_duration_ms: int = 8_000
    #: Shard counts of the differential bank (1 is always forced in as
    #: the serial reference).
    shard_counts: Tuple[int, ...] = (1, 2, 4)
    #: Executor of the multi-shard variants: ``"serial"`` or ``"process"``.
    executor: str = "serial"
    transport: str = TRANSPORT_BLOCKS
    window_s: float = 1.0
    #: Recall requirement per phase; the run is lossless, so any value
    #: below 1.0 also documents the slack the check grants.
    recall_requirement: float = 0.95
    bid_channels: int = 2
    #: Arrival-stream burst size fed per ``process_batch`` call.
    chunk_size: int = 64
    rebalance_interval: int = 512
    rebalance_threshold: float = 1.05
    #: When set (``"tiered"`` or a :class:`TieredStoreConfig`), the bank
    #: gains tiered-store twins of the serial reference and the top
    #: shard-count variant, and the hot-tier residency check arms.
    store: StoreSpec = None
    #: Chaos mode: the bank gains a supervised twin of the top shard
    #: count running under the seeded fault plan
    #: (:func:`~repro.faults.chaos_plan`), and the recovery check arms.
    chaos: bool = False
    #: Tree mode: the bank gains a tree-of-binary-joins twin
    #: (paper Sec. V), held to the same subset/recall checks and to
    #: byte-identity with every MSWJ variant by the identity oracle.
    tree: bool = False
    #: IPC dispatch window of the chaos variant — deliberately small so
    #: the plan's batch-indexed faults fire within smoke-scale runs.
    chaos_batch_size: int = 32

    def tiered_config(self) -> Optional[TieredStoreConfig]:
        return resolve_tiered(self.store)

    def workload(self) -> Workload:
        return auction_bids_workload(
            NexmarkConfig(
                num_bid_channels=self.bid_channels,
                num_phases=self.phases,
                phase_duration_ms=self.phase_duration_ms,
                seed=self.seed,
            ),
            window_s=self.window_s,
        )

    def variants(self) -> List[VariantSpec]:
        """The differential bank: serial reference + shard sweeps + rebalance."""
        specs = [VariantSpec("serial-1", 1, "serial")]
        multi = sorted({n for n in self.shard_counts if n > 1})
        for shards in multi:
            specs.append(
                VariantSpec(
                    f"{self.executor}-{shards}",
                    shards,
                    self.executor,
                    self.transport,
                )
            )
        if multi:
            top = multi[-1]
            specs.append(
                VariantSpec(
                    f"{self.executor}-{top}-rebalanced",
                    top,
                    self.executor,
                    self.transport,
                    rebalance=True,
                )
            )
        tiered = self.tiered_config()
        if tiered is not None:
            # Tiered twins: the serial reference (hot-tier check probes
            # it) and, when multi-shard variants exist, the top shard
            # count under rebalancing — the store must survive migration
            # byte-identically too.
            specs.append(
                VariantSpec("serial-1-tiered", 1, "serial", store=tiered)
            )
            if multi:
                specs.append(
                    VariantSpec(
                        f"{self.executor}-{multi[-1]}-tiered",
                        multi[-1],
                        self.executor,
                        self.transport,
                        rebalance=True,
                        store=tiered,
                    )
                )
        if self.chaos:
            # The chaos twin needs >= 2 shards: the plan injects
            # respawn-budget pressure and the identity oracle must keep
            # holding across recoveries, which is only interesting with
            # partitioned state to restore.
            top = multi[-1] if multi else 2
            specs.append(
                VariantSpec(
                    f"supervised-{top}-chaos",
                    top,
                    "supervised",
                    self.transport,
                    rebalance=True,
                    chaos=True,
                )
            )
        if self.tree:
            # The tree twin is an independent *execution model*, not an
            # executor: the identity oracle differentially proves the
            # paper's Sec. V tree decomposition result-identical to the
            # m-way operator under the same disorder/burst phases.
            specs.append(VariantSpec("tree-differential", 1, tree=True))
        return specs


class PipelineDriver:
    """Default variant driver: a :class:`PartitionedPipeline` wrapper.

    The driver surface (``feed`` / ``flush`` / ``state_sizes`` /
    ``close``) is what failure-injection tests stub out.
    """

    def __init__(self, spec: VariantSpec, config: PipelineConfig,
                 soak: SoakConfig) -> None:
        self.spec = spec
        if spec.store is not None:
            config = replace(config, store=spec.store)
        kwargs = {}
        if spec.rebalance:
            kwargs = dict(
                rebalance=True,
                rebalance_interval=soak.rebalance_interval,
                rebalance_threshold=soak.rebalance_threshold,
            )
        if spec.chaos:
            # Tight cadences so heartbeats, checkpoints and the seeded
            # faults all fire within a smoke-scale run; a generous
            # respawn budget because the plan injects several distinct
            # faults per shard.
            kwargs.update(
                batch_size=soak.chaos_batch_size,
                supervision=SupervisionConfig(
                    heartbeat_interval=4,
                    heartbeat_timeout_s=2.0,
                    checkpoint_interval=8,
                    max_respawns=6,
                    backoff_base_s=0.01,
                ),
                fault_plan=chaos_plan(soak.seed, spec.shards),
            )
        self.pipeline = PartitionedPipeline(
            config,
            spec.shards,
            executor=spec.executor,
            transport=spec.transport,
            **kwargs,
        )

    def feed(self, batch: Sequence[StreamTuple]) -> List[JoinResult]:
        return self.pipeline.process_batch(batch)

    def flush(self) -> List[JoinResult]:
        return self.pipeline.flush()

    def state_sizes(self) -> Optional[Tuple[int, int]]:
        """``(window_tuples, pending_tuples)`` summed over shards.

        ``None`` when the executor's state is not introspectable
        (worker processes) — the memory check then skips this variant.
        """
        executor = self.pipeline.executor
        if not isinstance(executor, SerialExecutor):
            return None
        windows = 0
        pending = 0
        for shard in executor.pipelines:
            windows += sum(w.cardinality for w in shard.join.windows)
            pending += sum(k.buffered for k in shard.kslacks)
            pending += shard.synchronizer.buffered
        return windows, pending

    def hot_sizes(self) -> Optional[List[int]]:
        """Per-stream hot-tier resident objects, summed over shards.

        ``None`` when the state is not introspectable (process workers)
        or no shard uses a :class:`~repro.join.store.TieredStore` — the
        hot-tier check then skips this variant.
        """
        executor = self.pipeline.executor
        if not isinstance(executor, SerialExecutor):
            return None
        hot: Optional[List[int]] = None
        for shard in executor.pipelines:
            for stream, window in enumerate(shard.join.windows):
                if not isinstance(window.store, TieredStore):
                    return None
                if hot is None:
                    hot = [0] * len(shard.join.windows)
                hot[stream] += window.store_metrics().hot_objects
        return hot

    def recovery_stats(self) -> Optional[Dict[str, int]]:
        """Supervision counters of a chaos variant, else ``None``.

        Safe to read after :meth:`close` — the counters are plain
        executor attributes that outlive the worker processes.
        """
        executor = self.pipeline.executor
        if not getattr(executor, "supervised", False):
            return None
        return {
            "respawns": executor.respawns,
            "checkpoints_taken": executor.checkpoints_taken,
            "checkpoints_rejected": executor.checkpoints_rejected,
            "replayed_batches": executor.replayed_batches,
            "failovers": self.pipeline.failovers,
        }

    def close(self) -> None:
        self.pipeline.close()


class TreeDriver:
    """Tree-twin driver: the Sec. V tree of binary joins as a variant.

    Same driver surface as :class:`PipelineDriver` over a
    :class:`~repro.distributed.tree.TreeJoinOperator`.  Mirroring the
    paper's architecture — disorder handling sits in front of each
    operator — the driver runs the same per-stream
    :class:`~repro.core.kslack.KSlackBuffer` frontend as the MSWJ
    variants (fixed lossless K), so the tree sees per-stream-ordered
    input and its per-node Alg. 2 always takes the in-order path.  The
    state/hot-tier probes report "not introspectable" and the memory
    checks skip it; subset, recall and — decisively — byte-identity
    against every MSWJ variant apply in full.
    """

    def __init__(self, spec: VariantSpec, config: PipelineConfig,
                 soak: SoakConfig) -> None:
        self.spec = spec
        self.tree = TreeJoinOperator(
            config.window_sizes_ms, config.condition, collect_results=True
        )
        self.kslacks = [
            KSlackBuffer(config.initial_k_ms)
            for _ in range(len(config.window_sizes_ms))
        ]
        self._flushed = False

    def feed(self, batch: Sequence[StreamTuple]) -> List[JoinResult]:
        out: List[JoinResult] = []
        for t in batch:
            for released in self.kslacks[t.stream].process(t):
                out.extend(self.tree.process(released))
        return out

    def flush(self) -> List[JoinResult]:
        self._flushed = True
        out: List[JoinResult] = []
        for kslack in self.kslacks:
            for released in kslack.flush():
                out.extend(self.tree.process(released))
        out.extend(self.tree.flush())
        return out

    def state_sizes(self) -> None:
        return None

    def hot_sizes(self) -> None:
        return None

    def recovery_stats(self) -> None:
        return None

    def close(self) -> None:
        if not self._flushed:
            self.flush()


def default_driver(spec: VariantSpec, config: PipelineConfig,
                   soak: SoakConfig):
    """The stock factory: tree twins get a :class:`TreeDriver`,
    everything else a :class:`PipelineDriver`."""
    if spec.tree:
        return TreeDriver(spec, config, soak)
    return PipelineDriver(spec, config, soak)


#: Builds one driver per variant; tests swap this for broken stubs.
DriverFactory = Callable[[VariantSpec, PipelineConfig, SoakConfig], PipelineDriver]


@dataclass
class SoakViolation:
    """One failed invariant check."""

    check: str
    phase: int  # -1 for run-level checks (terminal identity)
    variant: str
    detail: str

    def __str__(self) -> str:
        where = f"phase {self.phase}" if self.phase >= 0 else "run"
        return f"[{self.check}] {where}, {self.variant}: {self.detail}"


@dataclass
class PhaseReport:
    """Per-phase accounting of one soak run."""

    index: int
    lo_ms: int
    hi_ms: int
    true_count: int
    #: variant name -> distinct results with ts in this phase's range.
    produced: Dict[str, int] = field(default_factory=dict)
    #: variant name -> recall against ``true_count`` (1.0 when no truth).
    recall: Dict[str, float] = field(default_factory=dict)
    #: variant name -> (windows, pending) probed at the phase boundary.
    state: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: variant name -> per-stream hot-tier resident objects (tiered
    #: serial variants only).
    hot: Dict[str, Tuple[int, ...]] = field(default_factory=dict)


@dataclass
class SoakReport:
    """Everything one soak run yields."""

    workload: str
    executor: str
    variants: List[str]
    truth_total: int
    k_ms: int
    caps: WorkloadCaps
    phases: List[PhaseReport] = field(default_factory=list)
    violations: List[SoakViolation] = field(default_factory=list)
    checks_run: Tuple[str, ...] = ALL_CHECKS
    #: canonical output fingerprint (hex digest) per variant.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: chaos variants only: supervision counters (respawns,
    #: checkpoints taken/rejected, replayed batches, failovers).
    recovery: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def render(self) -> str:
        """Human-readable phase table + verdict (saved under results/)."""
        from ..experiments.report import format_table

        headers = ["phase", "range (ms)", "true", "variant", "produced",
                   "recall", "windows", "pending", "hot"]
        rows = []
        for phase in self.phases:
            for variant in self.variants:
                windows, pending = phase.state.get(variant, (None, None))
                hot = phase.hot.get(variant)
                rows.append(
                    (
                        phase.index,
                        f"({phase.lo_ms}, {phase.hi_ms}]",
                        phase.true_count,
                        variant,
                        phase.produced.get(variant, 0),
                        f"{phase.recall.get(variant, 1.0):.4f}",
                        "-" if windows is None else windows,
                        "-" if pending is None else pending,
                        "-" if hot is None else sum(hot),
                    )
                )
        title = (
            f"Soak — {self.workload}, executor={self.executor}, "
            f"K={self.k_ms} ms, truth={self.truth_total}, caps: "
            f"windows<={self.caps.window_cap} pending<={self.caps.pending_cap}"
        )
        lines = [format_table(headers, rows, title=title), ""]
        lines.append("output fingerprints (byte-identity oracle):")
        for variant in self.variants:
            lines.append(f"  {variant}: {self.fingerprints.get(variant, '-')}")
        lines.append("")
        if self.recovery:
            lines.append("recovery counters (chaos variants):")
            for variant, stats in self.recovery.items():
                rendered = " ".join(
                    f"{name}={value}" for name, value in stats.items()
                )
                lines.append(f"  {variant}: {rendered}")
            lines.append("")
        if self.passed:
            lines.append(
                f"PASS — all checks held: {', '.join(self.checks_run)}"
            )
        else:
            lines.append(f"FAIL — {len(self.violations)} violation(s):")
            for violation in self.violations:
                lines.append(f"  {violation}")
        return "\n".join(lines)


def canonical_results(results: Sequence[JoinResult]) -> List[tuple]:
    """Routing-independent total order: ``(ts, result identity key)``."""
    return sorted(((r.ts, r.key()) for r in results))


def canonical_bytes(results: Sequence[JoinResult]) -> bytes:
    """Byte serialization the identity oracle compares."""
    return repr(canonical_results(results)).encode("utf-8")


def _fingerprint(payload: bytes) -> str:
    import hashlib

    return hashlib.sha256(payload).hexdigest()[:16]


class SoakHarness:
    """One deterministic soak run over a workload and a variant bank."""

    def __init__(
        self,
        config: SoakConfig,
        workload: Optional[Workload] = None,
        driver_factory: Optional[DriverFactory] = None,
    ) -> None:
        self.config = config
        self.workload = workload if workload is not None else config.workload()
        self.driver_factory = driver_factory or default_driver

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------

    def run(self) -> SoakReport:
        workload = self.workload
        config = self.config
        dataset = workload.dataset
        # Lossless disorder handling: fixed K covering the realized
        # maximum delay makes every variant's output the exact join.
        k_ms = dataset.max_delay()
        truth = compute_truth(
            dataset, workload.window_sizes_ms, workload.condition,
            keep_keys=True,
        )
        caps = workload.analytic_caps(k_ms)
        specs = config.variants()
        report = SoakReport(
            workload=workload.name,
            executor=config.executor,
            variants=[spec.name for spec in specs],
            truth_total=truth.index.total,
            k_ms=k_ms,
            caps=caps,
        )

        skipped = set()
        if len(specs) == 1:
            # A single-variant bank has nothing to differentially
            # compare; be explicit that the identity oracle did not run
            # rather than reporting it vacuously held.
            skipped.add(CHECK_IDENTITY)
        if not any(resolve_tiered(spec.store) for spec in specs):
            # No tiered variant in the bank — the hot-tier residency
            # check has nothing to probe.
            skipped.add(CHECK_HOT_TIER)
        if not any(spec.chaos for spec in specs):
            # No chaos variant — there is no fault plan whose recovery
            # could be (non-vacuously) asserted.
            skipped.add(CHECK_RECOVERY)
        if skipped:
            report.checks_run = tuple(
                check for check in ALL_CHECKS if check not in skipped
            )

        arrivals = list(dataset.arrivals())
        arrival_keys = [t.arrival for t in arrivals]
        # A fresh config per variant: policies are per-pipeline.
        drivers = [
            self.driver_factory(
                spec,
                fixed_k_config(
                    k_ms, workload.window_sizes_ms, workload.condition, True
                ),
                config,
            )
            for spec in specs
        ]
        collected: Dict[str, List[JoinResult]] = {
            spec.name: [] for spec in specs
        }
        seen_keys: Dict[str, set] = {spec.name: set() for spec in specs}
        try:
            position = 0
            for phase_index, boundary in enumerate(
                workload.phase_boundaries_ms
            ):
                end = bisect.bisect_right(arrival_keys, boundary)
                phase_batch = arrivals[position:end]
                position = end
                for spec, driver in zip(specs, drivers):
                    fresh: List[JoinResult] = []
                    for start in range(0, len(phase_batch), config.chunk_size):
                        fresh.extend(
                            driver.feed(
                                phase_batch[start:start + config.chunk_size]
                            )
                        )
                    collected[spec.name].extend(fresh)
                    self._check_subset(
                        report, truth, fresh, phase_index, spec.name,
                        seen_keys[spec.name],
                    )
                self._check_memory(report, specs, drivers, caps, phase_index)
                self._check_hot_tier(report, specs, drivers, phase_index)
            # Terminal flush: the remaining (buffered) results.
            for spec, driver in zip(specs, drivers):
                final = driver.flush()
                collected[spec.name].extend(final)
                self._check_subset(
                    report, truth, final, workload.num_phases - 1, spec.name,
                    seen_keys[spec.name],
                )
        finally:
            for driver in drivers:
                driver.close()

        self._account_phases(report, truth, specs, collected)
        self._check_recall(report, specs)
        self._check_identity(report, specs, collected)
        self._check_recovery(report, specs, drivers)
        return report

    # ------------------------------------------------------------------
    # the four checks
    # ------------------------------------------------------------------

    def _check_subset(self, report, truth, results, phase_index, variant,
                      seen_keys):
        assert truth.keys is not None
        bogus = 0
        duplicates = 0
        for r in results:
            key = r.key()
            if key not in truth.keys:
                bogus += 1
            elif key in seen_keys:
                # The true result set is distinct, so the subset
                # relation is a multiset one: a re-produced result is
                # just as spurious as a fabricated one.
                duplicates += 1
            else:
                seen_keys.add(key)
        if bogus:
            report.violations.append(
                SoakViolation(
                    CHECK_SUBSET,
                    phase_index,
                    variant,
                    f"{bogus} produced result(s) not in the true result set",
                )
            )
        if duplicates:
            report.violations.append(
                SoakViolation(
                    CHECK_SUBSET,
                    phase_index,
                    variant,
                    f"{duplicates} duplicate produced result(s)",
                )
            )

    def _check_memory(self, report, specs, drivers, caps, phase_index):
        phase = self._phase_slot(report, phase_index)
        for spec, driver in zip(specs, drivers):
            sizes = driver.state_sizes()
            if sizes is None:
                continue
            windows, pending = sizes
            phase.state[spec.name] = (windows, pending)
            if windows > caps.window_cap:
                report.violations.append(
                    SoakViolation(
                        CHECK_MEMORY,
                        phase_index,
                        spec.name,
                        f"window tuples {windows} exceed analytic cap "
                        f"{caps.window_cap}",
                    )
                )
            if pending > caps.pending_cap:
                report.violations.append(
                    SoakViolation(
                        CHECK_MEMORY,
                        phase_index,
                        spec.name,
                        f"pending tuples {pending} exceed analytic cap "
                        f"{caps.pending_cap}",
                    )
                )

    def hot_tier_caps(
        self, tiered: TieredStoreConfig, shards: int
    ) -> List[int]:
        """Per-stream hot-tier residency caps, analytically derived.

        Beyond its budget, a shard's hot tier legitimately holds as
        objects: the active bucket (tuples within ``bucket_span_ms`` of
        the newest timestamp are never frozen), up to one straddler
        bucket thawed back during expiry, and the compaction back-off
        hysteresis (``hot_budget // 8``).  Budgets and hysteresis are
        per shard (each shard owns a store per stream); the bucket
        populations are bounded by the stream's configured peak rate
        regardless of how the key space is sharded.
        """
        budget = tiered.hot_budget + max(1, tiered.hot_budget // 8)
        return [
            shards * budget
            + 2 * math.ceil(rate * tiered.bucket_span_ms)
            + 8
            for rate in self.workload.peak_rates_per_ms
        ]

    def _check_hot_tier(self, report, specs, drivers, phase_index):
        phase = self._phase_slot(report, phase_index)
        for spec, driver in zip(specs, drivers):
            tiered = resolve_tiered(spec.store)
            if tiered is None:
                continue
            hot = driver.hot_sizes()
            if hot is None:
                continue
            phase.hot[spec.name] = tuple(hot)
            caps = self.hot_tier_caps(tiered, spec.shards)
            for stream, (resident, cap) in enumerate(zip(hot, caps)):
                if resident > cap:
                    report.violations.append(
                        SoakViolation(
                            CHECK_HOT_TIER,
                            phase_index,
                            spec.name,
                            f"stream {stream} hot-tier residency {resident} "
                            f"exceeds budget-derived cap {cap} "
                            f"(hot_budget={tiered.hot_budget})",
                        )
                    )

    def _phase_slot(self, report: SoakReport, index: int) -> PhaseReport:
        while len(report.phases) <= index:
            lo, hi = self.workload.phase_ranges()[len(report.phases)]
            report.phases.append(
                PhaseReport(index=len(report.phases), lo_ms=lo, hi_ms=hi,
                            true_count=0)
            )
        return report.phases[index]

    def _account_phases(self, report, truth, specs, collected):
        """Bucket every variant's results by phase timestamp range.

        Counts are over *distinct* result identities: the true result
        set is distinct by construction, and deduplicating here keeps a
        duplicate-emitting engine bug from masking dropped results in
        the recall ratio (duplicates themselves are flagged by the
        subset check).
        """
        distinct: Dict[str, List[int]] = {
            spec.name: sorted(
                ts for ts, _ in {(r.ts, r.key()) for r in collected[spec.name]}
            )
            for spec in specs
        }
        for index, (lo, hi) in enumerate(self.workload.phase_ranges()):
            phase = self._phase_slot(report, index)
            phase.true_count = truth.index.count_in(lo, hi)
            for spec in specs:
                timestamps = distinct[spec.name]
                produced = bisect.bisect_right(timestamps, hi) - (
                    bisect.bisect_right(timestamps, lo)
                )
                phase.produced[spec.name] = produced
                phase.recall[spec.name] = (
                    min(1.0, produced / phase.true_count)
                    if phase.true_count
                    else 1.0
                )

    def _check_recall(self, report, specs):
        requirement = self.config.recall_requirement
        for phase in report.phases:
            for spec in specs:
                recall = phase.recall.get(spec.name, 1.0)
                if recall < requirement:
                    report.violations.append(
                        SoakViolation(
                            CHECK_RECALL,
                            phase.index,
                            spec.name,
                            f"phase recall {recall:.4f} below requirement "
                            f"{requirement} under lossless settings "
                            f"({phase.produced.get(spec.name, 0)}/"
                            f"{phase.true_count})",
                        )
                    )

    def _check_recovery(self, report, specs, drivers):
        """Chaos variants must have actually recovered, not dodged faults.

        The identity oracle already proves the chaos variant's *output*
        is indistinguishable from a clean run; this check proves the
        run was genuinely disturbed — at least one worker respawn and
        at least one admitted checkpoint (the restore path has nothing
        to restore from otherwise).
        """
        for spec, driver in zip(specs, drivers):
            if not spec.chaos:
                continue
            stats = driver.recovery_stats()
            if stats is None:
                report.violations.append(
                    SoakViolation(
                        CHECK_RECOVERY, -1, spec.name,
                        "chaos variant exposes no supervision counters "
                        "(not running under the supervised executor?)",
                    )
                )
                continue
            report.recovery[spec.name] = stats
            if stats["respawns"] < 1:
                report.violations.append(
                    SoakViolation(
                        CHECK_RECOVERY, -1, spec.name,
                        "no worker respawns — the seeded fault plan "
                        "never fired (vacuous chaos run)",
                    )
                )
            if stats["checkpoints_taken"] < 1:
                report.violations.append(
                    SoakViolation(
                        CHECK_RECOVERY, -1, spec.name,
                        "no checkpoints admitted — recovery ran without "
                        "restorable state",
                    )
                )

    def _check_identity(self, report, specs, collected):
        reference = specs[0].name
        reference_bytes = canonical_bytes(collected[reference])
        report.fingerprints[reference] = _fingerprint(reference_bytes)
        for spec in specs[1:]:
            payload = canonical_bytes(collected[spec.name])
            report.fingerprints[spec.name] = _fingerprint(payload)
            if payload != reference_bytes:
                detail = (
                    f"merged output diverges from {reference}: "
                    f"{len(collected[spec.name])} vs "
                    f"{len(collected[reference])} results"
                )
                # Locate the first divergent phase for the report.
                for phase in report.phases:
                    if phase.produced.get(spec.name) != phase.produced.get(
                        reference
                    ):
                        detail += f" (first count divergence in phase {phase.index})"
                        break
                report.violations.append(
                    SoakViolation(CHECK_IDENTITY, -1, spec.name, detail)
                )


def run_soak(
    config: Optional[SoakConfig] = None,
    workload: Optional[Workload] = None,
    driver_factory: Optional[DriverFactory] = None,
) -> SoakReport:
    """Run one soak; see :class:`SoakHarness`."""
    return SoakHarness(
        config if config is not None else SoakConfig(),
        workload=workload,
        driver_factory=driver_factory,
    ).run()


__all__ = [
    "ALL_CHECKS",
    "CHECK_HOT_TIER",
    "CHECK_IDENTITY",
    "CHECK_MEMORY",
    "CHECK_RECALL",
    "CHECK_RECOVERY",
    "CHECK_SUBSET",
    "resolve_tiered",
    "PhaseReport",
    "PipelineDriver",
    "SoakConfig",
    "SoakHarness",
    "SoakReport",
    "SoakViolation",
    "VariantSpec",
    "canonical_bytes",
    "canonical_results",
    "run_soak",
]
