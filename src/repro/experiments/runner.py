"""The experiment runner: one disordered replay, fully instrumented.

Runs a :class:`~repro.experiments.configs.ExperimentConfig` through a
:class:`~repro.core.pipeline.QualityDrivenPipeline` under a chosen policy
and pipeline parameters, measuring exactly what the paper reports:

* γ(P) right before every adaptation step (via a
  :class:`~repro.quality.recall.RecallMeter` against the cached ground
  truth), with the first measurement period excluded;
* Φ(Γ) and Φ(.99Γ) over those measurements;
* the time-weighted average K (the latency proxy);
* the average per-step adaptation time (Alg. 3 runtime, Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.adaptation import (
    BufferSizePolicy,
    MaxKSlackPolicy,
    ModelBasedPolicy,
    NoKSlackPolicy,
)
from ..core.pipeline import PipelineConfig, QualityDrivenPipeline, replay
from ..core.selectivity import strategy_from_name
from ..core.tuples import to_seconds
from ..quality.latency import LatencySummary, summarize_latency
from ..quality.recall import RecallMeasurement, RecallMeter
from .configs import ExperimentConfig


@dataclass
class RunResult:
    """Everything one instrumented run yields."""

    experiment: str
    policy: str
    gamma: float
    period_ms: int
    interval_ms: int
    granularity_ms: int
    basic_window_ms: int
    average_k_s: float
    average_recall: float
    phi: float
    phi99: float
    measurements: List[RecallMeasurement] = field(default_factory=list)
    results_produced: int = 0
    truth_total: int = 0
    adaptations: int = 0
    average_adaptation_ms: float = 0.0
    latency: Optional[LatencySummary] = None

    def overall_recall(self) -> float:
        """Full-history recall (produced / true), for sanity checks."""
        if self.truth_total == 0:
            return 1.0
        return min(1.0, self.results_produced / self.truth_total)


def make_policy(name: str, gamma: float = 0.95) -> BufferSizePolicy:
    """Policy factory used by benches: ``no-k-slack`` / ``max-k-slack`` /
    ``model-eqsel`` / ``model-noneqsel``."""
    normalized = name.strip().lower()
    if normalized == "no-k-slack":
        return NoKSlackPolicy()
    if normalized == "max-k-slack":
        return MaxKSlackPolicy()
    if normalized == "model-eqsel":
        return ModelBasedPolicy(strategy_from_name("eqsel"))
    if normalized == "model-noneqsel":
        return ModelBasedPolicy(strategy_from_name("noneqsel"))
    raise ValueError(f"unknown policy {name!r}")


def run_experiment(
    experiment: ExperimentConfig,
    policy: BufferSizePolicy,
    gamma: float = 0.95,
    period_ms: int = 60_000,
    interval_ms: int = 1_000,
    basic_window_ms: int = 10,
    granularity_ms: int = 10,
    warmup_ms: Optional[int] = None,
) -> RunResult:
    """Run one instrumented replay; see module docstring for what's measured."""
    dataset = experiment.dataset()
    truth = experiment.truth()
    meter = RecallMeter(truth.index, period_ms, warmup_ms=warmup_ms)

    def on_adaptation(pipeline: QualityDrivenPipeline, boundary_ms: int) -> None:
        # Anchor the measurement at the join's output progress: the result
        # stream is ordered, so counts below onT are final.
        meter.measure(pipeline.join.on_t)

    pipeline = QualityDrivenPipeline(
        PipelineConfig(
            window_sizes_ms=experiment.window_sizes_ms,
            condition=experiment.condition,
            gamma=gamma,
            period_ms=period_ms,
            interval_ms=interval_ms,
            basic_window_ms=basic_window_ms,
            granularity_ms=granularity_ms,
            policy=policy,
            collect_results=False,
        ),
        on_adaptation=on_adaptation,
        on_results=meter.record_produced,
    )
    replay(pipeline, dataset.arrivals())

    end_time = pipeline.app_time_ms()
    metrics = pipeline.metrics
    return RunResult(
        experiment=experiment.name,
        policy=getattr(policy, "name", type(policy).__name__),
        gamma=gamma,
        period_ms=period_ms,
        interval_ms=interval_ms,
        granularity_ms=granularity_ms,
        basic_window_ms=basic_window_ms,
        average_k_s=to_seconds(metrics.average_k_ms(end_time)),
        average_recall=meter.average_recall(),
        phi=meter.fulfillment(gamma),
        phi99=meter.fulfillment(gamma, slack=0.99),
        measurements=list(meter.measurements),
        results_produced=metrics.results_produced,
        truth_total=truth.index.total,
        adaptations=metrics.adaptations,
        average_adaptation_ms=metrics.average_adaptation_seconds() * 1000.0,
        latency=summarize_latency(metrics, end_time),
    )
