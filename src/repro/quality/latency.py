"""Latency accounting helpers.

The paper reports the *average K-slack buffer size* as the latency
metric: "the smaller the average K-slack buffer size, the lower the
average result latency" (Sec. VI, Metrics).  The pipeline additionally
measures the realized buffering latency of each tuple at join entry
(application time elapsed since the tuple's arrival), which these helpers
summarize alongside the K history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.pipeline import PipelineMetrics, time_weighted_average
from ..core.tuples import to_seconds

__all__ = ["LatencySummary", "summarize_latency", "time_weighted_average"]


@dataclass
class LatencySummary:
    """Latency-side outcomes of one run, in seconds for reporting."""

    average_k_s: float
    final_k_s: float
    max_k_s: float
    average_buffering_latency_s: float
    max_buffering_latency_s: float
    k_changes: int

    def row(self) -> Tuple[float, float, float, float]:
        """The columns most reports print: avg K, max K, avg and max latency."""
        return (
            self.average_k_s,
            self.max_k_s,
            self.average_buffering_latency_s,
            self.max_buffering_latency_s,
        )


def summarize_latency(
    metrics: PipelineMetrics, end_time_ms: Optional[int] = None
) -> LatencySummary:
    """Summarize the latency side of a finished pipeline run."""
    history = metrics.k_history
    return LatencySummary(
        average_k_s=to_seconds(metrics.average_k_ms(end_time_ms)),
        final_k_s=to_seconds(history[-1][1]) if history else 0.0,
        max_k_s=to_seconds(max((k for _, k in history), default=0)),
        average_buffering_latency_s=to_seconds(metrics.average_latency_ms()),
        max_buffering_latency_s=to_seconds(metrics.latency_max_ms),
        k_changes=max(0, len(history) - 1),
    )
