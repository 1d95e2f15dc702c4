"""Buffer-Size Manager policies (paper Sec. III-A, IV; Alg. 3).

The Buffer-Size Manager decides, at the end of every adaptation interval
``L``, the common buffer size ``K`` that all K-slack components will use
during the next interval (the Same-K policy, Theorem 1).  This module
provides the paper's model-based manager and the baselines it is
evaluated against:

* :class:`ModelBasedPolicy` — Alg. 3: derive the instant requirement
  ``Γ'`` (Eq. 7), then search ``k* = 0, g, 2g, …`` until the model
  predicts ``γ(L, k*) >= Γ'`` or ``k*`` exceeds the maximum observed
  delay ``MaxDH``.  The selectivity strategy (EqSel / NonEqSel) supplies
  ``sel(K)/sel`` per candidate, the cap on it that lets the scan skip
  the grid points a monotone bound of γ rules out, and the grid points
  where it may change, so a run of equal ratios is ruled out at once.
* :class:`NoKSlackPolicy` — ``K = 0``: inter-stream synchronization only
  (paper Sec. VI baseline).
* :class:`MaxKSlackPolicy` — ``K`` equals the maximum delay among
  so-far-observed tuples, updated continuously (the state-of-the-art
  baseline, after Mutschler & Philippsen [12]).
* :class:`FixedKPolicy` — a user-pinned ``K`` (the "latency-constrained"
  mode offered by prior work, kept for ablations).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

from .model import RecallModel, StreamModelInput
from .profiler import ProfileSnapshot
from .result_monitor import ResultSizeMonitor
from .selectivity import SelectivityStrategy
from .statistics import StatisticsManager
from .tuples import StreamTuple


@dataclass
class AdaptationContext:
    """Everything a policy may consult at an adaptation step."""

    statistics: StatisticsManager
    profile: Optional[ProfileSnapshot]
    monitor: ResultSizeMonitor
    gamma_target: float
    interval_ms: int
    basic_window_ms: int
    granularity_ms: int
    window_sizes_ms: Sequence[int]
    now_ts: int
    current_k_ms: int


class BufferSizePolicy(ABC):
    """Strategy object deciding the shared K-slack buffer size.

    ``reads_model_inputs`` declares whether :meth:`decide` reads the
    recall model's inputs: the context's ``profile`` (the
    Tuple-Productivity Profiler's snapshot), its ``monitor`` (the Eq. 7
    Result-Size Monitor) and the Statistics Manager's reads.  The
    default, ``True``, is the fed path: the pipeline records every joined
    tuple's productivity and every produced result, snapshots the
    profile at each step and hands it to :meth:`decide`.  A policy that
    declares ``False`` promises to read none of them; the pipeline then
    feeds neither the profiler nor the monitor and passes
    ``profile=None`` (its ``statistics`` stay exact, since every read
    folds first).  :meth:`on_arrival` is called per raw tuple only when a
    subclass overrides it.
    """

    name: str = "abstract"
    reads_model_inputs: bool = True

    def on_arrival(self, t: StreamTuple) -> Optional[int]:
        """Hook called for every raw tuple (delay annotation set).

        Continuous policies (Max-K-slack) return a new K to apply
        immediately; interval policies return None.
        """
        return None

    @abstractmethod
    def decide(self, context: AdaptationContext) -> int:
        """Return the K (ms) to use for the next adaptation interval."""


class NoKSlackPolicy(BufferSizePolicy):
    """Baseline: no intra-stream disorder handling (K = 0).

    Reads no model input (``reads_model_inputs = False``).
    """

    name = "No-K-slack"
    reads_model_inputs = False

    def decide(self, context: AdaptationContext) -> int:
        return 0


class FixedKPolicy(BufferSizePolicy):
    """A constant, user-chosen K (latency-constrained disorder handling).

    Reads no model input (``reads_model_inputs = False``).
    """

    name = "Fixed-K"
    reads_model_inputs = False

    def __init__(self, k_ms: int) -> None:
        if k_ms < 0:
            raise ValueError(f"K must be non-negative, got {k_ms}")
        self.k_ms = int(k_ms)

    def decide(self, context: AdaptationContext) -> int:
        return self.k_ms


class MaxKSlackPolicy(BufferSizePolicy):
    """Baseline: K tracks the maximum delay among so-far-observed tuples.

    Each increase is triggered by an out-of-order tuple whose delay
    exceeds the current K — that tuple itself is therefore *not* fully
    re-ordered, which is why Max-K-slack does not guarantee recall 1.0
    (paper Sec. VI-A).  It reads only the delay annotations that reach
    :meth:`on_arrival`, no model input (``reads_model_inputs = False``).
    """

    name = "Max-K-slack"
    reads_model_inputs = False

    def __init__(self) -> None:
        self._max_delay = 0

    def on_arrival(self, t: StreamTuple) -> Optional[int]:
        if t.delay > self._max_delay:
            self._max_delay = t.delay
            return self._max_delay
        return None

    def decide(self, context: AdaptationContext) -> int:
        return self._max_delay


class ModelBasedPolicy(BufferSizePolicy):
    """The paper's contribution: model-based K search (Alg. 3).

    Parameters
    ----------
    selectivity:
        The strategy supplying ``sel(K)/sel`` (EqSel or NonEqSel).
    shrink_damping:
        Stability guard on the downward direction: the applied K never
        drops below ``shrink_damping * previous K`` in one step (growth
        is instantaneous).  Without damping, the Eq. 7 calibration
        bang-bangs: an interval of full recall relaxes Γ' sharply, K
        collapses, the next interval undershoots, Γ' snaps to 1, K jumps
        to MaxDH, and so on — the thrash drags Φ(Γ) down at the *same*
        average K.  Geometric decay (default 0.5 per interval) removes
        the oscillation; it plays the role the PD controller's derivative
        term played in the authors' earlier aggregate-query work [16, 17].
        Set to 0.0 for the undamped, paper-literal Alg. 3.

    The K search is :meth:`~repro.core.model.RecallModel.first_sufficient_k`:
    the paper's scan, started where a bisected upper bound of γ (the
    strategy's ``ratio_cap``) crosses Γ', so it returns the scan's k*.
    """

    def __init__(
        self,
        selectivity: SelectivityStrategy,
        shrink_damping: float = 0.5,
    ) -> None:
        if not 0.0 <= shrink_damping < 1.0:
            raise ValueError(f"shrink_damping must be in [0, 1), got {shrink_damping}")
        self.selectivity = selectivity
        self.shrink_damping = shrink_damping
        self.name = f"Model-based({selectivity.name})"
        #: Exposed after each decide() call, for diagnostics and tests.
        self.last_instant_requirement: float = 0.0
        #: Grid points Alg. 3 decided (the index of k* plus one) and model
        #: evaluations it paid for them (bisection and look-ahead probes +
        #: the points ``gamma`` evaluated).
        self.last_search_steps: int = 0
        self.last_model_evaluations: int = 0
        self.last_undamped_k: int = 0

    def decide(self, context: AdaptationContext) -> int:
        max_dh = context.statistics.max_delay_ms()
        profile = context.profile
        n_true_next = profile.true_result_estimate() if profile else 0.0
        instant = context.monitor.instant_requirement(
            context.gamma_target, n_true_next, context.now_ts
        )
        self.last_instant_requirement = instant
        model = build_recall_model(context)
        k_star, steps = model.first_sufficient_k(
            instant,
            partial(self.selectivity.ratio, profile),
            max_dh,
            self.selectivity.ratio_cap,
            self.selectivity.ratio_breaks(profile),
        )
        self.last_search_steps = steps
        self.last_model_evaluations = model.last_evaluations
        self.last_undamped_k = k_star
        floor = int(context.current_k_ms * self.shrink_damping)
        return max(k_star, floor)


def build_recall_model(context: AdaptationContext) -> RecallModel:
    """Assemble the Eq. 1–5 model from the current runtime statistics."""
    stats = context.statistics
    pdfs = stats.delay_pdfs()
    ksyncs = stats.ksync_estimates_ms()
    rates = stats.rates_per_ms()
    inputs: List[StreamModelInput] = [
        StreamModelInput(
            pdf=pdfs[i],
            ksync_ms=ksyncs[i],
            rate_per_ms=rates[i],
            window_ms=context.window_sizes_ms[i],
        )
        for i in range(stats.num_streams)
    ]
    return RecallModel(
        inputs,
        basic_window_ms=context.basic_window_ms,
        granularity_ms=context.granularity_ms,
    )
