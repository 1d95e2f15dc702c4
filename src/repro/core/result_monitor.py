"""The Result-Size Monitor and instant-requirement derivation (Sec. IV-C).

The monitor watches the *produced* result stream and keeps the number of
results whose timestamps fall within the last ``P - L`` time units
(``N_prod^on(P-L)``), plus a history of the per-interval true-result-size
estimates ``N_true^on(L)`` handed over by the Buffer-Size Manager at each
adaptation step (these come from the profiler: ``Σ_d M^on[d]``).

From these, :meth:`ResultSizeMonitor.instant_requirement` solves Eq. 7
for the recall the *next* interval must reach so that the recall measured
over the whole period ``P`` still meets the user requirement ``Γ``:

    (N_prod(P-L) + N_true(L)·Γ') / (N_true(P-L) + N_true(L)) >= Γ

The derived ``Γ'`` is clamped to ``[0, 1]``.  (The paper's text says the
applied value is ``max{Γ', 1}``, which would always force full recall and
void the calibration — we read it as a typo for ``min{Γ', 1}``.)  A ``Γ'``
below Γ means earlier intervals overshot and the next interval may relax;
above Γ means it must compensate.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple


class ResultSizeMonitor:
    """Sliding accounting of produced results and true-size estimates.

    Parameters
    ----------
    period_ms:
        The user-specified result-quality measurement period ``P``.
    interval_ms:
        The adaptation interval ``L`` (must satisfy ``L <= P``).
    """

    def __init__(self, period_ms: int, interval_ms: int) -> None:
        if interval_ms <= 0:
            raise ValueError(f"adaptation interval must be positive, got {interval_ms}")
        if period_ms < interval_ms:
            raise ValueError(
                f"period P ({period_ms}) must be >= adaptation interval L ({interval_ms})"
            )
        self.period_ms = period_ms
        self.interval_ms = interval_ms
        #: number of completed intervals the true-size history spans
        self._history_length = max(0, (period_ms - interval_ms) // interval_ms)
        # The produced-results window must cover the same horizon as the
        # true-size history, or Eq. 7 would subtract produced results that
        # have no true-size counterpart and drag Γ' spuriously low (this
        # matters when P < 2L, where (P-L)/L rounds down to zero).
        self._window_ms = self._history_length * interval_ms
        self._produced: Deque[Tuple[int, int]] = deque()  # (result_ts, count)
        self._produced_sum = 0
        self._true_history: Deque[float] = deque(maxlen=max(1, self._history_length))

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def record_produced(self, result_ts: int, count: int = 1) -> None:
        """Record ``count`` produced results timestamped ``result_ts``."""
        if count <= 0:
            return
        self._produced.append((result_ts, count))
        self._produced_sum += count

    def record_true_estimate(self, n_true_interval: float) -> None:
        """Record one interval's ``N_true^on(L)`` estimate (adaptation step)."""
        self._true_history.append(max(0.0, n_true_interval))

    def advance_to(self, now_ts: int) -> None:
        """Drop produced results older than ``now - (P - L)``."""
        bound = now_ts - self._window_ms
        while self._produced and self._produced[0][0] <= bound:
            _, count = self._produced.popleft()
            self._produced_sum -= count

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def produced_in_window(self, now_ts: int) -> int:
        """``N_prod^on(P-L)`` with respect to ``now_ts``."""
        self.advance_to(now_ts)
        return self._produced_sum

    def true_in_window(self) -> float:
        """``N_true^on(P-L)``: sum of the last ``(P-L)/L`` interval estimates."""
        if self._history_length == 0:
            return 0.0
        return sum(self._true_history)

    def instant_requirement(
        self, gamma_target: float, n_true_next: float, now_ts: int
    ) -> float:
        """Derive ``Γ'`` for the next interval from Eq. 7, clamped to [0, 1].

        ``n_true_next`` is the expected true result size of the coming
        interval; with nothing to go on (``<= 0``) the user target is used
        unchanged.
        """
        if n_true_next <= 0.0:
            return min(max(gamma_target, 0.0), 1.0)
        produced = self.produced_in_window(now_ts)
        true_window = self.true_in_window()
        required = (gamma_target * (true_window + n_true_next) - produced) / n_true_next
        return min(max(required, 0.0), 1.0)
