"""Selectivity strategies: EqSel and NonEqSel (paper Sec. IV-B).

The recall model (Eq. 5) needs the ratio ``sel^on(K)/sel^on`` — how the
join selectivity under incomplete disorder handling relates to the ideal
selectivity.  The paper compares two strategies:

* **EqSel** assumes ``sel^on(K) = sel^on`` (ratio 1), i.e. estimates the
  recall from cross-join result sizes only.  Simple, but wrong whenever
  delayed tuples are more (or less) productive than punctual ones.
* **NonEqSel** estimates the ratio from the delay↔productivity maps
  learned by the Tuple-Productivity Profiler (Eq. 6), capturing DPcorr.

Both implement :class:`SelectivityStrategy`, parameterized per adaptation
step with the interval's :class:`~repro.core.profiler.ProfileSnapshot`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

from .profiler import ProfileSnapshot


class SelectivityStrategy(ABC):
    """Computes ``sel^on(K)/sel^on`` for candidate coarse buffer sizes.

    :meth:`ratio_breaks` tells Alg. 3 where the ratio may change, so its
    scan can rule out a run of equal-ratio candidates at once; the
    default, None, claims nothing and keeps the scan point by point.
    """

    name: str = "abstract"
    #: A number :meth:`ratio` never exceeds, or None when there is none.
    #: Alg. 3 bounds γ(K) with it (``RecallModel.first_sufficient_k``).
    ratio_cap: Optional[float] = None

    @abstractmethod
    def ratio(self, snapshot: Optional[ProfileSnapshot], coarse_k: int) -> float:
        """Selectivity ratio at coarse K (``K / g``)."""

    def ratio_breaks(self, snapshot: Optional[ProfileSnapshot]) -> Optional[Sequence[int]]:
        """The sorted coarse K at which :meth:`ratio` may differ from its
        value at ``K - 1``, or None when that may happen at any K."""
        return None


class EqSel(SelectivityStrategy):
    """Assume the selectivity is unaffected by K (ratio always 1.0)."""

    name = "EqSel"
    ratio_cap = 1.0

    def ratio(self, snapshot: Optional[ProfileSnapshot], coarse_k: int) -> float:
        return 1.0

    def ratio_breaks(self, snapshot: Optional[ProfileSnapshot]) -> Sequence[int]:
        return ()


class NonEqSel(SelectivityStrategy):
    """Estimate the ratio from the learned DPcorr maps (Eq. 6).

    ``cap_at_one`` (default True) clamps the learned ratio to <= 1.  A
    ratio above 1 claims that incompletely-handled streams join *more*
    selectively than ideal ones; feeding that into Alg. 3 — which stops
    at the first K whose estimate clears the requirement — lets a single
    small-sample spike pick a far-too-small buffer and crash the recall
    of the whole interval.  The clamp keeps NonEqSel's correction
    one-sided: it can only demand a *larger* K than EqSel, which is the
    behaviour the paper reports ("NonEqSel produces a bit higher average
    K than EqSel", Sec. VI-B).  Pass ``cap_at_one=False`` for the
    literal Eq. 6 ratio.
    """

    name = "NonEqSel"

    def __init__(self, cap_at_one: bool = True) -> None:
        self.cap_at_one = cap_at_one

    @property
    def ratio_cap(self) -> Optional[float]:  # type: ignore[override]
        return 1.0 if self.cap_at_one else None

    def ratio(self, snapshot: Optional[ProfileSnapshot], coarse_k: int) -> float:
        if snapshot is None:
            return 1.0
        ratio = snapshot.sel_ratio(coarse_k)
        return min(1.0, ratio) if self.cap_at_one else ratio

    def ratio_breaks(self, snapshot: Optional[ProfileSnapshot]) -> Sequence[int]:
        """Eq. 6 changes only at an occupied delay of the snapshot."""
        return () if snapshot is None else snapshot.occupied_delays


def strategy_from_name(name: str) -> SelectivityStrategy:
    """Factory used by experiment configs (``"eqsel"`` / ``"noneqsel"``)."""
    normalized = name.strip().lower()
    if normalized == "eqsel":
        return EqSel()
    if normalized == "noneqsel":
        return NonEqSel()
    raise ValueError(f"unknown selectivity strategy {name!r}")
