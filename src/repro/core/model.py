"""The analytical recall model ``γ(L, K)`` (paper Sec. IV-A, Eqs. 1–5).

Given a candidate buffer size ``K``, the model predicts the recall of the
join results that would be produced during the next adaptation interval:

* Eq. 2 transforms each stream's raw coarse-delay pdf ``f_{D_i}`` into the
  pdf ``f_{D_i^K}`` of delays *as seen by the join operator*: every delay
  is reduced by the total slack ``K + K_i^sync`` (K-slack buffer plus the
  stream's implicit synchronizer slack), clamping at zero.
* Eq. 3 estimates the expected cardinality of each *basic window* segment
  ``w_i^l`` (size ``b``) of the window on ``S_i``: older segments are more
  complete because late tuples whose timestamps fall there have had time
  to arrive and be inserted (Alg. 2 lines 9–10).
* Eq. 1 / Eq. 4 estimate the true and produced result sizes; their ratio,
  scaled by the selectivity ratio ``sel(K)/sel`` (Sec. IV-B), is the
  estimated recall γ(L, K) (Eq. 5).  The interval length ``L`` and the
  rate products cancel in the ratio.

Cost: Alg. 3 evaluates γ for K = 0, g, 2g, … up to MaxDH — easily
thousands of candidates per adaptation step — so the work is split by
what depends on K.

* Once per step (``RecallModel.__init__``), O(Σ_i MaxDH_i / g) at C speed
  (``itertools.accumulate``): each stream's cdf and, when g divides b, its
  stride-prefix rows; the Eq. 1 true rate; and every per-stream constant
  of Eq. 3 (K_i^sync in ms, the number of full basic windows, the span of
  the last one).
* Once per candidate (:meth:`RecallModel.produced_result_rate`), O(m)
  evaluations: each stream's in-order probability (one cdf lookup) and
  Eq. 3 cardinality (one prefix difference when g | b, a closed form when
  b | g), each computed once and then combined by Eq. 4's m·(m−1)
  multiplications.  Only when neither of b and g divides the other does a
  candidate cost O(Σ_i W_i / b).

:meth:`RecallModel.gamma` is that one candidate; Alg. 3's scan
(:meth:`RecallModel.first_sufficient_k`) and the bisecting variant in
``adaptation.py`` both go through it.  The scan itself starts where a
monotone upper bound of γ first reaches the requirement — found in
O(log(MaxDH / g)) candidates — whenever the selectivity strategy declares
a cap on its ratio, and it skips every later candidate that a rate known
further up the grid already rules out — a whole run of candidates that
share one selectivity ratio at a time, when the strategy says where its
ratio may change; which K it returns does not change.  The split is an
implementation matter only: the values equal the direct evaluation of
Eqs. 2–5, which the test suite checks against a brute-force reference.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from math import isfinite
from sys import float_info
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class CumulativePdf:
    """Cumulative distribution of a coarse-delay pdf with fast range sums.

    ``cdf(x)`` returns ``Pr[D <= x]`` (1.0 beyond the support), and
    :meth:`strided_sum` returns ``sum_{l=0}^{terms-1} cdf(start + l*step)``
    in O(1) using per-residue prefix tables built lazily per step.
    ``pdf`` holds probabilities (non-negative), so the cdf never falls.
    """

    def __init__(self, pdf: Sequence[float]) -> None:
        if not pdf:
            raise ValueError("pdf must be non-empty")
        self._cdf = cdf = list(accumulate(pdf))
        # Clamp at 1: the sums never fall, so only a tail can round past it.
        cut = bisect_right(cdf, 1.0)
        cdf[cut:] = [1.0] * (len(cdf) - cut)
        self._max_index = len(self._cdf) - 1
        self._stride_tables: Dict[int, List[List[float]]] = {}

    def cdf(self, x: int) -> float:
        if x < 0:
            return 0.0
        if x >= self._max_index:
            return self._cdf[self._max_index]
        return self._cdf[x]

    @property
    def support_max(self) -> int:
        return self._max_index

    def _table_for(self, step: int) -> List[List[float]]:
        """Per residue ``r``: ``[0, cdf[r], cdf[r] + cdf[r+step], …]``, so
        ``row[o + n] - row[o]`` sums ``n`` strided terms from offset ``o``."""
        table = self._stride_tables.get(step)
        if table is None:
            rows = [self._cdf] if step == 1 else [self._cdf[r::step] for r in range(step)]
            table = [list(accumulate(row, initial=0.0)) for row in rows]
            self._stride_tables[step] = table
        return table

    def strided_sum(self, start: int, step: int, terms: int) -> float:
        """``sum_{l=0}^{terms-1} cdf(start + l * step)`` with step >= 1."""
        if terms <= 0:
            return 0.0
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        if start < 0:
            # cdf(x) = 0 for x < 0: skip the all-negative prefix.
            skip = min(terms, (-start + step - 1) // step)
            start += skip * step
            terms -= skip
            if terms <= 0:
                return 0.0
        tail_value = self._cdf[self._max_index]
        if start > self._max_index:
            return terms * tail_value
        # Split: indices inside the table vs. saturated tail (cdf == cdf[max]).
        inside_terms = min(terms, (self._max_index - start) // step + 1)
        saturated_terms = terms - inside_terms
        prefixes = self._table_for(step)[start % step]
        offset = start // step
        inside = prefixes[offset + inside_terms] - prefixes[offset]
        return inside + saturated_terms * tail_value


@dataclass
class StreamModelInput:
    """Everything the model needs to know about one input stream."""

    pdf: Sequence[float]       # coarse-delay pdf f_{D_i} (index = bucket)
    ksync_ms: float            # estimated synchronizer slack K_i^sync
    rate_per_ms: float         # arrival rate r_i
    window_ms: int             # window size W_i


#: What Eqs. 2–3 read of one stream that no candidate K changes: the rate
#: r_i; K_i^sync floored to whole ms; the stream's cdf, then its table, last
#: index and last (saturated) value unwrapped; the ceil(W_i / b) - 1 full
#: basic windows and what W_i leaves of the last one; the cdf's stride-b/g
#: prefix rows if g | b.
_StreamTerms = Tuple[
    float, int, CumulativePdf, List[float], int, float, int, int,
    Optional[List[List[float]]],
]


class RecallModel:
    """Evaluates Eqs. 1–5 for a fixed adaptation step.

    Build one instance per adaptation step (the pdfs, rates and slacks are
    that step's snapshot, read once here), then call :meth:`gamma` for one
    candidate K or :meth:`first_sufficient_k` for Alg. 3's scan.

    Parameters
    ----------
    inputs:
        Per-stream model inputs (``m`` entries).
    basic_window_ms:
        The basic-window size ``b``.
    granularity_ms:
        The K-search granularity ``g`` (also the delay-bucket width).
    """

    def __init__(
        self,
        inputs: Sequence[StreamModelInput],
        basic_window_ms: int,
        granularity_ms: int,
    ) -> None:
        if len(inputs) < 2:
            raise ValueError("the model needs at least two streams")
        if basic_window_ms <= 0 or granularity_ms <= 0:
            raise ValueError("basic window and granularity must be positive")
        self.inputs = list(inputs)
        self.b = b = int(basic_window_ms)
        self.g = g = int(granularity_ms)
        #: index path 1: when g divides b, segment completeness indices
        #: advance by the constant integer stride b/g (O(1) strided sums).
        self._stride = stride = b // g if b % g == 0 else 0
        self._streams: List[_StreamTerms] = []
        for s in self.inputs:
            if s.window_ms <= 0 or s.ksync_ms < 0:
                raise ValueError("windows must be positive and K_sync non-negative")
            cpdf = CumulativePdf(s.pdf)
            full_segments = (s.window_ms + b - 1) // b - 1
            self._streams.append((
                s.rate_per_ms,
                int(s.ksync_ms),
                cpdf,
                cpdf._cdf,
                cpdf.support_max,
                cpdf.cdf(cpdf.support_max),
                full_segments,
                s.window_ms - full_segments * b,
                cpdf._table_for(stride) if stride else None,
            ))
        self._rates = [s.rate_per_ms for s in self.inputs]
        #: Eq. 4 multiplies stream i's term by the other streams' windows.
        m = len(self.inputs)
        self._others = [[j for j in range(m) if j != i] for i in range(m)]
        self._true_rate = self.true_result_rate()
        #: Relative slack of the bisected bound (``first_sufficient_k``):
        #: 4 · m · (longest pdf + 1)² · 2⁻⁵².
        self._guard = (
            4 * m * (max(len(s.pdf) for s in self.inputs) + 1) ** 2 * float_info.epsilon
        )
        #: Model evaluations the last ``first_sufficient_k`` paid for.
        self.last_evaluations = 0

    # ------------------------------------------------------------------
    # Eqs. 2, 3: per-stream terms of one candidate
    # ------------------------------------------------------------------

    def _per_stream(self, k_ms: int) -> Tuple[List[float], List[float]]:
        """Every stream's ``f_{D_i^K}(0)`` and ``sum_l |w_i^l|`` under K.

        Eq. 2: a tuple with coarse delay ``d`` is fully re-ordered iff its
        delay does not exceed the total slack ``K + K_i^sync``, i.e. ``d <=
        slack // g``.  Eq. 3: segment ``l`` (1-based; segment 1 is the most
        recent) has completeness ``Pr[D_i^K <= (l-1)·b]``, i.e. the cdf at
        coarse index ``(slack + (l-1)·b) // g``; the last segment spans
        only what ``W_i`` leaves of it.
        """
        if k_ms < 0:
            raise ValueError(f"K must be non-negative, got {k_ms}")
        b, g, stride = self.b, self.g, self._stride
        in_order: List[float] = []
        cardinalities: List[float] = []
        for (
            rate, ksync, cpdf, cdf, top, saturated, full_segments, tail_span, rows
        ) in self._streams:
            slack = k_ms + ksync
            first = slack // g
            in_order.append(cdf[first] if first < top else saturated)
            if rows is None:
                # index path 2, b | g: a staircase (g/b consecutive segments
                # share a bucket), still O(1); path 3, any other b and g:
                # the O(W/b) segments one by one.
                body_sum = self._staircase_sum if g % b == 0 else self._indexed_sum
                body = body_sum(cpdf, slack, full_segments)
            elif first > top:
                body = full_segments * saturated
            else:
                # CumulativePdf.strided_sum(first, stride, full_segments),
                # inlined: (slack + l·b) // g == first + l·stride when g | b.
                inside = (top - first) // stride + 1
                if inside > full_segments:
                    inside = full_segments
                prefixes = rows[first % stride]
                offset = first // stride
                body = (
                    prefixes[offset + inside] - prefixes[offset]
                    + (full_segments - inside) * saturated
                )
            last = (slack + full_segments * b) // g
            tail = tail_span * (cdf[last] if last < top else saturated)
            cardinalities.append(rate * (b * body + tail))
        return in_order, cardinalities

    def _indexed_sum(self, cpdf: CumulativePdf, slack: int, terms: int) -> float:
        """``sum_{l=0}^{terms-1} cdf((slack + l·b) // g)``, term by term."""
        return sum(cpdf.cdf((slack + l * self.b) // self.g) for l in range(terms))

    def _staircase_sum(self, cpdf: CumulativePdf, slack: int, terms: int) -> float:
        """``sum_{l=0}^{terms-1} cdf((slack + l·b) // g)`` for b | g, in O(1).

        The index ``(slack + l·b) // g`` stays at ``j0 = slack // g`` for
        the first ``r`` terms (until ``slack + l·b`` crosses the next
        multiple of g) and then advances by one every ``q = g / b`` terms.
        """
        if terms <= 0:
            return 0.0
        q = self.g // self.b
        j0 = slack // self.g
        # Terms still inside bucket j0: l with slack + l*b < (j0+1)*g.
        r = min(terms, ((j0 + 1) * self.g - slack + self.b - 1) // self.b)
        total = r * cpdf.cdf(j0)
        remaining = terms - r
        if remaining <= 0:
            return total
        full_groups = remaining // q
        if full_groups:
            total += q * cpdf.strided_sum(j0 + 1, 1, full_groups)
        leftover = remaining - full_groups * q
        if leftover:
            total += leftover * cpdf.cdf(j0 + 1 + full_groups)
        return total

    def in_order_probability(self, stream: int, k_ms: int) -> float:
        """``f_{D_i^K}(0)``: probability a tuple reaches the join in order."""
        return self._per_stream(k_ms)[0][stream]

    def expected_window_cardinality(self, stream: int, k_ms: int) -> float:
        """``sum_l |w_stream^l|``: expected live tuples in the window."""
        return self._per_stream(k_ms)[1][stream]

    # ------------------------------------------------------------------
    # Eqs. 1, 4, 5
    # ------------------------------------------------------------------

    def true_result_rate(self) -> float:
        """Cross-join true-result rate per ms (Eq. 1 without sel and L);
        no K enters it, so the model evaluates it once (``__init__``)."""
        total = 0.0
        for i, s in enumerate(self.inputs):
            product = s.rate_per_ms
            for j, other in enumerate(self.inputs):
                if j != i:
                    product *= other.rate_per_ms * other.window_ms
            total += product
        return total

    def produced_result_rate(self, k_ms: int) -> float:
        """Cross-join produced-result rate per ms under K (Eq. 4 w/o sel, L)."""
        in_order, cardinalities = self._per_stream(k_ms)
        total = 0.0
        for rate, probability, others in zip(self._rates, in_order, self._others):
            product = rate * probability
            for j in others:
                product *= cardinalities[j]
            total += product
        return total

    def gamma(self, k_ms: int, sel_ratio: float = 1.0) -> float:
        """Estimated recall γ(L, K) for buffer size ``k_ms`` (Eq. 5).

        ``sel_ratio`` is ``sel(K)/sel`` from the selectivity strategy
        (1.0 under EqSel).  The result is clamped to [0, 1]: the model's
        independence assumptions can otherwise push the estimate slightly
        above 1 when windows are effectively complete.
        """
        if self._true_rate <= 0.0:
            return 1.0
        ratio = sel_ratio * self.produced_result_rate(k_ms) / self._true_rate
        return max(0.0, min(1.0, ratio))

    def first_sufficient_k(
        self,
        requirement: float,
        sel_ratio_at: Callable[[int], float],
        max_k_ms: int,
        ratio_cap: Optional[float] = None,
        breaks: Optional[Sequence[int]] = None,
    ) -> Tuple[int, int]:
        """Alg. 3's scan: the first ``k* = 0, g, 2g, …`` whose estimate
        ``γ(L, k*)`` clears ``requirement``, or the first grid point past
        ``max_k_ms`` (MaxDH) when none does.

        ``sel_ratio_at(k* // g)`` supplies ``sel(K)/sel`` per candidate;
        ``breaks``, when given, lists in ascending order every grid index
        at which it may differ from the index before (``[]``: a constant
        ratio; ``None``, the default: any index).  Returns ``(k*, grid
        points decided)``: the index of ``k*`` plus one (the give-up index
        itself when nothing clears), whether a point was evaluated or ruled
        out; :attr:`last_evaluations` is what was paid.

        ``ratio_cap`` is a number the caller guarantees no
        ``sel_ratio_at(·)`` exceeds.  Given one, the scan does not start at
        zero: ``bound(k) = ratio_cap · produced_result_rate(k) / true_rate``
        is an upper bound of the unclamped γ(k) that no learned ratio
        enters, the grid ``[0, max_k_ms // g + 1]`` is bisected for the
        smallest index whose bound reaches ``requirement · (1 − guard)``,
        and the loop below — unchanged, still the only place a K is
        accepted — starts there.  The result is the one of the scan from
        zero, in floating point and not only in the reals:

        * *Below the bound means insufficient.*  ``ratio <= cap`` and
          ``rate >= 0`` give ``fl(ratio · rate) <= fl(cap · rate)``
          (round-to-nearest is monotone) and dividing both by the same
          positive ``true_rate`` keeps the order, so the value
          :meth:`gamma` clamps is ``<= bound(k)`` *as computed*; with
          ``requirement > 0`` the clamp cannot lift it over.
        * *The bound rises with k, up to rounding.*  The cdf tables are
          non-decreasing as computed (``accumulate`` of non-negatives) and
          every index Eqs. 2–3 read grows with k, so term-by-term sums
          (neither of b, g divides the other) are monotone as computed.
          The one operation monotone only in the reals is the stride-prefix
          difference ``prefixes[o + n] − prefixes[o]`` (g | b, and the
          staircase's ``strided_sum``).  A prefix of j non-negative terms
          carries a relative error ``<= j·u`` (u = 2⁻⁵³), the terms before
          offset o are each ``<=`` every term of the difference, hence
          ``prefixes[o + n] <= (o + n)/n ·`` difference and the
          difference's relative error is ``<= 2·(o + n)²·u / n <= 2·n_max²·u``
          with ``n_max`` the longest pdf.  Everything downstream adds and
          multiplies non-negatives: Eq. 4 multiplies m − 1 cardinalities,
          so ``produced_result_rate`` is within ``ε <= 2·m·n_max²·u`` of
          a function that is monotone in k.
        * *So a skipped index lies under an evaluated one.*  Bisection
          raises its lower end only past an index i it evaluated with
          ``bound(i) < requirement · (1 − guard)``; for j < i,
          ``bound(j) <= bound(i) · (1 + ε)/(1 − ε) · (1 + 4u)`` and
          ``guard = 4·m·(n_max + 1)²·2⁻⁵²`` — twice ``2ε`` — keeps
          that below ``requirement``.  At the paper's scale (m = 3,
          MaxDH / g = 1 000) the guard is 3·10⁻⁹: the scan starts at most
          a grid point or two early.  A guard ``>= 1``, a NaN anywhere, a
          cap that is ``None`` or not finite, ``true_rate <= 0`` or
          ``requirement <= 0`` rule nothing out: the scan starts at zero.
        * *A known rate ahead rules out the points under it.*  Every
          bisection probe that reached the threshold — index u, rate
          ``rate_u`` — is a ceiling for the grid points i <= u: with the
          point's own ratio in place of the cap, ``ratio_i · rate_u`` bounds
          ``ratio_i · rate_i`` within the same ε (u >= i) and the same guard
          covers it, so ``ratio_i · rate_u / true_rate < requirement ·
          (1 − guard)`` implies γ(i) < requirement (a negative ratio clamps
          γ to 0; a NaN never compares below).  The scan skips such a point
          unevaluated, using the smallest ceiling at or above it, and at u
          itself reuses ``rate_u`` through the operations of :meth:`gamma`
          — ``max(0, min(1, ratio · rate_u / true_rate))`` — so it accepts
          the same float the scan from zero does.  The bisection's ceilings
          are nested and free; past the last one the scan probes 2, 4, 8, …
          grid points ahead (at most to ``max_k_ms // g``) for a new one.
        * *A constant-ratio run goes at once.*  Once a point i is ruled out
          under the ceiling ``(u, rate_u)``, every point j up to the next
          break, ``u`` and ``max_k_ms // g`` (u never exceeds it) reads the
          same ratio, the same ceiling (only ceilings below j are dropped,
          and no look-ahead runs while one is left) and so the same float
          estimate: each one would be ruled out in turn.  The scan skips
          them together and credits each, so ``steps``, the credit, the
          look-ahead timing and :attr:`last_evaluations` are those of the
          point-by-point loop; without ``breaks`` it is that loop.
        * *The credit rule.*  A look-ahead probe is paid only with a skip
          already made: one probe per grid point skipped so far.  So
          :attr:`last_evaluations` — bisection probes, look-ahead probes
          and the points :meth:`gamma` evaluated — never exceeds what the
          bisection plus one evaluation per scanned point would pay.
        """
        g, true_rate = self.g, self._true_rate
        start = paid = credit = 0
        ceilings: List[Tuple[int, float]] = []
        if (
            ratio_cap is not None and isfinite(ratio_cap)
            and true_rate > 0.0 and requirement > 0.0
        ):
            threshold = requirement * (1.0 - self._guard)
            stop = max_k_ms // g + 1
            while start < stop:
                middle = (start + stop) // 2
                paid += 1
                rate = self.produced_result_rate(middle * g)
                if ratio_cap * rate / true_rate < threshold:
                    start = middle + 1
                else:
                    stop = middle
                    ceilings.append((middle, rate))
        k_star, steps, ahead = start * g, start, 2
        while k_star <= max_k_ms:
            ratio = sel_ratio_at(steps)  # steps is k_star's grid index here
            while ceilings and ceilings[-1][0] < steps:
                ceilings.pop()
            if credit and not ceilings:  # look ahead, paid by a skip
                probe = min(steps + ahead, max_k_ms // g)
                ceilings.append((probe, self.produced_result_rate(probe * g)))
                credit, ahead, paid = credit - 1, 2 * ahead, paid + 1
            if not ceilings:
                paid += 1
                estimate = self.gamma(k_star, ratio)
            else:
                ceiling, rate = ceilings[-1]
                estimate = ratio * rate / true_rate
                if estimate < threshold:
                    # Ruled out unevaluated (threshold <= requirement), and
                    # with it the rest of the ratio's run under this ceiling.
                    last = steps
                    if breaks is not None:
                        after = bisect_right(breaks, steps)
                        last = ceiling
                        if after < len(breaks):
                            last = min(ceiling, breaks[after] - 1)
                    credit += last - steps + 1
                    steps, k_star = last, last * g
                elif ceiling == steps:
                    estimate = max(0.0, min(1.0, estimate))  # gamma's own operations
                else:
                    paid += 1
                    estimate = self.gamma(k_star, ratio)
            steps += 1
            if estimate >= requirement:
                break
            k_star += g
        self.last_evaluations = paid
        return k_star, steps

    def estimated_true_results(self, interval_ms: int, selectivity: float = 1.0) -> float:
        """``N_true^on(L)`` via Eq. 1 (used as a cross-check; the pipeline
        prefers the profiler-based estimate, paper Sec. IV-C)."""
        return selectivity * self._true_rate * interval_ms
