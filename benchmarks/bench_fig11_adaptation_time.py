"""Fig. 11 — time needed to determine the optimal K in an adaptation step.

The paper measures the wall-clock runtime of Alg. 3 per adaptation step
for g ∈ {1, 10, 100, 1000} ms and Γ ∈ {0.9, 0.95, 0.99, 0.999} on all
three datasets.  Expected shapes: the adaptation time *decreases* with g
(fewer search candidates) and *increases* with Γ (the search runs further
before the estimate clears the requirement) and with the number of
streams m; for g >= 10 ms it stays in the low-millisecond range.

Absolute numbers here are Python, not the paper's C++ engine — the shape
is the target.  (In the paper and in this implementation the buffer-size
manager's work overlaps the join thread / is a small fraction of the
replay, so these times are not on the tuple path.)
"""

from common import ALL_EXPERIMENTS, report, run

GRANULARITIES_MS = (1, 10, 100, 1_000)
GAMMAS = (0.9, 0.95, 0.99, 0.999)


def _sweep():
    outcomes = []
    for name in ALL_EXPERIMENTS:
        for gamma in GAMMAS:
            for g in GRANULARITIES_MS:
                outcomes.append(
                    run(name, "model-noneqsel", gamma=gamma, granularity_ms=g)
                )
    return outcomes


def test_fig11_adaptation_time(benchmark):
    outcomes = benchmark.pedantic(_sweep, rounds=1, iterations=1)

    rows = [
        (
            o.experiment,
            o.gamma,
            o.granularity_ms,
            f"{o.average_adaptation_ms:.3f}",
            o.adaptations,
        )
        for o in outcomes
    ]
    report(
        "fig11_adaptation_time",
        "Fig. 11 — average Alg. 3 runtime per adaptation step (ms)",
        ["dataset", "Gamma", "g (ms)", "avg adaptation (ms)", "#steps"],
        rows,
    )

    # Shape: coarser g is never slower than the finest g (fewer search
    # steps), for every dataset and Gamma.
    for label in sorted({o.experiment for o in outcomes}):
        for gamma in GAMMAS:
            subset = sorted(
                (o for o in outcomes if o.experiment == label and o.gamma == gamma),
                key=lambda o: o.granularity_ms,
            )
            times = [o.average_adaptation_ms for o in subset]
            assert times[-1] <= times[0] + 0.5, (label, gamma, times)
    # Coarse-granularity adaptation stays in the low-millisecond range
    # (worst cell measured: 3.4 ms, D2real-sim at g = 10, on a busy
    # 2-core box; docs/BENCHMARKS.md has the whole table).
    for o in outcomes:
        if o.granularity_ms >= 10:
            assert o.average_adaptation_ms < 10.0, (
                o.experiment,
                o.gamma,
                o.granularity_ms,
                o.average_adaptation_ms,
            )
