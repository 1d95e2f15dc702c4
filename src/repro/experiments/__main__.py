"""Command-line experiment runner: ``python -m repro.experiments``.

Runs one of the paper's (dataset, query) pairs under a chosen policy and
prints the measured quality/latency outcomes, e.g.::

    python -m repro.experiments --experiment d3 --policy model-noneqsel \
        --gamma 0.95 --period 15 --interval 1

    python -m repro.experiments --experiment soccer --policy max-k-slack

    python -m repro.experiments --experiment d4 --policy model-eqsel \
        --gamma 0.99 --series        # also dump the gamma(P) time series
"""

from __future__ import annotations

import argparse
import sys

from ..core.tuples import seconds
from .configs import all_experiments
from .runner import make_policy, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run one paper experiment and print the measured outcomes.",
    )
    parser.add_argument(
        "--experiment",
        choices=("soccer", "d3", "d4", "nexmark", "nexmark-pab"),
        default="d3",
        help="(dataset, query) pair (default: d3)",
    )
    parser.add_argument(
        "--policy",
        choices=("no-k-slack", "max-k-slack", "model-eqsel", "model-noneqsel"),
        default="model-noneqsel",
        help="buffer-size policy (default: model-noneqsel)",
    )
    parser.add_argument("--gamma", type=float, default=0.95, help="recall requirement Γ")
    parser.add_argument("--period", type=float, default=15.0, help="measurement period P (s)")
    parser.add_argument("--interval", type=float, default=1.0, help="adaptation interval L (s)")
    parser.add_argument("--basic-window", type=float, default=0.01, help="basic window b (s)")
    parser.add_argument("--granularity", type=float, default=0.01, help="search granularity g (s)")
    parser.add_argument("--scale", type=float, default=1.0, help="workload duration scale")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper's full workload parameters (slow)",
    )
    parser.add_argument(
        "--series", action="store_true", help="print the gamma(P) time series"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    experiment = all_experiments(scale=args.scale, paper_scale=args.paper_scale)[
        args.experiment
    ]
    print(experiment.dataset().describe())
    print("computing ground truth ...", flush=True)
    print(f"true join results: {experiment.truth().index.total}")

    outcome = run_experiment(
        experiment,
        make_policy(args.policy, args.gamma),
        gamma=args.gamma,
        period_ms=seconds(args.period),
        interval_ms=seconds(args.interval),
        basic_window_ms=max(1, seconds(args.basic_window)),
        granularity_ms=max(1, seconds(args.granularity)),
    )

    print(f"\npolicy:               {outcome.policy}")
    print(f"recall requirement:   Γ = {outcome.gamma}  over P = {args.period} s")
    print(f"average K:            {outcome.average_k_s:.3f} s")
    print(f"average recall γ(P):  {outcome.average_recall:.4f}")
    print(f"Φ(Γ):                 {outcome.phi:.3f}")
    print(f"Φ(.99Γ):              {outcome.phi99:.3f}")
    print(f"results produced:     {outcome.results_produced} / {outcome.truth_total}")
    print(f"adaptation steps:     {outcome.adaptations}")
    print(f"avg adaptation time:  {outcome.average_adaptation_ms:.3f} ms")
    if outcome.latency is not None:
        print(f"avg buffering latency: {outcome.latency.average_buffering_latency_s:.3f} s")

    if args.series:
        print("\ngamma(P) time series:")
        for m in outcome.measurements:
            print(f"  t={m.at_ms / 1000.0:8.1f}s  recall={m.recall:.4f} "
                  f"({m.produced}/{m.true})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
