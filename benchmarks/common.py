"""Shared infrastructure for the paper-reproduction benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper's
evaluation (Sec. VI).  Datasets and their ground truths are generated
once per session and shared across benches through
:func:`experiment` — the figure sweeps then re-run only the pipeline.

Scaling: the paper's runs are 23–30 minutes at 100 tuples/s on a C++
engine; the default bench scale is ~90 s of stream time at 10–20
tuples/s (see ``repro.experiments.configs``).  Set the environment
variable ``REPRO_BENCH_SCALE`` to stretch the runs (e.g. ``2.0`` doubles
the stream duration) or ``REPRO_PAPER_SCALE=1`` for the full paper
parameters (hours of wall-clock in pure Python).

Scaled parameter grids: the measurement-period (Fig. 8) and adaptation-
interval (Fig. 9) sweeps are rescaled so they fit within the shortened
runs; the mapping is printed in each report header.

The extension benches time configurations with :func:`best_of`.  Their
synthetic workloads (:func:`repro.workloads.interleaved_dataset`) and
lossless front end (:func:`repro.workloads.fixed_k_config`) come from
the engine toolkit the tests share, and :func:`repro.replay` drives
every engine through a dataset.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Sequence, Tuple, Union

from repro import JoinCondition, ThetaPredicate, equi_join_chain, seconds
from repro.core.adaptation import BufferSizePolicy
from repro.experiments.configs import (
    ExperimentConfig,
    d3_experiment,
    d4_experiment,
    nexmark_experiment,
    nexmark_pab_experiment,
    soccer_experiment,
)
from repro.experiments.report import format_table, print_and_save
from repro.experiments.runner import RunResult, make_policy, run_experiment
from repro.workloads import fixed_k_config, interleaved_dataset

PAPER_SCALE = os.environ.get("REPRO_PAPER_SCALE", "") not in ("", "0", "false")

try:
    CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux
    CPUS = os.cpu_count() or 1
#: Whether shard processes can genuinely overlap; the strict timing
#: gates arm only then (and only at full workload scale).
MULTICORE = CPUS >= 2


def bench_scale() -> float:
    """The current ``REPRO_BENCH_SCALE``, read per call.

    The one reader of the variable: re-reading the environment honours
    both ``conftest.py``'s ``--bench-scale`` option (set in
    ``pytest_configure``, i.e. possibly after this module was first
    imported by an earlier test session) and CI steps that export the
    variable between pytest invocations.  Benches size workloads
    through this or :func:`scaled` so CI can run them at 1/10 scale
    without editing gate constants.
    """
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(base: int, floor: int = 1) -> int:
    """Scale an integer workload knob by ``REPRO_BENCH_SCALE``.

    ``floor`` guards knobs with structural minima (a window that must
    hold at least a few tuples, a phase that must be non-empty): the CI
    smoke scale shrinks the run without degenerating the scenario.  Gate
    *constants* stay untouched — only workload sizes scale.
    """
    return max(floor, int(base * bench_scale()))


#: Default pipeline parameters at bench scale.  The paper uses P = 60 s,
#: L = 1 s, b = g = 10 ms; with runs of ~90 s a 60-second measurement
#: period leaves too few samples, so the bench default is P = 15 s
#: (same P/L ratio spirit; Fig. 8 sweeps P explicitly).
DEFAULT_PERIOD_MS = 15_000 if not PAPER_SCALE else 60_000
DEFAULT_INTERVAL_MS = 1_000
DEFAULT_B_MS = 10
DEFAULT_G_MS = 10

_cache: Dict[str, ExperimentConfig] = {}


def experiment(name: str) -> ExperimentConfig:
    """Cached experiment configs keyed by ``soccer`` / ``d3`` / ``d4``."""
    if name not in _cache:
        factories = {
            "soccer": soccer_experiment,
            "d3": d3_experiment,
            "d4": d4_experiment,
            "nexmark": nexmark_experiment,
            "nexmark-pab": nexmark_pab_experiment,
        }
        _cache[name] = factories[name](scale=bench_scale(), paper_scale=PAPER_SCALE)
    return _cache[name]


def run(
    exp_name: str,
    policy: Union[str, BufferSizePolicy],
    gamma: float = 0.95,
    period_ms: int = None,
    interval_ms: int = None,
    basic_window_ms: int = None,
    granularity_ms: int = None,
) -> RunResult:
    """One instrumented pipeline run with bench defaults filled in;
    ``policy`` is a ``make_policy`` name or a policy object."""
    exp = experiment(exp_name)
    return run_experiment(
        exp,
        make_policy(policy, gamma) if isinstance(policy, str) else policy,
        gamma=gamma,
        period_ms=period_ms or DEFAULT_PERIOD_MS,
        interval_ms=interval_ms or DEFAULT_INTERVAL_MS,
        basic_window_ms=basic_window_ms or DEFAULT_B_MS,
        granularity_ms=granularity_ms or DEFAULT_G_MS,
    )


def report(name: str, title: str, headers: Sequence[str], rows: List[Sequence]) -> str:
    """Format, print, and persist one bench report; returns the text."""
    text = format_table(headers, rows, title=title)
    print_and_save(name, text)
    return text


ALL_EXPERIMENTS = ("soccer", "d3", "d4")

# ----------------------------------------------------------------------
# the extension benches' timing helper
# ----------------------------------------------------------------------


def best_of(
    configurations: Sequence[Tuple[str, Callable[[], object]]], rounds: int = 1
) -> Tuple[Dict[str, object], Dict[str, float]]:
    """Run every ``(label, run)`` once per round, rounds interleaved.

    Returns ``({label: run()}, {label: best wall seconds})``.  One full
    sweep per round lets load drift on a shared machine hit every
    configuration about equally instead of whichever ran last; the best
    round is the noise shield.
    """
    values: Dict[str, object] = {}
    best: Dict[str, float] = {}
    for _ in range(rounds):
        for label, run in configurations:
            started = time.perf_counter()
            values[label] = run()
            elapsed = time.perf_counter() - started
            best[label] = min(elapsed, best.get(label, elapsed))
    return values, best


# ----------------------------------------------------------------------
# heavy-probe workload (shared by the partitioned / columnar benches)
# ----------------------------------------------------------------------

#: Window size of the heavy-probe scenario.  With ``HEAVY_DOMAIN`` key
#: values over a 60 ms per-stream inter-arrival, a 12 s window holds
#: ~40 tuples per key and stream, so each in-order trigger enumerates
#: ~40² candidate pairs — around a millisecond of probe work per tuple,
#: >10× the D3syn sweep's ~80 µs, which is what a parallel engine needs
#: to amortize its per-tuple transport cost against.
HEAVY_WINDOW_S = 12
HEAVY_DOMAIN = 5
HEAVY_MAX_DELAY_MS = 800


def heavy_probe_dataset():
    """Three interleaved streams, tiny key domain, ~20% delayed arrivals.

    The original D3syn partitioned sweep finishes in ~0.2 s wall — far
    too light for shard parallelism to show anything but IPC overhead
    (which is exactly how the pre-columnar regression stayed hidden).
    This workload raises per-tuple probe work by >10× (see
    ``HEAVY_WINDOW_S``) while keeping the equi-chain exactly
    partitionable.
    """
    # Floor well above the smoke scale: below ~1200 tuples the 12 s
    # window never fills and worker spawn overhead dwarfs the run,
    # which would turn the columnar gates into coin flips.
    return interleaved_dataset(
        "heavy-probe", scaled(2_400, floor=1_200), 20, HEAVY_MAX_DELAY_MS,
        HEAVY_DOMAIN, seed=7,
    )


def _any_combination(_a, _b, _c) -> bool:
    return True


def heavy_probe_config(
    k_ms: int, window_s: float = HEAVY_WINDOW_S, collect: bool = False
):
    """The pipeline config every heavy-probe bench runs against.

    One factory so the partitioned, columnar, ingest, distributed, skew
    and fault-tolerance benches cannot drift apart on the scenario.

    The shard-scaling gates built on this scenario assume it is
    compute-bound (~1 ms of probe per tuple).  A bare equi chain no
    longer is: a count-only probe answers it as a product of index
    bucket sizes, and the benches would measure IPC alone.  The
    always-true predicate over all three streams closes at the last
    depth and keeps every probe enumerating its ~1 500 combinations;
    result counts — hence every count-identity gate — are unchanged, and
    the equi chain still hash-partitions the join exactly.  (A module
    level function, so the config pickles into socket-hosted workers.)
    """
    condition = JoinCondition(
        equi_join_chain("a1", 3).predicates
        + [ThetaPredicate((0, 1, 2), _any_combination)]
    )
    return fixed_k_config(k_ms, [seconds(window_s)] * 3, condition, collect)


# ----------------------------------------------------------------------
# Zipf-skewed hot-key workload (bench_ext_skew)
# ----------------------------------------------------------------------

#: Key domain of the skewed scenario.  Large enough that many keys land
#: on every shard under static hashing (so slot moves have something to
#: repack), small enough that the hot ranks dominate the load.
SKEW_DOMAIN = 64
SKEW_MAX_DELAY_MS = 400
#: Per-arrival gap in ms; three interleaved streams → 3× this per stream.
SKEW_INTER_ARRIVAL_MS = 15


def skewed_hot_key_dataset(z: float = 1.2):
    """Three interleaved streams whose join attribute is Zipf(z)-skewed.

    The paper's synthetic workloads draw join-attribute values from
    bounded Zipf distributions (Sec. VI); this is that value skew pointed
    at the *partitioned* engine: with ``z >= 1`` a handful of hot keys
    concentrates both routing load and probe work (hot keys also build
    the largest windows, so work skew grows faster than tuple skew) onto
    whatever shards static hashing happens to give them.  ``z = 0``
    degenerates to the uniform control.  ~20% of arrivals are delayed up
    to ``SKEW_MAX_DELAY_MS`` so disorder handling stays in the loop.
    """
    return interleaved_dataset(
        f"skew-z{z}", scaled(6_000, floor=3_000), SKEW_INTER_ARRIVAL_MS,
        SKEW_MAX_DELAY_MS, SKEW_DOMAIN, seed=5, zipf=z,
    )
