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
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Union

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

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
PAPER_SCALE = os.environ.get("REPRO_PAPER_SCALE", "") not in ("", "0", "false")


def bench_scale() -> float:
    """The current ``REPRO_BENCH_SCALE``, read per call.

    Unlike the import-time :data:`BENCH_SCALE` constant, this re-reads
    the environment, so ``conftest.py``'s ``--bench-scale`` option (set
    in ``pytest_configure``, i.e. possibly after this module was first
    imported by an earlier test session) and CI steps that export the
    variable between pytest invocations are both honoured.  New benches
    (soak, NEXMark) must size workloads through this or :func:`scaled`
    so CI can run them at 1/10 scale without editing gate constants.
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


def heavy_probe_dataset(num_tuples: int = None, seed: int = 7):
    """Three interleaved streams, tiny key domain, ~20% delayed arrivals.

    The original D3syn partitioned sweep finishes in ~0.2 s wall — far
    too light for shard parallelism to show anything but IPC overhead
    (which is exactly how the pre-columnar regression stayed hidden).
    This workload raises per-tuple probe work by >10× (see
    ``HEAVY_WINDOW_S``) while keeping the equi-chain exactly
    partitionable.
    """
    import random

    from repro import from_tuple_specs

    # Floor well above the smoke scale: below ~1200 tuples the 12 s
    # window never fills and worker spawn overhead dwarfs the run,
    # which would turn the columnar gates into coin flips.
    if num_tuples is None:
        num_tuples = max(1_200, int(2_400 * BENCH_SCALE))
    rng = random.Random(seed)
    events = []
    for i in range(num_tuples):
        delay = 0 if rng.random() < 0.8 else rng.randint(1, HEAVY_MAX_DELAY_MS)
        events.append((i % 3, i * 20, delay, rng.randint(1, HEAVY_DOMAIN)))
    order = sorted(
        range(num_tuples), key=lambda i: (events[i][1] + events[i][2], i)
    )
    specs = [(events[i][0], events[i][1], {"a1": events[i][3]}) for i in order]
    return from_tuple_specs(specs, num_streams=3, name="heavy-probe")


def _any_combination(_a, _b, _c) -> bool:
    return True


def heavy_probe_config(k_ms: int, window_s: int = None, collect: bool = False):
    """The pipeline config both heavy-probe benches run against.

    One factory so ``bench_ext_partitioned`` and ``bench_ext_columnar``
    cannot drift apart on the scenario parameters.

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
    from repro import (
        FixedKPolicy,
        JoinCondition,
        PipelineConfig,
        ThetaPredicate,
        equi_join_chain,
        seconds,
    )

    return PipelineConfig(
        window_sizes_ms=[seconds(window_s or HEAVY_WINDOW_S)] * 3,
        condition=JoinCondition(
            equi_join_chain("a1", 3).predicates
            + [ThetaPredicate((0, 1, 2), _any_combination)]
        ),
        gamma=0.95,
        period_ms=15_000,
        interval_ms=1_000,
        policy=FixedKPolicy(k_ms),
        initial_k_ms=k_ms,
        collect_results=collect,
    )


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


def skewed_hot_key_dataset(num_tuples: int = None, z: float = 1.2, seed: int = 5):
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
    import random

    from repro import ZipfValueSampler, from_tuple_specs

    if num_tuples is None:
        num_tuples = max(3_000, int(6_000 * BENCH_SCALE))
    rng = random.Random(seed)
    sampler = ZipfValueSampler(list(range(1, SKEW_DOMAIN + 1)), z, rng)
    events = []
    for i in range(num_tuples):
        delay = 0 if rng.random() < 0.8 else rng.randint(1, SKEW_MAX_DELAY_MS)
        events.append(
            (i % 3, i * SKEW_INTER_ARRIVAL_MS, delay, sampler.sample())
        )
    order = sorted(
        range(num_tuples), key=lambda i: (events[i][1] + events[i][2], i)
    )
    specs = [(events[i][0], events[i][1], {"a1": events[i][3]}) for i in order]
    return from_tuple_specs(specs, num_streams=3, name=f"skew-z{z}")


def skewed_config(k_ms: int, collect: bool = False, window_s: float = 1.0):
    """Pipeline config of the skewed scenario (fixed lossless K)."""
    from repro import FixedKPolicy, PipelineConfig, equi_join_chain, seconds

    return PipelineConfig(
        window_sizes_ms=[seconds(window_s)] * 3,
        condition=equi_join_chain("a1", 3),
        gamma=0.95,
        period_ms=15_000,
        interval_ms=1_000,
        policy=FixedKPolicy(k_ms),
        initial_k_ms=k_ms,
        collect_results=collect,
    )
