"""Pytest configuration for the benchmark suite.

Benchmarks live outside the default ``testpaths`` and run via::

    pytest benchmarks/ --benchmark-only

Each bench times one full sweep with ``benchmark.pedantic(rounds=1)`` —
the interesting output is the printed report (also written to
``results/``), not the timing statistics; a single round keeps the whole
suite re-runnable in minutes.

Workload scaling: benches size their datasets off the
``REPRO_BENCH_SCALE`` environment variable (see ``common.bench_scale``)
— CI smoke jobs export e.g. ``REPRO_BENCH_SCALE=0.1`` to run at 1/10
scale without editing gate constants.  The ``--bench-scale`` option is
a convenience spelling of the same knob::

    pytest benchmarks/bench_ext_nexmark.py --bench-scale 0.1
"""

import os
import sys
from pathlib import Path

# Make `import common` work regardless of invocation directory.
sys.path.insert(0, str(Path(__file__).resolve().parent))


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        default=None,
        help="workload scale factor; equivalent to REPRO_BENCH_SCALE=<x>",
    )


def pytest_configure(config):
    scale = config.getoption("--bench-scale")
    if scale is not None:
        float(scale)  # fail fast on a malformed value
        # Runs before any bench sizes a workload, so the per-call
        # common.bench_scale() reader observes it.
        os.environ["REPRO_BENCH_SCALE"] = scale
