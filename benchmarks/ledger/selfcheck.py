"""``run.py --self-check``: the ledger's own acceptance checks.

Run at smoke scale on the *second* pinned seed (nothing may be tuned to
the default input), in fresh interpreters like real runs.  Not a
``test_*.py``: tier-1 must not get slower for a benchmark's sake.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List

import measure
import metrics
import workloads

ROOT = Path(__file__).resolve().parents[2]


def run(args, spawn: Callable[..., Dict]) -> int:
    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(manifest == metrics.manifest(), "BENCHMARK.json matches metrics.py and workloads.py")
    pins = json.loads((Path(__file__).with_name("pins.json")).read_text(encoding="utf-8"))
    for seed in (workloads.DEFAULT_SEED, workloads.SECOND_SEED):
        check(
            set(pins.get(str(seed), {})) == set(workloads.BY_NAME),
            f"pins.json pins every workload for seed {seed}",
        )

    args.seed, args.scale, args.seconds = workloads.SECOND_SEED, 0.1, 0.0
    count_names = [m.name for m in metrics.PER_LAYER if m.unit == "count"]
    for workload in workloads.WORKLOADS:
        name = workload.name
        plain = spawn(name, args, "0", f"check_{name}")
        check(
            plain["exit"] == 0 and plain["ledger"]["failed_share"] == 0,
            f"{name}: smoke run on seed {args.seed} agrees with the oracle",
        )
        if not workload.adaptive:
            check(
                plain.get("produced_results") == plain.get("expected_results"),
                f"{name}: lossless K produces exactly the oracle's count",
            )
        first = spawn(name, args, "1", f"check_{name}_t1")
        second = spawn(name, args, "1", f"check_{name}_t2")
        moved = [
            c for c in count_names if first["per_layer"].get(c) != second["per_layer"].get(c)
        ]
        check(
            first["exit"] == second["exit"] == 0 and bool(first["per_layer"]) and not moved,
            f"{name}: every count metric repeats across two traced runs {moved or ''}",
        )
        if not workload.sharded:
            coverage = first["per_layer"].get("trace.coverage", 0.0)
            check(coverage >= 0.9, f"{name}: trace.coverage {coverage:.3f} >= 0.9")

    # NEXMark timestamps fall on every millisecond, so pairs exactly W
    # apart exist (heavy_probe's cross-stream gaps never equal its W).
    short = spawn("nexmark_tiered", args, "0", "check_short", ["--oracle-window-delta", "-1"])
    check(
        short["exit"] != 0 and short["ledger"]["failed_share"] == 1.0,
        "an oracle window one millisecond short makes the run refuse itself",
    )
    args.seed, args.scale = workloads.DEFAULT_SEED, 1.0
    bent = spawn("heavy_probe", args, "0", "check_pin", ["--expected-results-delta", "1"])
    check(
        bent["exit"] != 0 and bent["ledger"]["failed_share"] == 1.0,
        "a perturbed expected_results pin makes the run refuse itself",
    )

    check(_wrappers_come_off(), "tracing leaves no wrapper on instances, classes untouched")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


def _wrappers_come_off() -> bool:
    """After a traced pass nothing the tracer touched — on the instance
    or on its class — is still one of its wrappers."""
    workload = workloads.BY_NAME["nexmark_tiered"]
    outcome = measure.run_pass(workload, workloads.SECOND_SEED, 0.1, traced=True)
    assert outcome.tracer is not None

    def is_wrapper(value: object) -> bool:
        return getattr(value, "__name__", "") == "wrapper"

    touched = outcome.tracer.touched
    return bool(touched) and not outcome.failed and not any(
        is_wrapper(getattr(instance, name)) or is_wrapper(getattr(type(instance), name, None))
        for instance, name in touched
    )
