"""The perf ledger's one command.

One run (what ``BENCHMARK.json`` names; the last stdout line is the
result object)::

    python3 benchmarks/ledger/run.py --workload heavy_probe --seed 7 --seconds 8 --trace 0

The ledger (fresh interpreter per run, reps round-robin over workloads)::

    python3 benchmarks/ledger/run.py [--seed 7] [--reps 5] [--workload NAME] [--trace]
        [--out A.json [--out B.json]]      # two --out: sets interleaved A1 B1 A2 B2 ...
    python3 benchmarks/ledger/run.py --compare BASE.json OTHER.json
    python3 benchmarks/ledger/run.py --smoke         # scale 0.1, 1 rep, schema + oracle only
    python3 benchmarks/ledger/run.py --self-check    # the ledger checks itself
    python3 benchmarks/ledger/run.py --regenerate    # rewrite BENCHMARK.json + pins.json

``src/`` of the checkout this file sits in is put first on ``sys.path``:
the ledger always measures the source next to it, never an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perf ledger: no engine source at {ROOT / 'src' / 'repro'}; nothing to measure")
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

RESULTS = ROOT / "results" / "ledger"
PINS = HERE / "pins.json"
#: Set-ups whose median a run reports (passes count; the rest are extra).
SETUP_SAMPLES = 5
#: A further pass starts only while the run would still end within this
#: multiple of ``--seconds``.
OVERRUN = 1.25
SMOKE_SCALE = 0.1


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def single_run(args: argparse.Namespace) -> int:
    workload = workloads.BY_NAME[args.workload]
    traced_run = args.trace == "1"
    passes = [measure.run_pass(workload, args.seed, args.scale, keep_results=traced_run)]
    spent = passes[0].wall_s
    while (
        not traced_run
        and not passes[-1].failed
        and spent + passes[-1].wall_s <= args.seconds * OVERRUN
    ):
        seed = workloads.pass_seed(args.seed, len(passes))
        passes.append(measure.run_pass(workload, seed, args.scale))
        spent += passes[-1].wall_s
    timed = len(passes)
    setup_ref_s = [p.setup.setup_ref_s for p in passes]
    while not traced_run and len(setup_ref_s) < SETUP_SAMPLES:
        extra = measure.set_up(workload, args.seed, args.scale)
        measure.discard(workload, extra)
        setup_ref_s.append(extra.setup_ref_s)

    untraced = passes[0]
    traced = serial = None
    if traced_run and not untraced.failed:
        traced = measure.run_pass(workload, args.seed, args.scale, traced=True)
        passes.append(traced)
        if workload.sharded and not traced.failed:
            serial = measure.run_pass(
                workload, args.seed, args.scale, traced=True, executor="serial"
            )
            passes.append(serial)

    window = workload.window_ms + args.oracle_window_delta
    truths: Dict[int, measure.Truth] = {}
    wrong = ""
    for outcome in passes:
        seed = outcome.setup.seed
        if seed not in truths:
            truths[seed] = measure.compute_truth(workload, outcome.setup.arrivals, window)
        wrong = wrong or measure.verify(workload, outcome, truths[seed])
    truth = truths[args.seed]
    digest = workloads.input_sha256(untraced.setup.arrivals)
    wrong = wrong or _pin_fault(workload, truth, digest, args)
    ledger = metrics.end_to_end(workload, passes[:timed], setup_ref_s, truth, wrong)

    if traced_run:
        reported = list(metrics.PER_LAYER)
        values: Dict[str, float] = {}
        if traced is not None and not wrong:
            # Codec and transports are driven over what this workload really
            # ships: the routed batches and the result list when sharded, else
            # the fed chunks (no result objects exist in count-only runs).
            batches = [batch for _shard, batch in traced.routed] or untraced.setup.chunks
            micro = measure.codec_micro_drive(batches, untraced.results or [])
            micro.update(measure.segment_micro_drive(workload, untraced.setup.arrivals))
            values = metrics.per_layer(workload, untraced, traced, serial, micro, ledger)
            _write_trace(workload, args, traced, serial, values)
    else:
        reported = [m for m in metrics.END_TO_END if m.name in metrics.GATE]
        values = ledger
    attempted = max(1, sum(p.calls for p in passes))
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": attempted if wrong else 0,
        "metrics": {
            m.name: {"value": values.get(m.name, 0.0), "unit": m.unit} for m in reported
        },
    }
    if args.detail:
        detail = {
            "workload": workload.name,
            "seed": args.seed,
            "scale": args.scale,
            "passes": timed,
            "wrong": wrong,
            "input_sha256": digest,
            "expected_results": truth.total,
            "produced_results": untraced.result_count,
            "ledger": ledger,
            "per_layer": values if traced_run else {},
            "layer_shares": _shares(traced, serial),
        }
        Path(args.detail).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for m in reported if traced_run else metrics.END_TO_END:
        print(f"{workload.name:16s} {m.name:44s} {values.get(m.name, 0.0):16.6f} {m.unit}")
    if wrong:
        print(f"{workload.name}: WRONG OUTPUT: {wrong}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if wrong else 0


def _pin_fault(workload, truth, digest: str, args) -> str:
    """'' or how this input differs from the one pinned for its seed."""
    pin = _pins().get(str(args.seed), {}).get(workload.name)
    if pin is None or args.scale != 1.0 or args.oracle_window_delta:
        return ""
    expected = pin["expected_results"] + args.expected_results_delta
    if digest != pin["input_sha256"]:
        return f"input digest {digest[:12]} is not the pinned {pin['input_sha256'][:12]}"
    if truth.total != expected:
        return f"oracle counts {truth.total} results, pinned {expected}"
    return ""


def _pins() -> Dict[str, Dict[str, Dict[str, object]]]:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}


def _shares(traced, serial) -> Dict[str, Dict[str, float]]:
    shares = {}
    if traced is not None and traced.tracer is not None and not traced.failed:
        shares["traced"] = metrics.layer_shares(traced)
    if serial is not None and serial.tracer is not None and not serial.failed:
        shares["serial_leg"] = metrics.layer_shares(serial)
    return shares


def _write_trace(workload, args, traced, serial, values: Dict[str, float]) -> None:
    """``results/ledger/trace_<workload>.json``: per-(chunk, span) books."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    legs = {"traced": traced}
    if serial is not None:
        legs["serial_leg"] = serial
    document = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "host": host_facts(),
        "per_layer": values,
        "legs": {
            leg: {
                "wall_s": outcome.wall_s,
                "totals": outcome.tracer.totals(),
                "layer_shares": metrics.layer_shares(outcome),
                "chunks": [
                    {"chunk": index, **{name: list(cell) for name, cell in row.items()}}
                    for index, row in sorted(outcome.tracer.chunks.items())
                ],
            }
            for leg, outcome in legs.items()
        },
    }
    path = RESULTS / f"trace_{workload.name}.json"
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")


def host_facts() -> Dict[str, object]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
    }


# ----------------------------------------------------------------------
# the ledger: reps in fresh interpreters, round-robin
# ----------------------------------------------------------------------


def _spawn(workload: str, args, trace: str, tag: str, extra: Sequence[str] = ()) -> Dict:
    """One run in a fresh interpreter; returns its detail record."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    detail = RESULTS / f"run_{tag}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", str(args.scale), "--trace", trace, "--detail", str(detail), *extra,
    ]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    record = json.loads(detail.read_text(encoding="utf-8")) if detail.is_file() else {}
    detail.unlink(missing_ok=True)
    record["exit"] = done.returncode
    if not record.get("ledger"):
        record["wrong"] = done.stderr.strip().splitlines()[-1:] or ["no result"]
        record["ledger"] = {"failed_share": 1.0}
    return record


def summarize(values: Sequence[float]) -> Dict[str, object]:
    ordered = sorted(values)
    q1, _q2, q3 = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else (ordered[0],) * 3
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "n": len(ordered),
            "values": list(values)}


def run_ledger(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]
    outs = args.out or [str(RESULTS / f"ledger_seed{args.seed}.json")]
    records: List[Dict[str, List[Dict]]] = [{name: [] for name in names} for _ in outs]
    traces: List[Dict[str, Dict]] = [{} for _ in outs]
    for rep in range(args.reps):
        for which in range(len(outs)):
            for name in names:
                record = _spawn(name, args, "0", f"{name}_{which}_{rep}")
                records[which][name].append(record)
                shown = record["ledger"].get("tuples_per_s", 0.0)
                print(f"rep {rep + 1}/{args.reps} set {which} {name:16s} "
                      f"{shown:10.1f} tuples/s  failed_share "
                      f"{record['ledger']['failed_share']}", flush=True)
    if args.trace == "1":
        for which in range(len(outs)):
            for name in names:
                traces[which][name] = _spawn(name, args, "1", f"{name}_{which}_trace")
                print(f"traced set {which} {name}", flush=True)
    failed = False
    for which, out in enumerate(outs):
        document = {
            "host": host_facts(), "seed": args.seed, "scale": args.scale,
            "reps": args.reps, "seconds": args.seconds, "claim": None, "workloads": {},
        }
        for name in names:
            runs = records[which][name]
            failed = failed or any(r["ledger"]["failed_share"] > 0 for r in runs)
            table = {}
            for m in metrics.END_TO_END:
                seen = [r["ledger"][m.name] for r in runs if m.name in r["ledger"]]
                if seen:
                    table[m.name] = {"unit": m.unit, "better": m.better, "bound": m.bound,
                                     **summarize(seen)}
            traced = traces[which].get(name, {})
            document["workloads"][name] = {
                "input_sha256": runs[0].get("input_sha256"),
                "expected_results": runs[0].get("expected_results"),
                "produced_results": runs[0].get("produced_results"),
                "end_to_end": table,
                "per_layer": traced.get("per_layer", {}),
                "layer_shares": traced.get("layer_shares", {}),
            }
            failed = failed or bool(traced.get("wrong"))
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        print_ledger(document)
        print(f"wrote {out}")
    return 1 if failed else 0


def print_ledger(document: Dict) -> None:
    for name, entry in document["workloads"].items():
        for metric, cell in entry["end_to_end"].items():
            print(f"{name:16s} {metric:20s} median {cell['median']:14.6f} {cell['unit']:9s} "
                  f"[q1 {cell['q1']:.6f} q3 {cell['q3']:.6f} n {cell['n']}]")
        for metric, value in entry["per_layer"].items():
            print(f"{name:16s} {metric:44s} {value:16.6f}")


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------


def _spread(cell: Dict) -> float:
    return (cell["q3"] - cell["q1"]) / cell["median"] if cell["median"] else 0.0


def judge(metric: metrics.Metric, base: Dict, other: Dict) -> str:
    """One (workload, metric) verdict; bounds apply in both directions."""
    a, b = base["median"], other["median"]
    if metric.bound == metrics.EXACT:
        if base["values"] == other["values"] or (
            len(set(base["values"])) == len(set(other["values"])) == 1 and a == b
        ):
            return "identical"
        worse = b > a if metric.better == "lower" else b < a
        return "REGRESSION" if worse else "changed"
    allowed = metric.bound * abs(a)
    if metric.name == "setup_s":
        allowed = max(allowed, 0.05)
    if max(_spread(base), _spread(other)) > metric.bound:
        return "unresolved"
    worse_by = b - a if metric.better == "lower" else a - b
    if worse_by > allowed:
        return "REGRESSION"
    return "improved" if -worse_by > allowed else "unchanged"


def compare(base_path: str, other_path: str) -> int:
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    other = json.loads(Path(other_path).read_text(encoding="utf-8"))
    print(f"base  {base_path}: {base['host']}")
    print(f"other {other_path}: {other['host']}")
    print(f"{'workload':16s} {'metric':20s} {'base median':>14s} {'other median':>14s} "
          f"{'other/base':>10s} {'spread b/o':>13s} {'bound':>6s}  verdict")
    bad = False
    for name, entry in base["workloads"].items():
        theirs = other["workloads"].get(name)
        if theirs is None:
            continue
        for metric in metrics.END_TO_END:
            a, b = entry["end_to_end"].get(metric.name), theirs["end_to_end"].get(metric.name)
            if a is None or b is None:
                print(f"{name:16s} {metric.name:20s} missing on one side: REGRESSION")
                bad = True
                continue
            verdict = judge(metric, a, b)
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            print(f"{name:16s} {metric.name:20s} {a['median']:14.6f} {b['median']:14.6f} "
                  f"{ratio:10.4f} {_spread(a):6.3f}/{_spread(b):<6.3f} {metric.bound!s:>6s}  "
                  f"{verdict}  (base {a['median']:.6g} {metric.unit}, n {a['n']}/{b['n']})")
            bad = bad or verdict == "REGRESSION"
            if metric.name == "failed_share" and max(a["median"], b["median"]) > 0:
                bad = True
        mine, yours = entry.get("per_layer", {}), theirs.get("per_layer", {})
        counts = [m.name for m in metrics.PER_LAYER if m.unit == "count"]
        moved = [c for c in counts if c in mine and c in yours and mine[c] != yours[c]]
        if moved:
            print(f"{name:16s} per-layer counts that differ: {', '.join(moved)}")
    return 1 if bad else 0


def regenerate() -> int:
    """Rewrite ``BENCHMARK.json`` from the metric tables and re-pin the
    inputs — only for a change that *means* to redefine a workload."""
    manifest = json.dumps(metrics.manifest(), indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(manifest, encoding="utf-8")
    pins: Dict[str, Dict[str, Dict[str, object]]] = {}
    for seed in (workloads.DEFAULT_SEED, workloads.SECOND_SEED):
        for workload in workloads.WORKLOADS:
            arrivals = list(workload.dataset(seed, 1.0).arrivals())
            pins.setdefault(str(seed), {})[workload.name] = {
                "input_sha256": workloads.input_sha256(arrivals),
                "expected_results": measure.compute_truth(workload, arrivals).total,
            }
    PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {ROOT / 'BENCHMARK.json'} and {PINS}")
    return 0


# ----------------------------------------------------------------------


def parse(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one run for this long and print its result object")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"))
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", action="append")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "OTHER"))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--regenerate", action="store_true")
    parser.add_argument("--detail", help="also write this run's full record here")
    # Fault injection for the self-check: the run must then refuse itself.
    parser.add_argument("--oracle-window-delta", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--expected-results-delta", type=int, default=0, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    if args.compare:
        return compare(*args.compare)
    if args.self_check:
        import selfcheck  # imports this module's siblings only when asked for

        return selfcheck.run(args, _spawn)
    if args.regenerate:
        return regenerate()
    if args.seconds is not None:
        if args.workload is None:
            sys.exit("--seconds measures one run: name its --workload")
        return single_run(args)
    args.seconds = float(metrics.RUN_SECONDS)
    if args.smoke:
        args.scale, args.reps, args.seconds = SMOKE_SCALE, 1, 0.0
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
