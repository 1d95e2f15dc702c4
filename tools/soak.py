#!/usr/bin/env python
"""Deterministic soak & differential-oracle run: ``python tools/soak.py``.

Replays a seeded NEXMark-style workload (see :mod:`repro.workloads`)
for N phases through the differential variant bank — serial single-shard
reference, partitioned shards 1/2/4, static vs rebalanced routing — and
checks the soak invariants (produced ⊆ true, phase recall,
byte-identity across variants, analytic memory caps) per phase.  By
default both executors are soaked: the in-process serial bank and the
process-executor bank on the blocks transport.

``--store tiered`` adds tiered window-store twins to the bank: the join
state lives in a bounded hot object tier plus columnar cold segments
(``--hot-budget`` / ``--bucket-span-ms``), the identity oracle proves
the output stays byte-identical to the in-memory store, and the
hot-tier check asserts per-stream hot residency under the configured
budget (plus analytic slack).

``--chaos`` adds a supervised twin of the top shard count running under
the seeded fault plan (:func:`repro.faults.chaos_plan` — SIGKILLs,
crashes, hangs, checkpoint corruption, migration-barrier crashes): the
identity oracle must not be able to tell its recovered output from a
clean run, and the recovery check asserts the faults actually fired.

Examples::

    python tools/soak.py --phases 3 --seed 7
    python tools/soak.py --phases 5 --executor serial --shards 1,2,4,8
    python tools/soak.py --phases 3 --executor process --transport shm
    python tools/soak.py --phases 3 --window-s 4.0 --store tiered --hot-budget 256
    python tools/soak.py --chaos --seed 7 --phases 2 --phase-duration-ms 4000

The phase report is printed and written to ``results/soak_report.txt``
(CI uploads it as an artifact).  Exit status 0 iff every check of every
run passed.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# Self-bootstrapping src layout: works from a checkout without install.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

from repro.experiments.report import print_and_save  # noqa: E402
from repro.join.store import TieredStoreConfig  # noqa: E402
from repro.parallel.shard import TRANSPORT_BLOCKS, TRANSPORT_SHM  # noqa: E402
from repro.workloads.soak import SoakConfig, run_soak  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python tools/soak.py",
        description="Deterministic soak + differential-oracle harness.",
    )
    parser.add_argument("--phases", type=int, default=3,
                        help="number of workload phases (default: 3)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default: 7)")
    parser.add_argument("--phase-duration-ms", type=int, default=8_000,
                        help="phase length in ms (default: 8000)")
    parser.add_argument(
        "--executor",
        choices=("both", "serial", "process"),
        default="both",
        help="executor(s) to soak (default: both)",
    )
    parser.add_argument(
        "--transport",
        choices=(TRANSPORT_BLOCKS, TRANSPORT_SHM),
        default=TRANSPORT_BLOCKS,
        help="process-executor block carrier (default: blocks, i.e. the pipe)",
    )
    parser.add_argument(
        "--shards",
        default="1,2,4",
        help="comma-separated shard counts of the bank (default: 1,2,4)",
    )
    parser.add_argument("--window-s", type=float, default=1.0,
                        help="join window size in seconds (default: 1.0)")
    parser.add_argument("--bid-channels", type=int, default=2,
                        help="NEXMark bid ingest channels (default: 2)")
    parser.add_argument("--recall", type=float, default=0.95,
                        help="per-phase recall requirement (default: 0.95)")
    parser.add_argument(
        "--store",
        choices=("memory", "tiered"),
        default="memory",
        help="window-store bank: 'tiered' adds tiered-store twins and "
             "arms the hot-tier residency check (default: memory)",
    )
    parser.add_argument(
        "--hot-budget", type=int, default=None, metavar="N",
        help="tiered store hot-tier budget in tuples (implies --store "
             "tiered; default: the TieredStoreConfig default)",
    )
    parser.add_argument(
        "--bucket-span-ms", type=int, default=None, metavar="MS",
        help="tiered store cold-bucket span in ms (implies --store "
             "tiered; default: the TieredStoreConfig default)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="add a supervised chaos twin running under the seeded "
             "fault plan (crashes, SIGKILLs, hangs, checkpoint "
             "corruption) and arm the recovery check; forces the "
             "process bank only (worker faults need worker processes)",
    )
    parser.add_argument(
        "--tree", action="store_true",
        help="add a tree-of-binary-joins twin (paper Sec. V) to the "
             "bank; the identity oracle then differentially proves the "
             "tree decomposition result-identical to the m-way operator",
    )
    parser.add_argument("--out", default="soak_report",
                        help="report name under results/ (default: soak_report)")
    return parser


def store_spec(args) -> "TieredStoreConfig | None":
    """The tiered-store config the CLI flags denote, or ``None``."""
    if (
        args.store != "tiered"
        and args.hot_budget is None
        and args.bucket_span_ms is None
    ):
        return None
    overrides = {}
    if args.hot_budget is not None:
        overrides["hot_budget"] = args.hot_budget
    if args.bucket_span_ms is not None:
        overrides["bucket_span_ms"] = args.bucket_span_ms
    return TieredStoreConfig(**overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        shard_counts = tuple(
            int(part) for part in args.shards.split(",") if part.strip()
        )
    except ValueError:
        print(f"error: --shards must be comma-separated ints, got {args.shards!r}",
              file=sys.stderr)
        return 2
    if not any(n > 1 for n in shard_counts):
        # A single-variant bank still soaks subset/recall/memory, but
        # there is nothing to differentially compare — say so instead of
        # letting a vacuous identity check read as exercised.
        print(
            "warning: no shard count > 1; the byte-identity oracle will "
            "not run (see the report's checks list)",
            file=sys.stderr,
        )
    executors = (
        ("serial", "process") if args.executor == "both" else (args.executor,)
    )
    if args.chaos and len(executors) > 1:
        # One chaos bank is enough: the faults live in worker processes,
        # and the serial reference rides inside the bank anyway.
        print(
            "note: --chaos runs a single bank (executor=process); the "
            "serial reference is part of it",
            file=sys.stderr,
        )
        executors = ("process",)
    store = store_spec(args)
    sections = []
    all_passed = True
    for executor in executors:
        config = SoakConfig(
            phases=args.phases,
            seed=args.seed,
            phase_duration_ms=args.phase_duration_ms,
            shard_counts=shard_counts,
            executor=executor,
            transport=args.transport,
            window_s=args.window_s,
            recall_requirement=args.recall,
            bid_channels=args.bid_channels,
            store=store,
            chaos=args.chaos,
            tree=args.tree,
        )
        started = time.perf_counter()
        report = run_soak(config)
        elapsed = time.perf_counter() - started
        all_passed = all_passed and report.passed
        sections.append(report.render())
        sections.append(f"(executor={executor}: {elapsed:.1f}s wall)\n")
    print_and_save(args.out, "\n".join(sections))
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
