#!/usr/bin/env python
"""Distributed runtime smoke: ``python tools/distributed_smoke.py``.

Boots two localhost :class:`~repro.distributed.runtime.NodeServer`
processes and drives the socket-distributed executor through the two
scenarios CI cares about, checking each differentially against the
single-machine pipe executor on the same seeded workload — the
transport tests' own :func:`~repro.workloads.interleaved_dataset`
and lossless :func:`~repro.workloads.fixed_k_config`:

1. **elastic node join** — a third NodeServer is started mid-stream,
   registered via ``executor.add_node``, and ``pipeline.grow`` migrates
   a shard onto it through the drain/handoff barrier; the result
   sequence and summed :class:`JoinStatistics` must be byte-identical
   to a pipe run growing at the same tuple index, and the grown shard
   must really land on the late node.
2. **supervised crash recovery** — a seeded fault plan severs shard
   0's socket mid-run; supervision must respawn it (``respawns >= 1``,
   so the check cannot pass vacuously) and the recovered output must be
   indistinguishable from an undisturbed supervised pipe run.

Exit status 0 iff every check passed.  This is a smoke, not a soak:
``tools/soak.py`` owns the long differential bank, this script proves
the distributed topology end-to-end in seconds.
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

from repro import equi_join_chain, seconds  # noqa: E402
from repro.distributed import NodeServer  # noqa: E402
from repro.faults import FaultPlan, FaultSpec, KIND_SOCKET_DROP  # noqa: E402
from repro.parallel import PartitionedPipeline, SupervisionConfig  # noqa: E402
from repro.workloads import fixed_k_config, interleaved_dataset  # noqa: E402

BATCH_SIZE = 16  # fault plans are batch-indexed; small batches make them fire

SUPERVISION = SupervisionConfig(
    heartbeat_interval=4,
    heartbeat_timeout_s=5.0,
    checkpoint_interval=8,
    max_respawns=4,
    backoff_base_s=0.01,
)


def drive(dataset, config, shards, grow_at=None, grow_node=None, **kwargs):
    """Per-tuple feed with an optional mid-stream grow; returns the
    exact result sequence, summed statistics, and the pipeline."""
    pipeline = PartitionedPipeline(config, shards, **kwargs)
    out = []
    with pipeline:
        for i, t in enumerate(dataset.arrivals()):
            if grow_at is not None and i == grow_at:
                if grow_node is not None:
                    pipeline.executor.add_node(grow_node)
                out.extend(pipeline.grow())
            out.extend(pipeline.process(t))
        out.extend(pipeline.flush())
        stats = pipeline.join_statistics()
    return [(r.ts, r.key()) for r in out], stats, pipeline


def check_node_join(dataset, config, nodes, grow_at) -> list:
    """Mid-stream node join: grow onto a NodeServer started mid-run."""
    checks = []
    ref_sequence, ref_stats, _ = drive(
        dataset, config, 3, grow_at=grow_at, executor="process",
        slots_per_shard=4,
    )
    process, address = NodeServer.spawn()
    try:
        sequence, stats, pipeline = drive(
            dataset, config, 3, grow_at=grow_at, grow_node=address,
            executor="process", transport="socket", nodes=list(nodes),
            slots_per_shard=4,
        )
        checks.append(
            ("grown shard placed on the late node",
             pipeline.executor._shards[3].node == 2)
        )
    finally:
        process.terminate()
        process.join(5)
    checks.append(("node-join sequence identical", sequence == ref_sequence))
    checks.append(("node-join statistics identical", stats == ref_stats))
    return checks


def check_crash_recovery(dataset, config, nodes) -> list:
    """Supervised socket run with an injected socket drop on shard 0."""
    checks = []
    ref_sequence, ref_stats, _ = drive(
        dataset, config, 2, executor="supervised", batch_size=BATCH_SIZE,
        supervision=SUPERVISION,
    )
    plan = FaultPlan((FaultSpec(0, KIND_SOCKET_DROP, at=5),))
    sequence, stats, pipeline = drive(
        dataset, config, 2, executor="supervised", batch_size=BATCH_SIZE,
        supervision=SUPERVISION, transport="socket", nodes=list(nodes),
        fault_plan=plan,
    )
    checks.append(
        ("crash fired and was recovered", pipeline.executor.respawns >= 1)
    )
    checks.append(("recovered sequence identical", sequence == ref_sequence))
    checks.append(("recovered statistics identical", stats == ref_stats))
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/distributed_smoke.py",
        description="Two-NodeServer distributed identity smoke.",
    )
    parser.add_argument("--tuples", type=int, default=600,
                        help="workload size (default: 600)")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default: 7)")
    parser.add_argument("--grow-at", type=int, default=300,
                        help="tuple index of the elastic grow (default: 300)")
    args = parser.parse_args(argv)

    # The transport tests' workload: their generator, their parameters.
    dataset = interleaved_dataset(
        f"smoke-{args.seed}", args.tuples, 9, 300, 48, args.seed, zipf=1.1
    )
    config = fixed_k_config(
        dataset.max_delay(), [seconds(1)] * 3, equi_join_chain("a1", 3), True
    )
    started = time.perf_counter()
    spawned = [NodeServer.spawn() for _ in range(2)]
    nodes = [address for _, address in spawned]
    try:
        checks = check_node_join(dataset, config, nodes, args.grow_at)
        checks += check_crash_recovery(dataset, config, nodes)
    finally:
        for process, _ in spawned:
            process.terminate()
            process.join(5)
    elapsed = time.perf_counter() - started

    width = max(len(name) for name, _ in checks)
    for name, passed in checks:
        print(f"  {name:<{width}}  {'PASS' if passed else 'FAIL'}")
    failed = [name for name, passed in checks if not passed]
    verdict = "FAILED" if failed else "passed"
    print(f"distributed smoke {verdict} "
          f"({len(checks) - len(failed)}/{len(checks)} checks, "
          f"{args.tuples} tuples, {elapsed:.1f}s wall)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
