"""Distributed MSWJ applicability (paper Sec. V) and its socket runtime.

Two layers: :mod:`~repro.distributed.tree` decomposes the m-way join
into a left-deep tree of binary joins with per-operator synchronizers
(the paper's distributed applicability argument, run in-process), and
:mod:`~repro.distributed.runtime` scales the partitioned pipeline out
over TCP — :class:`~repro.distributed.runtime.NodeServer` worker hosts
that the :class:`~repro.parallel.executors.ProcessExecutor` places its
shard workers on (``transport="socket"``).
"""

from .runtime import (
    NodeServer,
    SocketConnection,
    SocketIntegrityError,
    connect_worker,
)
from .tree import BinaryJoinNode, PartialResult, TreeJoinOperator

__all__ = [
    "BinaryJoinNode",
    "NodeServer",
    "PartialResult",
    "SocketConnection",
    "SocketIntegrityError",
    "TreeJoinOperator",
    "connect_worker",
]
