"""Distributed MSWJ applicability (paper Sec. V) and its socket runtime.

Two layers: :mod:`~repro.distributed.tree` decomposes the m-way join
into a left-deep tree of binary joins with per-operator synchronizers
(the paper's distributed applicability argument), and
:mod:`~repro.distributed.runtime` scales both execution models out over
TCP — :class:`~repro.distributed.runtime.NodeServer` worker hosts that
the partitioned pipeline's
:class:`~repro.parallel.executors.ProcessExecutor` places its shard
workers on (``transport="socket"``), and
:class:`~repro.distributed.runtime.DistributedTreeJoin`, which places
each tree node in its own remote worker with composite batches flowing
stage to stage through the columnar block codec.
"""

from .runtime import (
    DistributedTreeJoin,
    NodeServer,
    PartialBlock,
    SocketConnection,
    SocketIntegrityError,
    connect_worker,
    decode_partials,
    encode_partials,
)
from .tree import BinaryJoinNode, PartialResult, TreeJoinOperator

__all__ = [
    "BinaryJoinNode",
    "DistributedTreeJoin",
    "NodeServer",
    "PartialBlock",
    "PartialResult",
    "SocketConnection",
    "SocketIntegrityError",
    "TreeJoinOperator",
    "connect_worker",
    "decode_partials",
    "encode_partials",
]
