"""Socket-distributed execution: NodeServers, worker placement, tree stages.

The partitioned pipeline's process executor talks to forked shard
workers through ``multiprocessing`` pipes — which confines a run to one
machine.  This module lifts the *same* executor ↔ worker protocol onto
TCP:

* :class:`SocketConnection` — a ``Connection``-shaped wrapper over a TCP
  socket carrying pickled ``(tag, payload)`` protocol messages in
  length-prefixed, CRC-tagged, sequence-numbered frames (the same
  ``<QII`` header discipline as :class:`~repro.parallel.shm.ShmRing`).
  It satisfies the ``send`` / ``send_bytes`` / ``recv`` / ``poll`` /
  ``close`` surface the executors and :func:`~repro.parallel.shard.shard_worker`
  already use, so the worker loop runs over it **unchanged**.
* :class:`NodeServer` — the remote end: an accept loop that hosts shard
  (or join-tree) workers as forked child processes, one per accepted
  :data:`MSG_JOIN` handshake.  Workers arm ``PDEATHSIG`` so a killed
  node takes its workers down with it — a whole-machine loss the
  supervised executor recovers from by reconnecting to surviving nodes.
* :func:`connect_worker` / :func:`place_shard_worker` — the parent
  side: the dial + :data:`MSG_JOIN` handshake that
  :class:`~repro.parallel.executors.ProcessExecutor` uses in place of
  fork + pipe when it is given ``nodes``.  Nothing else about the
  executor changes (migration barriers, heartbeats, checkpoint/replay
  and elastic ``add_shard``/``retire_shard`` included); its workers
  simply live in ``NodeServer`` processes addressed by ``(host, port)``.
* :class:`DistributedTreeJoin` — the tree-of-binary-joins execution of
  the paper's Sec. V scaled out node-to-node: every
  :class:`~repro.distributed.tree.BinaryJoinNode` becomes a *stage*
  hosted in its own remote worker; base tuples route to the leaf stages
  and intermediate :class:`~repro.distributed.tree.PartialResult`
  composites flow stage-to-stage through the same frame codec
  (:class:`PartialBlock`), with per-port :data:`MSG_CLOSE` propagation
  mirroring :meth:`~repro.distributed.tree.TreeJoinOperator.close_stream`.

Because worker specs cross the wire pickled (no fork inheritance from
the driver), socket-distributed runs require picklable configs — equi
and band predicates qualify; ``ThetaPredicate`` lambdas do not.

Determinism carries over wholesale: the socket transport reuses the
columnar block codec and the executors' message protocol verbatim, so a
4-shard join spread over two NodeServer processes produces byte-identical
result sequences and :class:`~repro.join.mswj.JoinStatistics` to the
single-process pipe executor — including across elastic node joins
(:meth:`~repro.parallel.pipeline.PartitionedPipeline.grow`) and
supervised recovery from a node crash.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import signal
import socket
import struct
import zlib
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

from ..core.blocks import PICKLE_PROTOCOL, BlockDecoder, BlockEncoder, TupleBlock
from ..core.pipeline import PipelineConfig
from ..core.tuples import JoinResult, StreamTuple
from ..faults import FaultPlan
from ..faults import plan as _fault_plan_module
from ..join.conditions import JoinCondition
from ..parallel.shard import (
    MSG_ABORT,
    MSG_BATCH,
    MSG_FLUSH,
    ShardFailure,
    shard_worker,
)
from .tree import BinaryJoinNode, PartialResult

#: Frame header of the socket transport: ``(seq, length, crc32)``, the
#: same integrity discipline as the shm ring's frames.  ``seq`` is
#: per-direction and strictly monotone — a dropped, duplicated, or
#: reordered frame surfaces as :class:`SocketIntegrityError` instead of
#: silently desynchronizing the protocol.
_FRAME_HEADER = struct.Struct("<QII")

#: Seconds a connecting parent (and the accepting node) will wait on the
#: :data:`MSG_JOIN` handshake before treating the peer as unreachable.
HANDSHAKE_TIMEOUT_S = 10.0

# Socket-runtime extensions of the executor ↔ worker protocol.
#: Parent → node handshake: payload is a :class:`_WorkerSpec`; the node
#: replies ``("ok", node_pid)`` and forks a worker that owns the
#: connection from then on.  Any other opening tag is rejected with
#: ``("error", ...)``.
MSG_JOIN = "join"
#: Driver → tree-stage: payload is the input port (0 or 1) to close.
#: The stage runs :meth:`~repro.distributed.tree.BinaryJoinNode.flush_input`
#: and replies ``("ok", (PartialBlock | None, exhausted))`` — the
#: emissions the closure unlocked (which the driver must forward
#: downstream *before* cascading further closes) plus whether both ports
#: are now closed.
MSG_CLOSE = "close"

#: Worker kinds a :class:`NodeServer` can host.
KIND_SHARD = "shard"
KIND_TREE = "tree-node"


class SocketIntegrityError(OSError):
    """A socket frame failed its sequence or CRC check.

    Subclasses :class:`OSError` so every existing dead/corrupt-peer
    handling path in the executors (which catches ``OSError``) treats a
    torn frame exactly like a broken pipe: typed failure, never a hang.
    """


class SocketConnection:
    """``multiprocessing.Connection``-shaped framing over a TCP socket.

    One pickled message per frame; per-direction sequence numbers and a
    CRC-32 per frame catch reordering, duplication, and corruption.  The
    error surface mirrors a pipe ``Connection``: clean peer shutdown
    raises :class:`EOFError` from ``recv``, everything else is an
    :class:`OSError` — so :func:`~repro.parallel.shard.shard_worker` and
    the executors' polling reply paths run over it unmodified.
    """

    __slots__ = ("_sock", "_send_seq", "_recv_seq", "_closed")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._send_seq = 0
        self._recv_seq = 0
        self._closed = False

    # -- send side -----------------------------------------------------

    def send(self, obj: Any) -> None:
        self.send_bytes(pickle.dumps(obj, protocol=PICKLE_PROTOCOL))

    def send_bytes(self, payload: bytes) -> None:
        self.send_frame(payload)

    def send_frame(self, payload: bytes) -> None:
        """Ship one sequence-numbered, CRC-tagged frame."""
        if self._closed:
            raise OSError("socket connection is closed")
        self._send_seq += 1
        header = _FRAME_HEADER.pack(
            self._send_seq, len(payload), zlib.crc32(payload)
        )
        self._sock.sendall(header + payload)

    # -- receive side --------------------------------------------------

    def recv(self) -> Any:
        return pickle.loads(self.recv_bytes())

    def recv_bytes(self) -> bytes:
        header = self._recv_exact(_FRAME_HEADER.size)
        seq, length, crc = _FRAME_HEADER.unpack(header)
        expected = self._recv_seq + 1
        if seq != expected:
            raise SocketIntegrityError(
                f"frame sequence violation: got {seq}, expected {expected}"
            )
        payload = self._recv_exact(length) if length else b""
        actual = zlib.crc32(payload)
        if actual != crc:
            raise SocketIntegrityError(
                f"frame {seq} fails CRC: stored {crc:#010x}, "
                f"computed {actual:#010x}"
            )
        self._recv_seq = seq
        return payload

    def _recv_exact(self, n: int) -> bytes:
        if self._closed:
            raise OSError("socket connection is closed")
        view = memoryview(bytearray(n))
        got = 0
        while got < n:
            read = self._sock.recv_into(view[got:])
            if read == 0:
                # Clean peer shutdown mid-stream == pipe EOF semantics.
                raise EOFError("socket closed by peer")
            got += read
        return view.obj if isinstance(view.obj, bytes) else bytes(view.obj)

    def poll(self, timeout: float = 0.0) -> bool:
        """Readability check, ``Connection.poll``-compatible.

        Raises :class:`OSError` once locally closed (matching a closed
        pipe handle) — the executors' reply loops rely on poll never
        succeeding against a released connection.
        """
        if self._closed:
            raise OSError("socket connection is closed")
        ready, _, _ = select.select([self._sock], [], [], timeout)
        return bool(ready)

    def fileno(self) -> int:
        return self._sock.fileno()

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Tear the connection down for *both* endpoints; idempotent.

        ``shutdown`` pushes an immediate EOF/reset to the peer even if a
        forked child still holds a duplicate of this fd — the lever the
        parent uses to force a remote worker's exit.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    def release(self) -> None:
        """Drop only *this process's* fd copy; the connection lives on.

        The post-fork counterpart of :meth:`close`: after a
        :class:`NodeServer` hands an accepted connection to a worker
        child, the node must release its own copy **without** the
        ``shutdown`` (which acts on the shared socket, not the fd, and
        would sever the child's live connection too).
        """
        if self._closed:
            return
        self._closed = True
        self._sock.close()


# ----------------------------------------------------------------------
# node side
# ----------------------------------------------------------------------


@dataclass
class _TreeNodeSpec:
    """Constructor arguments of one remotely-hosted tree stage."""

    window_sizes_ms: List[int]
    condition: JoinCondition
    left_cover: frozenset
    right_cover: frozenset


@dataclass
class _WorkerSpec:
    """The :data:`MSG_JOIN` handshake payload: which worker to host.

    ``config`` is a :class:`~repro.core.pipeline.PipelineConfig` for
    ``kind == KIND_SHARD`` and a :class:`_TreeNodeSpec` for
    ``kind == KIND_TREE``.  Travels pickled, so everything in it must be
    picklable (theta lambdas are not — see the module docstring).
    """

    kind: str
    index: int
    config: Union[PipelineConfig, _TreeNodeSpec]
    faults: Optional[FaultPlan] = None
    grant_credits: bool = False


def _arm_pdeathsig() -> None:
    """Ask the kernel to SIGKILL this process when its parent dies.

    Linux ``prctl(PR_SET_PDEATHSIG)`` via ctypes; a best-effort no-op
    elsewhere.  This is what makes a SIGKILLed NodeServer a *whole-node*
    loss: its hosted workers die with it instead of lingering orphaned
    with half-open sockets.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG == 1
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def _node_worker(conn: SocketConnection, spec: _WorkerSpec) -> None:
    """Entry point of a node-hosted worker child (post-fork).

    Arms ``PDEATHSIG`` against the hosting node and publishes the node's
    pid through :data:`repro.faults.plan.NODE_PID` so the
    ``node-sigkill`` fault (whose injector is constructed deep inside
    ``shard_worker``) can find its target, then dispatches on the spec's
    worker kind.
    """
    _arm_pdeathsig()
    _fault_plan_module.NODE_PID = os.getppid()
    if spec.kind == KIND_SHARD:
        shard_worker(
            conn,  # type: ignore[arg-type]  # Connection-shaped by design
            spec.index,
            spec.config,
            faults=spec.faults,
            rings=None,
            grant_credits=spec.grant_credits,
        )
    elif spec.kind == KIND_TREE:
        _tree_node_worker(conn, spec.config)
    else:
        try:
            conn.send(("error", f"unknown worker kind {spec.kind!r}"))
        except OSError:
            pass
        conn.close()


def _encode_partials(partials: Sequence[PartialResult]) -> Optional["PartialBlock"]:
    """Pack composites for one hop; ``None`` stands for an empty batch."""
    if not partials:
        return None
    return encode_partials(partials)


class PartialBlock:
    """A batch of :class:`~repro.distributed.tree.PartialResult`
    composites in columnar form — the tree runtime's wire unit.

    Every composite crossing one stage-to-stage hop covers the same
    stream set (the left-deep invariant: a stage's output always carries
    its full cover), so the set travels once as ``streams`` and the
    component tuples flatten into one :class:`~repro.core.blocks.TupleBlock`
    in ``streams`` order, ``len(streams)`` per composite.  ``delays``
    carries each composite's propagated delay annotation; its timestamp
    is recomputed on decode (max component ts — the constructor's own
    rule), so it never travels.  Blocks are self-contained (fresh
    encoder, schema inline): tree hops are per-trigger small, so schema
    renegotiation costs less than stateful pairing would complicate.
    """

    __slots__ = ("streams", "delays", "components")

    def __init__(
        self,
        streams: Tuple[int, ...],
        delays: List[int],
        components: TupleBlock,
    ) -> None:
        self.streams = streams
        self.delays = delays
        self.components = components

    def __len__(self) -> int:
        return len(self.delays)

    def __getstate__(self) -> Tuple[Tuple[int, ...], List[int], TupleBlock]:
        return (self.streams, self.delays, self.components)

    def __setstate__(
        self, state: Tuple[Tuple[int, ...], List[int], TupleBlock]
    ) -> None:
        self.streams, self.delays, self.components = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartialBlock(n={len(self.delays)}, streams={self.streams})"


def encode_partials(partials: Sequence[PartialResult]) -> PartialBlock:
    """Columnar-encode one hop's composites (shared stream set)."""
    streams = tuple(sorted(partials[0].components))
    flat: List[StreamTuple] = []
    delays: List[int] = []
    for partial in partials:
        if tuple(sorted(partial.components)) != streams:
            raise ValueError(
                "composites on one hop must share a stream set: "
                f"{streams} vs {tuple(sorted(partial.components))}"
            )
        delays.append(partial.delay)
        flat.extend(partial.components[s] for s in streams)
    return PartialBlock(streams, delays, BlockEncoder().encode(flat))


def decode_partials(block: PartialBlock) -> List[PartialResult]:
    """Rebuild the composites; ts is recomputed (= max component ts)."""
    components = BlockDecoder().decode(block.components)
    streams = block.streams
    width = len(streams)
    partials: List[PartialResult] = []
    pos = 0
    for delay in block.delays:
        group = dict(zip(streams, components[pos : pos + width]))
        pos += width
        partials.append(PartialResult(group, delay=delay))
    return partials


def _tree_node_worker(conn: SocketConnection, spec: _TreeNodeSpec) -> None:
    """Stage loop hosting one :class:`BinaryJoinNode` behind a socket.

    Protocol (driver → stage): ``(MSG_BATCH, (port, PartialBlock))``
    feeds decoded composites to the node in block order and replies
    ``("ok", PartialBlock | None)`` with whatever the feeds emitted;
    ``(MSG_CLOSE, port)`` closes the port and replies ``("ok",
    (PartialBlock | None, exhausted))``; ``(MSG_FLUSH, None)`` drains
    the node's synchronizer, replies ``("ok", PartialBlock | None)``,
    and ends the stage; ``(MSG_ABORT, None)`` ends it with no reply.
    Unknown tags raise (surfaced as an ``("error", ...)`` reply) —
    dispatch stays exhaustive like the shard worker's.
    """
    emitted: List[PartialResult] = []
    node = BinaryJoinNode(
        spec.window_sizes_ms,
        spec.condition,
        spec.left_cover,
        spec.right_cover,
        output=emitted.append,
    )
    try:
        while True:
            tag, payload = conn.recv()
            if tag == MSG_ABORT:
                return
            if tag == MSG_FLUSH:
                node.flush()
                conn.send(("ok", _encode_partials(emitted)))
                return
            if tag == MSG_CLOSE:
                node.flush_input(payload)
                reply = (_encode_partials(emitted), node.exhausted)
                emitted.clear()
                conn.send(("ok", reply))
                continue
            if tag != MSG_BATCH:
                raise ValueError(f"unknown protocol message tag {tag!r}")
            port, block = payload
            for item in decode_partials(block):
                node.feed(port, item)
            batch_reply = _encode_partials(emitted)
            emitted.clear()
            conn.send(("ok", batch_reply))
    except Exception as exc:  # surfaced by the driver as a RuntimeError
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        conn.close()


class NodeServer:
    """A worker-hosting accept loop — one per (virtual) machine.

    Binds at construction (``port=0`` picks a free port; read
    ``self.address``), then :meth:`serve` accepts connections forever:
    each :data:`MSG_JOIN` handshake is answered with ``("ok", pid)``
    *before* forking the worker, so the forked child inherits a
    :class:`SocketConnection` whose sequence counters already cover the
    handshake — the parent-side executor and the worker stay in lockstep
    from frame one.  After the fork the node releases its fd copy; the
    worker owns the connection outright.

    :meth:`spawn` is the test/deployment convenience: fork a process
    running :meth:`serve` and return ``(process, address)``.  Spawned
    nodes arm ``PDEATHSIG``, so abandoning the driver process cannot
    leak node trees.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        #: The bound ``(host, port)`` — what executors take as ``nodes``.
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

    def serve(self) -> None:
        """Accept and host workers until the listener dies."""
        context = multiprocessing.get_context("fork")
        workers: List[multiprocessing.process.BaseProcess] = []
        try:
            while True:
                try:
                    sock, _peer = self._listener.accept()
                except OSError:
                    return
                conn = SocketConnection(sock)
                sock.settimeout(HANDSHAKE_TIMEOUT_S)
                try:
                    tag, spec = conn.recv()
                except (EOFError, OSError):
                    conn.close()
                    continue
                if tag != MSG_JOIN:
                    try:
                        conn.send(
                            ("error", f"expected a join handshake, got {tag!r}")
                        )
                    except OSError:
                        pass
                    conn.close()
                    continue
                sock.settimeout(None)
                # Reply BEFORE forking: the child's inherited connection
                # then carries send/recv counters that already include
                # the handshake, keeping both directions' frame
                # sequences aligned with the parent's view.
                try:
                    conn.send(("ok", os.getpid()))
                except OSError:
                    conn.close()
                    continue
                process = context.Process(
                    target=_node_worker, args=(conn, spec), daemon=True
                )
                process.start()
                conn.release()
                # is_alive() reaps exited children as a side effect.
                workers = [w for w in workers if w.is_alive()]
                workers.append(process)
        finally:
            self._listener.close()

    def close(self) -> None:
        """Stop accepting (unblocks a concurrent :meth:`serve`)."""
        self._listener.close()

    @classmethod
    def spawn(
        cls, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[multiprocessing.process.BaseProcess, Tuple[str, int]]:
        """Fork a serving node; return ``(process, bound address)``.

        The listener is bound in the caller (so ``port=0`` resolves
        before the fork) and inherited by the child; the parent then
        closes its own copy.  Stop the node with ``process.terminate()``
        (workers follow via their daemon flag / ``PDEATHSIG``).
        """
        server = cls(host, port)
        context = multiprocessing.get_context("fork")
        process = context.Process(target=server._serve_spawned, daemon=False)
        process.start()
        server._listener.close()
        return process, server.address

    def _serve_spawned(self) -> None:
        """Child entry of :meth:`spawn`: die with the spawning driver."""
        _arm_pdeathsig()
        self.serve()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


NodeAddress = Tuple[str, int]


def _join_node(address: NodeAddress, spec: _WorkerSpec) -> Tuple[SocketConnection, int]:
    """Dial one node and run the :data:`MSG_JOIN` handshake.

    Returns ``(connection, node_pid)``.  The handshake runs under a
    socket timeout (an unresponsive node must not hang the caller);
    steady-state traffic afterwards is untimed, like a pipe.
    """
    sock = socket.create_connection(address, timeout=HANDSHAKE_TIMEOUT_S)
    conn = SocketConnection(sock)
    try:
        conn.send((MSG_JOIN, spec))
        tag, payload = conn.recv()
    except (EOFError, OSError):
        conn.close()
        raise
    if tag != "ok":
        conn.close()
        raise ConnectionError(f"node at {address} rejected join: {payload}")
    sock.settimeout(None)
    return conn, payload


def connect_worker(
    addresses: Sequence[NodeAddress], spec: _WorkerSpec, preferred: int
) -> Tuple[SocketConnection, int, int]:
    """Place one worker on some node, preferring ``addresses[preferred]``.

    Tries the preferred node first and round-robins through the rest —
    the placement *and* failover policy in one: a dead node refuses the
    dial and the worker lands on the next survivor.  Returns
    ``(connection, node_pid, node_index)``; raises
    :class:`ConnectionError` only when every node refused.
    """
    if not addresses:
        raise ValueError("at least one NodeServer address is required")
    count = len(addresses)
    failures: List[str] = []
    for attempt in range(count):
        index = (preferred + attempt) % count
        try:
            conn, node_pid = _join_node(addresses[index], spec)
        except (EOFError, OSError) as exc:
            failures.append(f"{addresses[index]}: {exc}")
            continue
        return conn, node_pid, index
    raise ConnectionError(
        "no NodeServer accepted the worker: " + "; ".join(failures)
    )


class _RemoteWorker:
    """Process-handle stand-in for a worker living in a remote node.

    The executors track per-shard ``Process`` objects for exitcode-based
    death detection and join/terminate lifecycle.  A remote worker has
    no local handle, so this stub reports "not mine to manage":
    ``exitcode`` stays ``None`` (death detection rides the connection's
    EOF/OSError paths instead, which the polling reply loops already
    handle) and join/terminate are no-ops (closing the connection is
    what actually releases the worker — it exits on EOF).
    """

    __slots__ = ("address", "node_pid")

    def __init__(self, address: NodeAddress, node_pid: int) -> None:
        self.address = address
        self.node_pid = node_pid

    @property
    def exitcode(self) -> Optional[int]:
        return None

    def is_alive(self) -> bool:
        return False

    def join(self, timeout: Optional[float] = None) -> None:
        pass

    def terminate(self) -> None:
        pass

    def kill(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_RemoteWorker(node={self.address}, node_pid={self.node_pid})"


def place_shard_worker(
    nodes: Sequence[NodeAddress],
    preferred: int,
    shard: int,
    config: PipelineConfig,
    faults: Optional[FaultPlan],
    grant_credits: bool,
) -> Tuple[SocketConnection, _RemoteWorker, int]:
    """Host one shard worker on a node: the executor's remote placement.

    Returns ``(connection, process stand-in, node index)`` — the same
    triple a local fork yields, so the executor above cannot tell the
    two apart.  Every node refusing the dial is a (recoverable) shard
    failure, like a fork that did not start.
    """
    spec = _WorkerSpec(
        kind=KIND_SHARD,
        index=shard,
        config=config,
        faults=faults,
        grant_credits=grant_credits,
    )
    try:
        conn, node_pid, node_index = connect_worker(nodes, spec, preferred)
    except ConnectionError as exc:
        raise ShardFailure(shard, str(exc)) from exc
    return conn, _RemoteWorker(nodes[node_index], node_pid), node_index


# ----------------------------------------------------------------------
# distributed join tree
# ----------------------------------------------------------------------


class DistributedTreeJoin:
    """A left-deep join tree with every binary node on a NodeServer.

    The distributed twin of
    :class:`~repro.distributed.tree.TreeJoinOperator`: stage *i* hosts
    the node covering streams ``{0..i+1}``; base stream 0 feeds stage
    0's port 0, stream ``s >= 1`` feeds stage ``s-1``'s port 1, and each
    stage's emissions are forwarded — in emission order, before anything
    else happens — to the next stage's port 0, with the root stage's
    emissions materializing as :class:`~repro.core.tuples.JoinResult`
    (components in stream order, the ``_root_sink`` rule).  Because
    every stage applies Alg. 2 on exactly the same composite sequence
    the in-process tree would see, results match it one for one
    (``test_socket_transport`` pins this differentially, close orders
    included).

    Emission is gated by the pairwise-window check
    (:func:`~repro.distributed.tree._pairwise_windows_ok`), which holds
    per composite independent of placement — so key-partitioned stage
    replicas would stay result-set-faithful; this runtime runs one
    replica per stage and leaves replication to the partitioned pipeline
    layer (``transport="socket"``).
    """

    def __init__(
        self,
        window_sizes_ms: Sequence[int],
        condition: JoinCondition,
        nodes: Sequence[NodeAddress],
        collect_results: bool = True,
    ) -> None:
        if len(window_sizes_ms) < 2:
            raise ValueError("a join tree needs at least two streams")
        self.window_sizes_ms = [int(w) for w in window_sizes_ms]
        self.num_streams = len(window_sizes_ms)
        self._collect = collect_results
        self._results: List[JoinResult] = []
        self._count = 0
        self._closed = [False] * self.num_streams
        self._flushed = False
        self._stages: List[SocketConnection] = []
        self._stage_exhausted = [False] * (self.num_streams - 1)
        addresses = [(str(host), int(port)) for host, port in nodes]
        try:
            left_cover = frozenset({0})
            for index in range(self.num_streams - 1):
                spec = _WorkerSpec(
                    kind=KIND_TREE,
                    index=index,
                    config=_TreeNodeSpec(
                        window_sizes_ms=self.window_sizes_ms,
                        condition=condition,
                        left_cover=left_cover,
                        right_cover=frozenset({index + 1}),
                    ),
                )
                conn, _node_pid, _node_index = connect_worker(
                    addresses, spec, preferred=index % len(addresses)
                )
                self._stages.append(conn)
                left_cover = left_cover | {index + 1}
        except BaseException:
            self.close()
            raise

    # -- driving -------------------------------------------------------

    def process(self, t: StreamTuple) -> Union[List[JoinResult], int]:
        """Feed one base tuple; return results completed by the root."""
        if self._flushed:
            raise RuntimeError("tree already flushed")
        if not 0 <= t.stream < self.num_streams:
            raise ValueError(
                f"tuple stream index {t.stream} outside [0, {self.num_streams})"
            )
        if self._closed[t.stream]:
            raise ValueError(f"stream {t.stream} already closed")
        before = self._count
        if t.stream == 0:
            self._feed(0, 0, [PartialResult.of(t)])
        else:
            self._feed(t.stream - 1, 1, [PartialResult.of(t)])
        return self._drain(before)

    def close_stream(self, stream: int) -> Union[List[JoinResult], int]:
        """Close one base stream; cascade exhaustion down the tree.

        Mirrors :meth:`TreeJoinOperator.close_stream` exactly: the
        closed port's unlocked emissions forward downstream *first*,
        then each exhausted stage closes its successor's port 0, left
        to right, stopping at the first non-exhausted stage.
        """
        if self._flushed:
            raise RuntimeError("tree already flushed")
        if not 0 <= stream < self.num_streams:
            raise ValueError(
                f"stream index {stream} outside [0, {self.num_streams})"
            )
        before = self._count
        if self._closed[stream]:
            return self._drain(before)
        self._closed[stream] = True
        if stream == 0:
            self._close_port(0, 0)
        else:
            self._close_port(stream - 1, 1)
        for index in range(len(self._stages) - 1):
            if self._stage_exhausted[index]:
                self._close_port(index + 1, 0)
            else:
                break
        return self._drain(before)

    def flush(self) -> Union[List[JoinResult], int]:
        """Flush every stage left to right; ends the stage workers."""
        if self._flushed:
            return self._drain(self._count)
        self._flushed = True
        before = self._count
        for index, conn in enumerate(self._stages):
            conn.send((MSG_FLUSH, None))
            block = self._await_ok(index)
            self._emit(index, decode_partials(block) if block is not None else [])
        return self._drain(before)

    def close(self) -> None:
        """Abort every stage without draining (abandoned run)."""
        for conn in self._stages:
            if not self._flushed:
                try:
                    conn.send((MSG_ABORT, None))
                except OSError:
                    pass
            conn.close()
        self._flushed = True

    def __enter__(self) -> "DistributedTreeJoin":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @property
    def results_produced(self) -> int:
        return self._count

    # -- internals -----------------------------------------------------

    def _feed(
        self, stage: int, port: int, partials: Sequence[PartialResult]
    ) -> None:
        conn = self._stages[stage]
        conn.send((MSG_BATCH, (port, encode_partials(partials))))
        block = self._await_ok(stage)
        if block is not None:
            self._emit(stage, decode_partials(block))

    def _close_port(self, stage: int, port: int) -> None:
        conn = self._stages[stage]
        conn.send((MSG_CLOSE, port))
        block, exhausted = self._await_ok(stage)
        self._stage_exhausted[stage] = exhausted
        if block is not None:
            # Forward what the closure unlocked BEFORE any further
            # closes reach the downstream stages (close-order fidelity).
            self._emit(stage, decode_partials(block))

    def _emit(self, stage: int, emissions: List[PartialResult]) -> None:
        if not emissions:
            return
        if stage == len(self._stages) - 1:
            for item in emissions:
                self._count += 1
                if self._collect:
                    components = tuple(
                        item.components[s] for s in range(self.num_streams)
                    )
                    self._results.append(JoinResult(item.ts, components))
        else:
            self._feed(stage + 1, 0, emissions)

    def _await_ok(self, stage: int) -> Any:
        try:
            tag, payload = self._stages[stage].recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(
                f"tree stage {stage} worker died: {exc}"
            ) from exc
        if tag != "ok":
            raise RuntimeError(f"tree stage {stage} failed: {payload}")
        return payload

    def _drain(self, before: int) -> Union[List[JoinResult], int]:
        if self._collect:
            new = self._results
            self._results = []
            return new
        return self._count - before
