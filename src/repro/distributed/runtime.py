"""Socket-distributed execution: NodeServers and shard-worker placement.

The partitioned pipeline's process executor talks to forked shard
workers through ``multiprocessing`` pipes — which confines a run to one
machine.  This module lifts the *same* executor ↔ worker protocol onto
TCP:

* :class:`SocketConnection` — the TCP carrier: a ``Connection``-shaped
  wrapper over a socket that ships each pickled ``(tag, payload)``
  message as one frame of :mod:`repro.parallel.channel` (the same
  ``<QII`` frame, checked by the same reader, as
  :class:`~repro.parallel.shm.ShmRing`).  A
  :class:`~repro.parallel.channel.Channel` takes it in place of a pipe
  end, so :func:`~repro.parallel.shard.shard_worker` and the executor
  run over it **unchanged**.
* :class:`NodeServer` — the remote end: an accept loop that hosts shard
  workers as forked child processes, one per accepted :data:`MSG_JOIN`
  handshake.  Workers arm ``PDEATHSIG`` so a killed node takes its
  workers down with it — a whole-machine loss the supervised executor
  recovers from by reconnecting to surviving nodes.
* :func:`connect_worker` / :func:`place_shard_worker` — the parent
  side: the dial + :data:`MSG_JOIN` handshake that
  :class:`~repro.parallel.executors.ProcessExecutor` uses in place of
  fork + pipe when it is given ``nodes``.  Nothing else about the
  executor changes (migration barriers, heartbeats, checkpoint/replay
  and elastic ``add_shard``/``retire_shard`` included); its workers
  simply live in ``NodeServer`` processes addressed by ``(host, port)``.

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
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..core.blocks import PICKLE_PROTOCOL
from ..core.pipeline import PipelineConfig
from ..faults import FaultPlan
from ..faults import plan as _fault_plan_module
from ..parallel.channel import frame_header, read_frame
from ..parallel.shard import ShardFailure, shard_worker

#: Seconds a connecting parent (and the accepting node) will wait on the
#: :data:`MSG_JOIN` handshake before treating the peer as unreachable.
HANDSHAKE_TIMEOUT_S = 10.0

#: The socket runtime's extension of the executor ↔ worker protocol:
#: the parent → node handshake.  Payload is a :class:`_WorkerSpec`; the
#: node replies ``("ok", node_pid)`` and forks a worker that owns the
#: connection from then on.  Any other opener is rejected with
#: ``("error", ...)``.
MSG_JOIN = "join"


class SocketIntegrityError(OSError):
    """A socket frame failed its sequence or CRC check.

    Subclasses :class:`OSError` so every existing dead/corrupt-peer
    handling path in the executors (which catches ``OSError``) treats a
    torn frame exactly like a broken pipe: typed failure, never a hang.
    """


class SocketConnection:
    """``multiprocessing.Connection``-shaped carrier over a TCP socket.

    One pickled message per frame of :mod:`repro.parallel.channel`;
    ``seq`` is per-direction and strictly monotone, so a dropped,
    duplicated or reordered frame — like a corrupted one — surfaces as
    :class:`SocketIntegrityError` instead of silently desynchronizing
    the protocol.  The error surface mirrors a pipe ``Connection``:
    clean peer shutdown raises :class:`EOFError` from ``recv``,
    everything else is an :class:`OSError` — so a
    :class:`~repro.parallel.channel.Channel` (and the polling receive
    step above it) runs over either.
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
        self._sock.sendall(frame_header(self._send_seq, payload) + payload)

    # -- receive side --------------------------------------------------

    def recv(self) -> Any:
        return pickle.loads(self.recv_bytes())

    def recv_bytes(self) -> bytes:
        payload = read_frame(
            self._recv_exact, self._recv_seq + 1, SocketIntegrityError
        )
        self._recv_seq += 1
        return payload

    def _recv_exact(self, n: int) -> bytes:
        """Exactly ``n`` bytes off the socket (the frame reader keeps
        ``n`` bounded, so this buffer never outgrows what arrives)."""
        if self._closed:
            raise OSError("socket connection is closed")
        buffer = bytearray(n)
        view = memoryview(buffer)
        got = 0
        while got < n:
            read = self._sock.recv_into(view[got:])
            if read == 0:
                # Clean peer shutdown mid-stream == pipe EOF semantics.
                raise EOFError("socket closed by peer")
            got += read
        return bytes(buffer)

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
class _WorkerSpec:
    """The :data:`MSG_JOIN` handshake payload: which shard worker to host.

    Travels pickled, so everything in it must be picklable (theta
    lambdas are not — see the module docstring).
    """

    index: int
    config: PipelineConfig
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
    """Entry point of a node-hosted shard worker child (post-fork).

    Arms ``PDEATHSIG`` against the hosting node and publishes the node's
    pid through :data:`repro.faults.plan.NODE_PID` so the
    ``node-sigkill`` fault (whose injector is constructed deep inside
    ``shard_worker``) can find its target.
    """
    _arm_pdeathsig()
    _fault_plan_module.NODE_PID = os.getppid()
    shard_worker(
        conn,  # type: ignore[arg-type]  # Connection-shaped by design
        spec.index,
        spec.config,
        faults=spec.faults,
        rings=None,
        grant_credits=spec.grant_credits,
    )


def _join_spec(opener: Any) -> Optional[_WorkerSpec]:
    """The spec of a well-formed ``(MSG_JOIN, _WorkerSpec)`` opener."""
    if (
        isinstance(opener, tuple)
        and len(opener) == 2
        and opener[0] == MSG_JOIN
        and isinstance(opener[1], _WorkerSpec)
    ):
        return opener[1]
    return None


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
                    opener = conn.recv()
                except (EOFError, OSError):
                    conn.close()
                    continue
                except Exception as exc:
                    # A well-framed payload that does not unpickle: the
                    # accept loop must outlive any one peer.
                    opener = exc
                spec = _join_spec(opener)
                if spec is None:
                    # Never fork for it: a malformed opener costs one
                    # reply, not the node.
                    try:
                        conn.send(
                            ("error", f"expected a join handshake, got {opener!r:.200}")
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


def place_shard_worker(
    nodes: Sequence[NodeAddress],
    preferred: int,
    shard: int,
    config: PipelineConfig,
    faults: Optional[FaultPlan],
    grant_credits: bool,
) -> Tuple[SocketConnection, int]:
    """Host one shard worker on a node: the executor's remote placement.

    Returns ``(connection, node index)``.  There is no process handle:
    the worker is the node's child, its death surfaces as EOF / reset on
    the connection (which the polling receive step already handles), and
    closing the connection is what releases it — it exits on EOF.  Every
    node refusing the dial is a (recoverable) shard failure, like a fork
    that did not start.
    """
    spec = _WorkerSpec(
        index=shard,
        config=config,
        faults=faults,
        grant_credits=grant_credits,
    )
    try:
        conn, _node_pid, node_index = connect_worker(nodes, spec, preferred)
    except ConnectionError as exc:
        raise ShardFailure(shard, str(exc)) from exc
    return conn, node_index
