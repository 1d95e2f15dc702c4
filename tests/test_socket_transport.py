"""Tests for the socket-distributed runtime.

Three layers.  The :class:`SocketConnection` unit layer pins the framing
protocol itself: roundtrips, sequence verification, CRC detection, pipe
EOF/OSError semantics.  The executor identity layer proves the
load-bearing property of ``transport="socket"``: the canonical result
sequence and summed ``JoinStatistics`` of a join distributed across two
localhost ``NodeServer`` processes are byte-identical to the
single-process pipe executor at shards 1/2/4, over both window stores —
including across a mid-stream elastic node join (``pipeline.grow`` onto
a node started *after* the run began) and a node leave
(``pipeline.shrink``).  The recovery layer injects a socket drop and a
whole-node SIGKILL under supervision and requires indistinguishable
output plus evidence the faults actually fired.  A last differential
check holds the in-process tree of binary joins, with streams closing
mid-stream, to the socket runtime's result over the same tuples.
"""

import socket

import pytest

from repro import (
    TieredStoreConfig,
    equi_join_chain,
    seconds,
)
from repro.distributed import (
    NodeServer,
    SocketConnection,
    SocketIntegrityError,
    TreeJoinOperator,
    connect_worker,
)
from repro.distributed.runtime import MSG_JOIN, _WorkerSpec
from repro.faults import (
    FaultPlan,
    FaultSpec,
    KIND_NODE_SIGKILL,
    KIND_SOCKET_DROP,
)
from repro.parallel import PartitionedPipeline, SupervisionConfig
from repro.streams.source import Dataset
from repro.workloads import fixed_k_config, interleaved_dataset

# ---------------------------------------------------------------------------
# SocketConnection unit tests
# ---------------------------------------------------------------------------


@pytest.fixture()
def conn_pair():
    left_sock, right_sock = socket.socketpair()
    left, right = SocketConnection(left_sock), SocketConnection(right_sock)
    yield left, right
    left.close()
    right.close()


def test_roundtrip_preserves_objects_and_interleaving(conn_pair):
    left, right = conn_pair
    left.send(("batch", [1, 2, 3]))
    left.send(("flush", None))
    right.send(("ok", "reply"))
    assert right.recv() == ("batch", [1, 2, 3])
    assert left.recv() == ("ok", "reply")
    assert right.recv() == ("flush", None)


def test_sequence_violation_is_an_integrity_error(conn_pair):
    left, right = conn_pair
    left.send("first")
    left.send("second")
    right.recv()
    # Regress the receiver's expectation: the next frame (seq 2) must
    # now look duplicated, and the mismatch must be typed, not silent.
    right._recv_seq = 5
    with pytest.raises(SocketIntegrityError, match="sequence"):
        right.recv()


def test_corrupted_payload_fails_crc(conn_pair):
    left, right = conn_pair
    import struct
    import zlib

    payload = b"payload-bytes"
    header = struct.pack("<QII", 1, len(payload), zlib.crc32(payload))
    # Flip one payload byte behind the framing layer's back.
    tampered = bytes([payload[0] ^ 0xFF]) + payload[1:]
    left._sock.sendall(header + tampered)
    with pytest.raises(SocketIntegrityError, match="CRC"):
        right.recv_bytes()


def test_peer_close_raises_eof(conn_pair):
    left, right = conn_pair
    left.close()
    with pytest.raises(EOFError):
        right.recv()


def test_claimed_length_is_not_allocated_before_it_arrives(conn_pair):
    # The header's length field is unverified input (NodeServer.serve
    # reads a frame before it has checked the MSG_JOIN handshake): 16
    # bytes claiming 256 MiB must not make the receiver hold 256 MiB.
    import struct
    import tracemalloc

    left, right = conn_pair
    left._sock.sendall(struct.pack("<QII", 1, 256 << 20, 0))
    left.close()
    tracemalloc.start()
    try:
        with pytest.raises(EOFError):
            right.recv_bytes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_multi_chunk_payload_roundtrips(conn_pair):
    # Larger than the frame reader's bounded read: reassembled exactly.
    import threading

    left, right = conn_pair
    payload = bytes(range(256)) * 4096  # 1 MiB
    sender = threading.Thread(target=left.send_frame, args=(payload,))
    sender.start()
    try:
        assert right.recv_bytes() == payload
    finally:
        sender.join(10)


def test_closed_connection_rejects_send_and_poll(conn_pair):
    left, _right = conn_pair
    left.close()
    with pytest.raises(OSError):
        left.send("late")
    with pytest.raises(OSError):
        left.poll(0.0)


def test_poll_reflects_readability(conn_pair):
    left, right = conn_pair
    assert right.poll(0.0) is False
    left.send("wake")
    assert right.poll(1.0) is True
    assert right.recv() == "wake"


# ---------------------------------------------------------------------------
# NodeServer handshake edges
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nodes():
    """Two localhost NodeServer processes shared by the identity tests."""
    spawned = [NodeServer.spawn() for _ in range(2)]
    yield [address for _, address in spawned]
    for process, _ in spawned:
        process.terminate()
        process.join(5)


def test_non_join_handshake_is_rejected(nodes):
    conn = SocketConnection(socket.create_connection(nodes[0], timeout=10))
    try:
        conn.send(("batch", [1, 2, 3]))
        tag, detail = conn.recv()
        assert tag == "error"
        assert "join" in detail
    finally:
        conn.close()


def test_malformed_openers_leave_the_node_serving():
    # A framed opener that is not a pair, a join whose payload is not a
    # worker spec and a frame that does not unpickle are each refused
    # with one reply; the node forks nothing for them and keeps
    # accepting, so a well-formed join still places a worker.
    import pickle

    process, address = NodeServer.spawn()
    try:
        for payload in (
            pickle.dumps("hello"),
            pickle.dumps((MSG_JOIN, 42)),
            b"not a pickle",
        ):
            conn = SocketConnection(socket.create_connection(address, timeout=10))
            try:
                conn.send_bytes(payload)
                tag, detail = conn.recv()
                assert tag == "error"
                assert "join" in detail
            finally:
                conn.close()
        spec = _WorkerSpec(index=0, config=_lossless_config(_dataset(12)))
        conn, node_pid, node_index = connect_worker([address], spec, preferred=0)
        try:
            assert (node_pid, node_index) == (process.pid, 0)
        finally:
            conn.send(("abort", None))
            conn.close()
        assert process.is_alive()
    finally:
        process.terminate()
        process.join(5)


def test_connect_worker_fails_over_to_a_live_node(nodes):
    dead = ("127.0.0.1", 1)  # reserved port: connection refused
    spec = _WorkerSpec(index=0, config=_lossless_config(_dataset(12)))
    conn, node_pid, node_index = connect_worker([dead, nodes[0]], spec, preferred=0)
    try:
        assert node_index == 1
        assert node_pid > 0
    finally:
        conn.send(("abort", None))
        conn.close()


def test_connect_worker_raises_when_no_node_accepts():
    spec = _WorkerSpec(index=0, config=_lossless_config(_dataset(12)))
    with pytest.raises(ConnectionError, match="no NodeServer accepted"):
        connect_worker([("127.0.0.1", 1)], spec, preferred=0)


# ---------------------------------------------------------------------------
# executor identity: socket vs pipe, shards x stores, elastic, recovery
# ---------------------------------------------------------------------------


def _dataset(num_tuples=600, z=1.1, domain=48, seed=7, max_delay=300):
    return interleaved_dataset(
        f"socket-{seed}", num_tuples, 9, max_delay, domain, seed, zipf=z
    )


def _lossless_config(dataset, store=None):
    return fixed_k_config(
        dataset.max_delay(), [seconds(1)] * 3, equi_join_chain("a1", 3), True,
        store,
    )


def _store(kind):
    return TieredStoreConfig(hot_budget=64) if kind == "tiered" else None


def _drive(dataset, config, shards, grow_at=None, grow_node=None,
           shrink_at=None, **kwargs):
    """Feed per-tuple with optional mid-stream resize; return
    (exact sequence, summed JoinStatistics)."""
    pipeline = PartitionedPipeline(config, shards, **kwargs)
    out = []
    with pipeline:
        for i, t in enumerate(dataset.arrivals()):
            if grow_at is not None and i == grow_at:
                if grow_node is not None:
                    pipeline.executor.add_node(grow_node)
                out.extend(pipeline.grow())
            if shrink_at is not None and i == shrink_at:
                out.extend(pipeline.shrink(0))
            out.extend(pipeline.process(t))
        out.extend(pipeline.flush())
        stats = pipeline.join_statistics()
    return [(r.ts, r.key()) for r in out], stats, pipeline


@pytest.fixture(scope="module")
def dataset():
    return _dataset()


@pytest.fixture(scope="module")
def pipe_reference(dataset):
    """Pipe-transport process runs per store — the identity baseline."""
    cache = {}

    def _get(store=None, shards=4):
        key = ("tiered" if store is not None else "memory", shards)
        if key not in cache:
            config = _lossless_config(dataset, _store(store))
            sequence, stats, _ = _drive(dataset, config, shards, executor="process")
            cache[key] = (sequence, stats)
        return cache[key]

    return _get


@pytest.mark.parametrize("store", [None, "tiered"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_socket_matches_pipe_across_shards_and_stores(
    dataset, pipe_reference, nodes, shards, store
):
    ref_sequence, ref_stats = pipe_reference(store, shards)
    sequence, stats, _ = _drive(
        dataset, _lossless_config(dataset, _store(store)), shards,
        executor="process", transport="socket", nodes=nodes,
    )
    assert sequence == ref_sequence
    assert stats == ref_stats


def test_four_shards_span_both_nodes(dataset, nodes):
    """The acceptance topology really is distributed: both NodeServer
    processes host live workers (distinct node pids across shards)."""
    config = _lossless_config(dataset)
    _sequence, _stats, pipeline = _drive(
        dataset, config, 4, executor="process", transport="socket",
        nodes=nodes,
    )
    # Least-loaded first placement degenerates to round-robin.
    assert [state.node for state in pipeline.executor._shards] == [0, 1, 0, 1]


def test_mid_stream_node_join_is_byte_identical(dataset, pipe_reference, nodes):
    """A NodeServer started mid-run adopts a grown shard through the
    migration barrier; output and statistics match the pipe executor
    growing at the same point — and, canonically, a static 4-shard run."""
    config = _lossless_config(dataset)
    ref_sequence, ref_stats, _ = _drive(
        dataset, config, 3, grow_at=300, executor="process",
        slots_per_shard=4,
    )
    process, address = NodeServer.spawn()
    try:
        sequence, stats, pipeline = _drive(
            dataset, config, 3, grow_at=300, grow_node=address,
            executor="process", transport="socket", nodes=list(nodes),
            slots_per_shard=4,
        )
        # The joined node (index 2) is the least loaded, so it hosts
        # the grown shard (shard 3).
        assert pipeline.executor._shards[3].node == 2
    finally:
        process.terminate()
        process.join(5)
    assert sequence == ref_sequence
    assert stats == ref_stats
    static_sequence, static_stats = pipe_reference(None, 4)
    assert sorted(sequence) == sorted(static_sequence)
    assert stats == static_stats


def test_mid_stream_node_leave_is_byte_identical(dataset, nodes):
    """Shrinking a shard mid-run (node leave) hands its slots to the
    survivors; canonical output and statistics match an undisturbed
    socket run."""
    config = _lossless_config(dataset)
    ref_sequence, ref_stats, _ = _drive(
        dataset, config, 3, shrink_at=300, executor="process",
        slots_per_shard=4,
    )
    sequence, stats, _ = _drive(
        dataset, config, 3, shrink_at=300, executor="process",
        transport="socket", nodes=nodes, slots_per_shard=4,
    )
    assert sequence == ref_sequence
    assert stats == ref_stats


def test_socket_identity_with_credit_window(dataset, pipe_reference, nodes):
    ref_sequence, ref_stats = pipe_reference(None, 2)
    sequence, stats, _ = _drive(
        dataset, _lossless_config(dataset), 2,
        executor="process", transport="socket", nodes=nodes,
        credit_window=1,
    )
    assert sequence == ref_sequence
    assert stats == ref_stats


def test_nodes_without_socket_transport_is_rejected(dataset, nodes):
    with pytest.raises(ValueError, match="only meaningful"):
        PartitionedPipeline(
            _lossless_config(dataset), 2, executor="process", nodes=nodes
        )


def test_socket_transport_without_nodes_is_rejected(dataset):
    with pytest.raises(ValueError, match="requires"):
        PartitionedPipeline(
            _lossless_config(dataset), 2, executor="process",
            transport="socket",
        )


# ---------------------------------------------------------------------------
# supervised recovery: socket drop and whole-node SIGKILL
# ---------------------------------------------------------------------------

SUP = SupervisionConfig(
    heartbeat_interval=4,
    heartbeat_timeout_s=5.0,
    checkpoint_interval=8,
    max_respawns=4,
    backoff_base_s=0.01,
)


@pytest.fixture(scope="module")
def supervised_reference(dataset):
    # batch_size=16 on the reference and every fault run: the plans are
    # batch-indexed, and small batches make them fire within this
    # dataset (same convention as test_supervision).
    config = _lossless_config(dataset)
    sequence, stats, _ = _drive(
        dataset, config, 2, executor="supervised", batch_size=16,
        supervision=SUP,
    )
    return sequence, stats


def test_supervised_socket_baseline_matches_pipe(
    dataset, supervised_reference, nodes
):
    ref_sequence, ref_stats = supervised_reference
    sequence, stats, _ = _drive(
        dataset, _lossless_config(dataset), 2, executor="supervised",
        batch_size=16, supervision=SUP, transport="socket", nodes=nodes,
    )
    assert sequence == ref_sequence
    assert stats == ref_stats


def test_socket_drop_recovers_byte_identically(
    dataset, supervised_reference, nodes
):
    ref_sequence, ref_stats = supervised_reference
    plan = FaultPlan((FaultSpec(0, KIND_SOCKET_DROP, at=5),))
    sequence, stats, pipeline = _drive(
        dataset, _lossless_config(dataset), 2, executor="supervised",
        batch_size=16, supervision=SUP, transport="socket", nodes=nodes,
        fault_plan=plan,
    )
    # Not vacuous: the drop really killed a worker and it was respawned
    # — on its incumbent node, which is still there.
    assert pipeline.executor.respawns >= 1, "fault plan never fired"
    assert [state.node for state in pipeline.executor._shards] == [0, 1]
    assert sequence == ref_sequence
    assert stats == ref_stats


def test_node_sigkill_fails_over_byte_identically(dataset, supervised_reference):
    """A whole-node SIGKILL (PDEATHSIG takes its workers down with it)
    must recover by respawning onto the surviving node, byte-identically."""
    ref_sequence, ref_stats = supervised_reference
    victims = [NodeServer.spawn() for _ in range(2)]
    addresses = [address for _, address in victims]
    plan = FaultPlan((FaultSpec(0, KIND_NODE_SIGKILL, at=5),))
    try:
        sequence, stats, pipeline = _drive(
            dataset, _lossless_config(dataset), 2, executor="supervised",
            batch_size=16, supervision=SUP, transport="socket",
            nodes=addresses, fault_plan=plan,
        )
        assert pipeline.executor.respawns >= 1, "fault plan never fired"
        assert sequence == ref_sequence
        assert stats == ref_stats
        # The fault's target node really died.
        dead = [process for process, _ in victims if not process.is_alive()]
        assert dead
    finally:
        for process, _ in victims:
            if process.is_alive():
                process.terminate()
            process.join(5)


# ---------------------------------------------------------------------------
# elastic grow/shrink on the in-process executors (the barrier itself)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_grow_is_canonically_invisible(dataset, executor):
    config = _lossless_config(dataset)
    static_sequence, static_stats, _ = _drive(
        dataset, config, 3, executor=executor, slots_per_shard=4
    )
    grown_sequence, grown_stats, pipeline = _drive(
        dataset, config, 2, grow_at=200, executor=executor, slots_per_shard=6
    )
    assert pipeline.num_shards == 3
    assert pipeline.resizes == 1
    assert sorted(grown_sequence) == sorted(static_sequence)
    assert grown_stats == static_stats


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_shrink_is_canonically_invisible(dataset, executor):
    config = _lossless_config(dataset)
    static_sequence, static_stats, _ = _drive(
        dataset, config, 3, executor=executor, slots_per_shard=4
    )
    shrunk_sequence, shrunk_stats, pipeline = _drive(
        dataset, config, 3, shrink_at=200, executor=executor,
        slots_per_shard=4,
    )
    assert pipeline.resizes == 1
    assert sorted(shrunk_sequence) == sorted(static_sequence)
    assert shrunk_stats == static_stats


def test_shrink_last_live_shard_is_rejected(dataset):
    config = _lossless_config(dataset)
    with PartitionedPipeline(config, 1, slots_per_shard=4) as pipeline:
        with pytest.raises(ValueError, match="last live shard"):
            pipeline.shrink(0)


# ---------------------------------------------------------------------------
# the distributed tree (paper Sec. V) vs the socket runtime, mid-stream closes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "closes",
    [
        ((300, (0,)),),
        ((200, (2,)), (400, (0,))),
        ((250, (1,)), (350, (0,)), (450, (2,))),
    ],
    ids=["close-left-first", "close-right-then-left", "close-all-mid-stream"],
)
def test_distributed_tree_close_orders_match(dataset, nodes, closes):
    # The tree of binary joins takes the timestamp-ordered feed and ends
    # streams at the given positions; a closed stream's later tuples are
    # never fed.  A lossless socket-distributed run over exactly the fed
    # tuples, in their disordered arrival order, must produce the same
    # result multiset.
    windows = [seconds(1)] * 3
    condition = equi_join_chain("a1", 3)
    tree = TreeJoinOperator(windows, condition)
    closed = dict(closes)
    produced, fed = [], []
    for i, t in enumerate(dataset.sorted_by_timestamp()):
        for stream in closed.pop(i, ()):
            produced.extend(tree.close_stream(stream))
        if not tree._closed[t.stream]:
            produced.extend(tree.process(t))
            fed.append(t)
    produced.extend(tree.flush())
    assert len(fed) < len(dataset)
    fed_dataset = Dataset(sorted(fed, key=lambda t: t.arrival), num_streams=3)
    sequence, _, _ = _drive(
        fed_dataset, _lossless_config(dataset), 2,
        executor="process", transport="socket", nodes=nodes,
    )
    assert produced
    assert sorted(r.key() for r in produced) == sorted(key for _, key in sequence)
