"""Tests for the socket-distributed runtime (ISSUE 10).

Four layers.  The :class:`SocketConnection` unit layer pins the framing
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
output plus evidence the faults actually fired.  The tree layer drives
:class:`DistributedTreeJoin` differentially against the in-process
:class:`TreeJoinOperator`, close orders included.
"""

import random
import socket

import pytest

from repro import (
    FixedKPolicy,
    PipelineConfig,
    TieredStoreConfig,
    ZipfValueSampler,
    equi_join_chain,
    from_tuple_specs,
    seconds,
)
from repro.distributed import (
    DistributedTreeJoin,
    NodeServer,
    SocketConnection,
    SocketIntegrityError,
    TreeJoinOperator,
    connect_worker,
)
from repro.distributed.runtime import KIND_SHARD, _WorkerSpec
from repro.faults import (
    FaultPlan,
    FaultSpec,
    KIND_NODE_SIGKILL,
    KIND_SOCKET_DROP,
)
from repro.parallel import PartitionedPipeline, ShardFailure, SupervisionConfig

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


def test_connect_worker_fails_over_to_a_live_node(nodes):
    dead = ("127.0.0.1", 1)  # reserved port: connection refused
    spec = _WorkerSpec(kind=KIND_SHARD, index=0, config=_lossless_config(_dataset(12)))
    conn, node_pid, node_index = connect_worker([dead, nodes[0]], spec, preferred=0)
    try:
        assert node_index == 1
        assert node_pid > 0
    finally:
        conn.send(("abort", None))
        conn.close()


def test_connect_worker_raises_when_no_node_accepts():
    spec = _WorkerSpec(kind=KIND_SHARD, index=0, config=_lossless_config(_dataset(12)))
    with pytest.raises(ConnectionError, match="no NodeServer accepted"):
        connect_worker([("127.0.0.1", 1)], spec, preferred=0)


# ---------------------------------------------------------------------------
# executor identity: socket vs pipe, shards x stores, elastic, recovery
# ---------------------------------------------------------------------------


def _dataset(num_tuples=600, z=1.1, domain=48, seed=7, max_delay=300):
    rng = random.Random(seed)
    sampler = ZipfValueSampler(list(range(1, domain + 1)), z, rng)
    events = []
    for i in range(num_tuples):
        delay = 0 if rng.random() < 0.8 else rng.randint(1, max_delay)
        events.append((i % 3, i * 9, delay, sampler.sample()))
    order = sorted(
        range(num_tuples), key=lambda i: (events[i][1] + events[i][2], i)
    )
    specs = [(events[i][0], events[i][1], {"a1": events[i][3]}) for i in order]
    return from_tuple_specs(specs, num_streams=3, name=f"socket-{seed}")


def _lossless_config(dataset, store=None):
    k = dataset.max_delay()
    kwargs = {} if store is None else {"store": store}
    return PipelineConfig(
        window_sizes_ms=[seconds(1)] * 3,
        condition=equi_join_chain("a1", 3),
        gamma=0.95,
        period_ms=seconds(10),
        interval_ms=seconds(1),
        policy=FixedKPolicy(k),
        initial_k_ms=k,
        **kwargs,
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
# distributed tree: differential vs the in-process operator
# ---------------------------------------------------------------------------


def _tree_reference(dataset, windows, condition, closes=()):
    tree = TreeJoinOperator(windows, condition)
    out = []
    closed = dict(closes)
    for i, t in enumerate(dataset.arrivals()):
        for stream in closed.pop(i, ()):
            out.extend(tree.close_stream(stream))
        if not tree._closed[t.stream]:
            out.extend(tree.process(t))
    out.extend(tree.flush())
    return [(r.ts, r.key()) for r in out]


def _tree_distributed(dataset, windows, condition, addresses, closes=()):
    out = []
    closed = dict(closes)
    with DistributedTreeJoin(windows, condition, nodes=addresses) as tree:
        for i, t in enumerate(dataset.arrivals()):
            for stream in closed.pop(i, ()):
                out.extend(tree.close_stream(stream))
            if not tree._closed[t.stream]:
                out.extend(tree.process(t))
        out.extend(tree.flush())
    return [(r.ts, r.key()) for r in out]


def test_distributed_tree_matches_in_process_tree(dataset, nodes):
    windows = [seconds(1)] * 3
    condition = equi_join_chain("a1", 3)
    assert _tree_distributed(dataset, windows, condition, nodes) == \
        _tree_reference(dataset, windows, condition)


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
    windows = [seconds(1)] * 3
    condition = equi_join_chain("a1", 3)
    assert _tree_distributed(dataset, windows, condition, nodes, closes) == \
        _tree_reference(dataset, windows, condition, closes)


def _feed_until_failure(tree, dataset):
    for t in dataset.arrivals():
        tree.process(t)
    tree.flush()


def test_distributed_tree_dead_stage_is_a_typed_failure(dataset):
    # SIGKILL the node hosting the stages mid-run: its workers die with
    # it (PDEATHSIG) and the driver must see a typed failure carrying
    # the stage index within seconds — not a bare RuntimeError out of a
    # blocking recv(), and never a hang.
    import time

    process, address = NodeServer.spawn()
    try:
        windows = [seconds(1)] * 3
        condition = equi_join_chain("a1", 3)
        with DistributedTreeJoin(windows, condition, nodes=[address]) as tree:
            arrivals = dataset.arrivals()
            for _ in range(60):
                tree.process(next(arrivals))
            process.kill()
            process.join(10)
            started = time.perf_counter()
            with pytest.raises(ShardFailure) as excinfo:
                _feed_until_failure(tree, dataset)
            assert time.perf_counter() - started < 10
            assert excinfo.value.shard in (0, 1)
            assert excinfo.value.recoverable
    finally:
        process.kill()
        process.join(10)


def test_distributed_tree_stage_error_is_not_recoverable(nodes):
    # A stage whose node raised reports ("error", ...): deterministic,
    # so the typed failure says a retry would only reproduce it.
    windows = [seconds(1)] * 2
    condition = equi_join_chain("a1", 2)
    with DistributedTreeJoin(windows, condition, nodes=nodes) as tree:
        stage = tree.nodes[0]
        with pytest.raises(ShardFailure, match="unknown protocol") as excinfo:
            stage._send(("bogus", None))
        assert excinfo.value.shard == 0
        assert not excinfo.value.recoverable


def test_distributed_tree_rejects_closed_stream_feed(nodes):
    windows = [seconds(1)] * 2
    condition = equi_join_chain("a1", 2)
    ds = _dataset(24)
    with DistributedTreeJoin(windows, condition, nodes=nodes) as tree:
        tree.close_stream(0)
        assert tree.close_stream(0) == []  # idempotent
        for t in ds.arrivals():
            if t.stream == 0:
                with pytest.raises(ValueError, match="already closed"):
                    tree.process(t)
                break
