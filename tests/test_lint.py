"""Tier-1 wiring of repro-lint (``tools/lint.py`` / :mod:`repro.analysis`).

Three layers, mirroring the docs gate's wiring:

* **fixture tests** — every rule fires on a minimal known-bad snippet
  and stays silent on the matching known-clean one, via
  :func:`repro.analysis.analyze_sources` (in-memory, no tmp files);
* **mutation tests** — seeding a deliberate contract break into the
  *real* engine sources (a ``StreamTuple`` slot the codec does not
  carry; a ``MSG_*`` dispatch arm removed from ``shard_worker``) makes
  the corresponding rule fail, proving the gate guards the actual
  modules and not just synthetic ones;
* **clean-tree regression** — ``src`` + ``tools`` + ``benchmarks`` lint
  clean, so any new finding fails the ordinary test suite before push.

The mypy/ruff halves of the lint gate run only when those tools are
installed (the CI ``lint`` job installs them; the runtime image may
not), guarded by ``shutil.which``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    Rule,
    all_rules,
    analyze_paths,
    analyze_sources,
    register,
    select_rules,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

EXPECTED_RULES = {
    "codec-coverage",
    "protocol-exhaustiveness",
    "determinism",
    "flush-contract",
    "ipc-safety",
}


def rule_names(findings):
    return [finding.rule for finding in findings]


# ---------------------------------------------------------------------------
# registry + engine machinery
# ---------------------------------------------------------------------------


def test_registry_has_every_engine_rule():
    names = {rule.name for rule in all_rules()}
    assert EXPECTED_RULES <= names


def test_select_rules_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown rule"):
        select_rules(["no-such-rule"])


def test_register_rejects_duplicate_and_anonymous_rules():
    class Anonymous(Rule):
        name = ""

    with pytest.raises(ValueError, match="no name"):
        register(Anonymous)

    class Imposter(Rule):
        name = "determinism"

    with pytest.raises(ValueError, match="duplicate"):
        register(Imposter)


def test_parse_errors_are_reported_not_raised():
    findings = analyze_sources({"broken.py": "def broken(:\n"})
    assert rule_names(findings) == ["parse-error"]
    assert findings[0].path == "broken.py"


def test_finding_format_is_path_line_col_rule():
    finding = Finding("determinism", "a.py", 3, 4, "msg")
    assert finding.format() == "a.py:3:4: determinism: msg"


# ---------------------------------------------------------------------------
# suppression pragmas
# ---------------------------------------------------------------------------


def test_line_pragma_suppresses_only_that_line():
    source = (
        "a = hash('x')  # repro-lint: disable=determinism\n"
        "b = hash('y')\n"
    )
    findings = analyze_sources({"s.py": source}, ["determinism"])
    assert [finding.line for finding in findings] == [2]


def test_file_pragma_suppresses_whole_file():
    source = (
        "# repro-lint: disable-file=determinism\n"
        "a = hash('x')\n"
        "b = hash('y')\n"
    )
    assert analyze_sources({"s.py": source}, ["determinism"]) == []


def test_pragma_inside_string_literal_does_not_suppress():
    source = 'note = "# repro-lint: disable=determinism"\na = hash(note)\n'
    findings = analyze_sources({"s.py": source}, ["determinism"])
    assert rule_names(findings) == ["determinism"]


def test_all_wildcard_suppresses_any_rule():
    source = "a = hash('x')  # repro-lint: disable=all\n"
    assert analyze_sources({"s.py": source}, ["determinism"]) == []


# ---------------------------------------------------------------------------
# codec-coverage fixtures
# ---------------------------------------------------------------------------

CODEC_CLEAN = '''
class StreamTuple:
    __slots__ = ("ts", "values")

    def __getstate__(self):
        return (self.ts, self.values)

    def __setstate__(self, state):
        self.ts, self.values = state


class TupleBlock:
    __slots__ = ("ts", "columns")


class BlockEncoder:
    def encode(self, batch):
        return TupleBlock([t.ts for t in batch], [t.values for t in batch])


class BlockDecoder:
    def decode(self, block):
        return [
            StreamTuple.restore(ts, values)
            for ts, values in zip(block.ts, block.columns)
        ]
'''


def test_codec_coverage_clean_fixture_passes():
    findings = analyze_sources({"codec.py": CODEC_CLEAN}, ["codec-coverage"])
    assert findings == []


def test_codec_coverage_flags_getstate_dropping_a_slot():
    bad = CODEC_CLEAN.replace(
        "return (self.ts, self.values)", "return (self.ts,)"
    )
    findings = analyze_sources({"codec.py": bad}, ["codec-coverage"])
    assert any("__getstate__ never reads slot 'values'" in f.message for f in findings)


def test_codec_coverage_flags_setstate_dropping_a_slot():
    bad = CODEC_CLEAN.replace(
        "self.ts, self.values = state", "self.ts = state[0]"
    )
    findings = analyze_sources({"codec.py": bad}, ["codec-coverage"])
    assert any("__setstate__ never stores slot 'values'" in f.message for f in findings)


def test_codec_coverage_flags_encoder_missing_a_slot():
    bad = CODEC_CLEAN.replace(
        "return TupleBlock([t.ts for t in batch], [t.values for t in batch])",
        "return TupleBlock([t.ts for t in batch], [])",
    )
    findings = analyze_sources({"codec.py": bad}, ["codec-coverage"])
    assert any(
        "BlockEncoder.encode never reads StreamTuple slot 'values'" in f.message
        for f in findings
    )


def test_codec_coverage_flags_block_missing_a_column():
    bad = CODEC_CLEAN.replace(
        'class TupleBlock:\n    __slots__ = ("ts", "columns")',
        'class TupleBlock:\n    __slots__ = ("columns",)',
    )
    findings = analyze_sources({"codec.py": bad}, ["codec-coverage"])
    assert any(
        "TupleBlock has no column for StreamTuple slot 'ts'" in f.message
        for f in findings
    )


def test_codec_coverage_flags_restore_arity_mismatch():
    bad = CODEC_CLEAN.replace(
        "StreamTuple.restore(ts, values)", "StreamTuple.restore(ts)"
    )
    findings = analyze_sources({"codec.py": bad}, ["codec-coverage"])
    assert any("restore call passes 1 argument(s)" in f.message for f in findings)


def test_codec_coverage_flags_unconsumed_dataclass_field():
    source = '''
from dataclasses import dataclass


@dataclass
class MigrationSpec:
    moves: dict
    beacon_ts: int


def use(spec):
    return spec.moves
'''
    findings = analyze_sources({"spec.py": source}, ["codec-coverage"])
    assert any(
        "MigrationSpec field 'beacon_ts' is never read" in f.message
        for f in findings
    )


def test_codec_coverage_inert_without_the_named_classes():
    source = "class Unrelated:\n    __slots__ = ('x',)\n"
    assert analyze_sources({"other.py": source}, ["codec-coverage"]) == []


# ---------------------------------------------------------------------------
# codec-coverage: cold-segment checks
# ---------------------------------------------------------------------------

COLD_SEGMENT_CLEAN = '''
class ColdSegment:
    __slots__ = ("block", "slots", "min_ts")

    def __getstate__(self):
        return (self.block, self.slots, self.min_ts)

    def __setstate__(self, state):
        self.block, self.slots, self.min_ts = state


def freeze_segment(batch, slots, encoder):
    block = encoder.encode(batch)
    return ColdSegment(block, slots, min(t.ts for t in batch))


def thaw_segment(segment, decoder):
    return decoder.decode(segment.block)
'''


def test_cold_segment_clean_fixture_passes():
    findings = analyze_sources(
        {"cold.py": COLD_SEGMENT_CLEAN}, ["codec-coverage"]
    )
    assert findings == []


def test_cold_segment_flags_missing_pickle_pair():
    bad = COLD_SEGMENT_CLEAN.replace(
        "    def __getstate__(self):\n"
        "        return (self.block, self.slots, self.min_ts)\n\n",
        "",
    )
    findings = analyze_sources({"cold.py": bad}, ["codec-coverage"])
    assert any(
        "ColdSegment defines no __getstate__" in f.message for f in findings
    )


def test_cold_segment_flags_freeze_bypassing_the_codec():
    bad = COLD_SEGMENT_CLEAN.replace(
        "block = encoder.encode(batch)",
        "block = [(t.ts, t.values) for t in batch]",
    )
    findings = analyze_sources({"cold.py": bad}, ["codec-coverage"])
    assert any(
        "freeze_segment never calls .encode(...)" in f.message
        for f in findings
    )


def test_cold_segment_flags_thaw_bypassing_the_codec():
    bad = COLD_SEGMENT_CLEAN.replace(
        "return decoder.decode(segment.block)", "return list(segment.block)"
    )
    findings = analyze_sources({"cold.py": bad}, ["codec-coverage"])
    assert any(
        "thaw_segment never calls .decode(...)" in f.message for f in findings
    )


def test_cold_segment_flags_construction_missing_a_slot():
    bad = COLD_SEGMENT_CLEAN.replace(
        "return ColdSegment(block, slots, min(t.ts for t in batch))",
        "return ColdSegment(block, slots)",
    )
    findings = analyze_sources({"cold.py": bad}, ["codec-coverage"])
    assert any(
        "passes 2 argument(s) but ColdSegment has 3 slots" in f.message
        for f in findings
    )


def test_cold_segment_flags_lost_codec_entry_points():
    bad = COLD_SEGMENT_CLEAN.replace("def freeze_segment", "def make_segment")
    findings = analyze_sources({"cold.py": bad}, ["codec-coverage"])
    assert any(
        "no freeze_segment() exists" in f.message for f in findings
    )


def test_cold_segment_new_streamtuple_slot_is_caught_via_encoder():
    """The scenario the check exists for: a slot added to StreamTuple
    must not silently miss the cold-tier encode path.  Because
    freeze_segment is pinned to delegate to BlockEncoder.encode, the
    existing StreamTuple↔codec check fires on the shared encoder —
    covering frozen segments by construction."""
    combined = CODEC_CLEAN.replace(
        '__slots__ = ("ts", "values")',
        '__slots__ = ("ts", "values", "origin")',
    ).replace(
        "return (self.ts, self.values)",
        "return (self.ts, self.values, self.origin)",
    ).replace(
        "self.ts, self.values = state",
        "self.ts, self.values, self.origin = state",
    ) + COLD_SEGMENT_CLEAN
    findings = analyze_sources({"codec.py": combined}, ["codec-coverage"])
    assert any(
        "BlockEncoder.encode never reads StreamTuple slot 'origin'"
        in f.message
        for f in findings
    )


# ---------------------------------------------------------------------------
# protocol-exhaustiveness fixtures
# ---------------------------------------------------------------------------

PROTOCOL_CLEAN = '''
MSG_BATCH = "batch"
MSG_FLUSH = "flush"


def parent(conn, payload):
    conn.send((MSG_BATCH, payload))
    conn.send((MSG_FLUSH, None))


def worker(conn):
    while True:
        tag, payload = conn.recv()
        if tag == MSG_FLUSH:
            break
        if tag != MSG_BATCH:
            raise ValueError(tag)
'''


def test_protocol_clean_fixture_passes():
    findings = analyze_sources(
        {"proto.py": PROTOCOL_CLEAN}, ["protocol-exhaustiveness"]
    )
    assert findings == []


def test_protocol_flags_tag_without_dispatch_arm():
    bad = PROTOCOL_CLEAN.replace(
        "        if tag != MSG_BATCH:\n            raise ValueError(tag)\n", ""
    )
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    assert any(
        "MSG_BATCH has no dispatch arm" in f.message for f in findings
    )


def test_protocol_flags_tag_never_sent():
    bad = PROTOCOL_CLEAN.replace("    conn.send((MSG_FLUSH, None))\n", "")
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    assert any("MSG_FLUSH is never sent" in f.message for f in findings)


def test_protocol_flags_stale_arm_against_undefined_tag():
    bad = PROTOCOL_CLEAN + (
        "\n\ndef stale(tag):\n    return tag == MSG_GONE\n"
    )
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    assert any("undefined protocol tag MSG_GONE" in f.message for f in findings)


def test_protocol_flags_duplicate_dispatch_arm():
    bad = PROTOCOL_CLEAN.replace(
        "        if tag != MSG_BATCH:",
        "        if tag == MSG_FLUSH:\n            continue\n"
        "        if tag != MSG_BATCH:",
    )
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    assert any("duplicate dispatch arm for MSG_FLUSH" in f.message for f in findings)


def test_protocol_flags_raw_literal_in_dispatch_function():
    bad = PROTOCOL_CLEAN.replace(
        '        if tag == MSG_FLUSH:',
        '        if tag == "flush":',
    )
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    assert any("raw tag literal 'flush'" in f.message for f in findings)


def test_protocol_reply_literals_outside_dispatch_are_clean():
    # The executors compare reply tags ("ok"/"state") that are not MSG_*
    # values; a function with no MSG_* comparisons is not a dispatcher.
    source = PROTOCOL_CLEAN + (
        '\n\ndef reply_check(tag):\n    return tag == "ok"\n'
    )
    findings = analyze_sources({"proto.py": source}, ["protocol-exhaustiveness"])
    assert findings == []


SOCKET_PROTOCOL_CLEAN = '''
MSG_JOIN = "join"
MSG_CLOSE = "close"


def dial(conn, channel, spec, port):
    conn.send((MSG_JOIN, spec))
    channel.send((MSG_CLOSE, port))


def node(conn):
    while True:
        tag, payload = conn.recv()
        if tag != MSG_JOIN:
            raise ValueError(tag)
        if tag == MSG_CLOSE:
            break
'''


def test_protocol_socket_handshake_tags_are_covered():
    # Tags a socket carrier adds (the runtime's MSG_JOIN handshake) follow
    # the same contract as the pipe tags: defined, sent, dispatched.
    findings = analyze_sources(
        {"sock.py": SOCKET_PROTOCOL_CLEAN}, ["protocol-exhaustiveness"]
    )
    assert findings == []


def test_protocol_counts_bulky_channel_send_as_a_sender():
    # Channel.send is the one way onto any carrier; a tag whose only
    # sender marks its message bulky (so it rides the ring) must still
    # register as sent, not dead protocol.
    source = '''
MSG_CLOSE = "close"


def dial(channel, port):
    channel.send((MSG_CLOSE, port), bulky=True)


def node(tag):
    return tag == MSG_CLOSE
'''
    findings = analyze_sources(
        {"sock.py": source}, ["protocol-exhaustiveness"]
    )
    assert not any("never sent" in f.message for f in findings)


def test_protocol_inert_without_msg_constants():
    source = "def f(conn):\n    conn.send(('anything', 1))\n"
    assert analyze_sources({"p.py": source}, ["protocol-exhaustiveness"]) == []


# Mirrors the supervision extension: heartbeat (MSG_PING → MSG_PONG echo)
# and checkpoint round-trips where the worker's *reply* reuses the request
# tag, so the reply send and the parent-side comparison complete the pair.
PROTOCOL_SUPERVISED = '''
MSG_BATCH = "batch"
MSG_PING = "ping"
MSG_PONG = "pong"
MSG_CHECKPOINT = "checkpoint"


def supervisor(conn, payload, nonce):
    conn.send((MSG_BATCH, payload))
    conn.send((MSG_PING, nonce))
    tag, echoed = conn.recv()
    if tag != MSG_PONG:
        raise ValueError(tag)
    conn.send((MSG_CHECKPOINT, nonce))
    tag, record = conn.recv()
    if tag != MSG_CHECKPOINT:
        raise ValueError(tag)
    return record


def worker(conn):
    while True:
        tag, payload = conn.recv()
        if tag == MSG_PING:
            conn.send((MSG_PONG, payload))
            continue
        if tag == MSG_CHECKPOINT:
            conn.send((MSG_CHECKPOINT, payload))
            continue
        if tag != MSG_BATCH:
            raise ValueError(tag)
'''


def test_protocol_supervised_fixture_passes():
    findings = analyze_sources(
        {"proto.py": PROTOCOL_SUPERVISED}, ["protocol-exhaustiveness"]
    )
    assert findings == []


def test_protocol_flags_ping_without_worker_arm():
    bad = PROTOCOL_SUPERVISED.replace(
        "        if tag == MSG_PING:\n"
        "            conn.send((MSG_PONG, payload))\n"
        "            continue\n",
        "",
    )
    assert bad != PROTOCOL_SUPERVISED
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    messages = [f.message for f in findings]
    assert any("MSG_PING has no dispatch arm" in m for m in messages)
    assert any("MSG_PONG is never sent" in m for m in messages)


def test_protocol_flags_pong_never_checked():
    bad = PROTOCOL_SUPERVISED.replace(
        "    if tag != MSG_PONG:\n        raise ValueError(tag)\n", ""
    )
    assert bad != PROTOCOL_SUPERVISED
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    assert any(
        "MSG_PONG has no dispatch arm" in f.message for f in findings
    )


def test_protocol_flags_checkpoint_with_no_dispatch_arm():
    # Dropping the worker's arm alone is clean — the supervisor's reply
    # check still dispatches on the tag; dropping both sides flags it.
    bad = PROTOCOL_SUPERVISED.replace(
        "        if tag == MSG_CHECKPOINT:\n"
        "            conn.send((MSG_CHECKPOINT, payload))\n"
        "            continue\n",
        "",
    ).replace(
        "    tag, record = conn.recv()\n"
        "    if tag != MSG_CHECKPOINT:\n"
        "        raise ValueError(tag)\n",
        "    tag, record = conn.recv()\n",
    )
    assert bad != PROTOCOL_SUPERVISED
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    assert any(
        "MSG_CHECKPOINT has no dispatch arm" in f.message for f in findings
    )


def test_protocol_flags_raw_ping_literal_in_dispatcher():
    bad = PROTOCOL_SUPERVISED.replace(
        "        if tag == MSG_PING:", '        if tag == "ping":'
    )
    assert bad != PROTOCOL_SUPERVISED
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    assert any("raw tag literal 'ping'" in f.message for f in findings)


# Mirrors the shm-transport extension: bulky messages (batches, adopted
# state, the big replies) are marked ``bulky`` and ride a ring behind the
# channel's private doorbell, and workers confirm consumption with
# (MSG_CREDIT, count).  The doorbell is not a protocol tag; what the rule
# must see is the tuple inside channel.send(..., bulky=True) and inside
# the executor's _send(shard, ..., bulky=True) wrapper — or every
# ring-delivered tag reads as dead protocol.
PROTOCOL_RING = '''
MSG_BATCH = "batch"
MSG_CREDIT = "credit"
MSG_MIGRATE_IN = "migrate_in"


def parent(self, channel, shard, payload, state):
    self._send(shard, (MSG_BATCH, payload), bulky=True)
    channel.send((MSG_MIGRATE_IN, state), bulky=True)
    tag, granted = channel.recv()
    if tag == MSG_CREDIT:
        return granted
    raise ValueError(tag)


def worker(channel, consumed):
    while True:
        tag, payload = channel.recv()
        if tag == MSG_MIGRATE_IN:
            continue
        if tag != MSG_BATCH:
            raise ValueError(tag)
        consumed += 1
        channel.send((MSG_CREDIT, consumed))
        channel.send(("ok", payload), bulky=True)
'''


def test_protocol_ring_fixture_passes():
    findings = analyze_sources(
        {"proto.py": PROTOCOL_RING}, ["protocol-exhaustiveness"]
    )
    assert findings == []


def test_protocol_flags_credit_sent_but_never_dispatched():
    bad = PROTOCOL_RING.replace(
        "    if tag == MSG_CREDIT:\n        return granted\n", ""
    )
    assert bad != PROTOCOL_RING
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    assert any(
        "MSG_CREDIT has no dispatch arm" in f.message for f in findings
    )


def test_protocol_flags_bulky_tag_without_worker_arm():
    bad = PROTOCOL_RING.replace(
        "        if tag == MSG_MIGRATE_IN:\n"
        "            continue\n",
        "",
    )
    assert bad != PROTOCOL_RING
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    assert any(
        "MSG_MIGRATE_IN has no dispatch arm" in f.message for f in findings
    )


def test_protocol_recognizes_wrapper_sends():
    # MSG_BATCH's only send goes through the executor's _send wrapper.
    # Drop it: the tag is dead protocol.  Put the tuple back inside the
    # wrapper call: live again.
    bad = PROTOCOL_RING.replace(
        "    self._send(shard, (MSG_BATCH, payload), bulky=True)\n", ""
    )
    assert bad != PROTOCOL_RING
    findings = analyze_sources({"proto.py": bad}, ["protocol-exhaustiveness"])
    assert any(
        "MSG_BATCH is never sent" in f.message for f in findings
    ), "dropping the last real send must flag the tag"
    fixed = bad.replace(
        "    channel.send((MSG_MIGRATE_IN, state), bulky=True)\n",
        "    channel.send((MSG_MIGRATE_IN, state), bulky=True)\n"
        "    self._send(shard, message=(MSG_BATCH, payload))\n",
    )
    assert analyze_sources(
        {"proto.py": fixed}, ["protocol-exhaustiveness"]
    ) == [], "a tuple passed to the _send wrapper is a recognized send"


# ---------------------------------------------------------------------------
# determinism fixtures
# ---------------------------------------------------------------------------


def test_determinism_flags_builtin_hash_but_not_dunder_hash():
    source = '''
def route(key):
    return hash(key) % 4


class Key:
    def __hash__(self):
        return hash(("k", 1))
'''
    findings = analyze_sources({"d.py": source}, ["determinism"])
    assert [finding.line for finding in findings] == [3]


def test_determinism_flags_global_random_and_unseeded_rng():
    source = '''
import random
from random import randint


def draw():
    a = random.random()
    b = randint(0, 9)
    rng = random.Random()
    good = random.Random(42)
    return a, b, rng, good
'''
    findings = analyze_sources({"d.py": source}, ["determinism"])
    assert [finding.line for finding in findings] == [7, 8, 9]


def test_determinism_flags_wall_clock_but_not_perf_counter():
    source = '''
import time
import datetime


def stamp():
    t0 = time.perf_counter()
    mono = time.monotonic()
    wall = time.time()
    day = datetime.datetime.now()
    return t0, mono, wall, day
'''
    findings = analyze_sources({"d.py": source}, ["determinism"])
    assert [finding.line for finding in findings] == [9, 10]


def test_determinism_flags_set_iteration_but_not_sorted_sets():
    source = '''
def shapes(items):
    for x in {i.kind for i in items}:
        print(x)
    ordered = [x for x in sorted({i.kind for i in items})]
    flat = list({i.kind for i in items})
    dedup = {i.kind for i in items}
    return ordered, flat, dedup
'''
    findings = analyze_sources({"d.py": source}, ["determinism"])
    assert [finding.line for finding in findings] == [3, 6]


# ---------------------------------------------------------------------------
# flush-contract fixtures
# ---------------------------------------------------------------------------


def test_flush_contract_flags_process_after_flush():
    source = '''
def drain(sorter, batch):
    out = sorter.flush()
    sorter.process(batch)
    return out
'''
    findings = analyze_sources({"f.py": source}, ["flush-contract"])
    assert len(findings) == 1
    assert "sorter.process() after sorter.flush()" in findings[0].message


def test_flush_contract_allows_reassignment_between():
    source = '''
def drain(batch):
    sorter = make()
    sorter.flush()
    sorter = make()
    sorter.process(batch)
'''
    assert analyze_sources({"f.py": source}, ["flush-contract"]) == []


def test_flush_contract_tracks_dotted_receivers_separately():
    source = '''
def drain(self, batch):
    self.a.flush()
    self.b.process(batch)
'''
    assert analyze_sources({"f.py": source}, ["flush-contract"]) == []


def test_flush_contract_is_scoped_per_function():
    source = '''
def finish(sorter):
    return sorter.flush()


def feed(sorter, batch):
    sorter.process(batch)
'''
    assert analyze_sources({"f.py": source}, ["flush-contract"]) == []


# ---------------------------------------------------------------------------
# ipc-safety fixtures
# ---------------------------------------------------------------------------


def test_ipc_safety_flags_lambda_generator_and_open_file():
    source = '''
def ship(executor, conn, batch):
    executor.submit(lambda: batch)
    conn.send((MSG, (x for x in batch)))
    executor.migrate(open("state.bin"))
'''
    findings = analyze_sources({"i.py": source}, ["ipc-safety"])
    messages = " | ".join(finding.message for finding in findings)
    assert len(findings) == 3
    assert "lambda" in messages
    assert "generator expression" in messages
    assert "open file" in messages


def test_ipc_safety_ignores_non_ipc_calls():
    source = '''
def local(batch):
    return sorted(batch, key=lambda t: t.ts)
'''
    assert analyze_sources({"i.py": source}, ["ipc-safety"]) == []


def test_ipc_safety_covers_ring_send_wrappers():
    # A bulky message is pickled for the shm ring — a lambda or
    # generator smuggled through the executor's _send wrapper or a
    # channel's bulky send fails exactly like one passed to conn.send,
    # and the rule must see it.
    source = '''
def ship(self, channel, batch):
    self._send(0, (MSG_BATCH, lambda: batch), bulky=True)
    channel.send(("ok", (t for t in batch)), bulky=True)
'''
    findings = analyze_sources({"i.py": source}, ["ipc-safety"])
    messages = " | ".join(finding.message for finding in findings)
    assert len(findings) == 2
    assert "lambda" in messages
    assert "generator expression" in messages


def test_ipc_safety_covers_tree_stage_requests():
    # A request sent through a typed-failure _send wrapper (the
    # executor's) is pickled like any pipe send — an unpicklable argument
    # fails on the wire the same way, and the rule must see it.
    source = '''
def feed(stage, port, batch):
    stage._send((MSG_BATCH, (port, lambda: batch)))
'''
    findings = analyze_sources({"i.py": source}, ["ipc-safety"])
    assert len(findings) == 1
    assert "lambda" in findings[0].message
    assert "_send" in findings[0].message


# ---------------------------------------------------------------------------
# mutation tests: the gate guards the real engine sources
# ---------------------------------------------------------------------------


def _real_source(relative):
    return (REPO_ROOT / relative).read_text(encoding="utf-8")


def real_codec_index(**overrides):
    sources = {
        "src/repro/core/tuples.py": _real_source("src/repro/core/tuples.py"),
        "src/repro/core/blocks.py": _real_source("src/repro/core/blocks.py"),
    }
    sources.update(overrides)
    return sources


def test_real_codec_sources_pass_codec_coverage():
    findings = analyze_sources(real_codec_index(), ["codec-coverage"])
    assert findings == []


def test_seeded_streamtuple_slot_breaks_codec_coverage():
    tuples = _real_source("src/repro/core/tuples.py")
    mutated = tuples.replace(
        '__slots__ = ("ts", "values", "stream", "seq", "arrival", "delay")',
        '__slots__ = ("ts", "values", "stream", "seq", "arrival", "delay", '
        '"priority")',
    )
    assert mutated != tuples, "StreamTuple.__slots__ moved; update this test"
    findings = analyze_sources(
        real_codec_index(**{"src/repro/core/tuples.py": mutated}),
        ["codec-coverage"],
    )
    # The new slot is missing from the pickle state, the encoder, the
    # block columns, and the restore arity — all four sides must trip.
    messages = " | ".join(finding.message for finding in findings)
    assert "__getstate__ never reads slot 'priority'" in messages
    assert "BlockEncoder.encode never reads StreamTuple slot 'priority'" in messages
    assert "TupleBlock has no column for StreamTuple slot 'priority'" in messages
    assert "restore call passes" in messages


def test_seeded_missing_dispatch_arm_breaks_protocol_rule():
    shard = _real_source("src/repro/parallel/shard.py")
    mutated = shard.replace(
        "            if tag == MSG_MIGRATE_IN:", "            if False:"
    )
    assert mutated != shard, "shard_worker dispatch moved; update this test"
    findings = analyze_sources(
        {"src/repro/parallel/shard.py": mutated}, ["protocol-exhaustiveness"]
    )
    assert any(
        "MSG_MIGRATE_IN has no dispatch arm" in finding.message
        for finding in findings
    )


def test_real_shard_module_passes_protocol_rule():
    # supervision.py completes the protocol: MSG_PING / MSG_CHECKPOINT
    # sends (and the MSG_PONG comparisons) live on the supervising side.
    findings = analyze_sources(
        {
            "src/repro/parallel/shard.py": _real_source(
                "src/repro/parallel/shard.py"
            ),
            "src/repro/parallel/executors.py": _real_source(
                "src/repro/parallel/executors.py"
            ),
            "src/repro/parallel/supervision.py": _real_source(
                "src/repro/parallel/supervision.py"
            ),
        },
        ["protocol-exhaustiveness"],
    )
    assert findings == []


# ---------------------------------------------------------------------------
# clean-tree regression + CLI
# ---------------------------------------------------------------------------


def test_engine_tree_is_lint_clean():
    findings = analyze_paths(
        [
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tools"),
            str(REPO_ROOT / "benchmarks"),
        ]
    )
    formatted = "\n".join(finding.format() for finding in findings)
    assert findings == [], f"repro-lint findings:\n{formatted}"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lint.py"), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def test_cli_exits_zero_on_clean_tree():
    result = run_cli("src")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 finding(s)" in result.stderr


def test_cli_exits_one_on_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("a = hash('key')\n", encoding="utf-8")
    result = run_cli(str(bad))
    assert result.returncode == 1
    assert "determinism" in result.stdout


def test_cli_exits_two_on_unknown_rule():
    result = run_cli("--select", "no-such-rule", "src")
    assert result.returncode == 2


def test_cli_lists_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    listed = {line.split(":")[0] for line in result.stdout.splitlines() if line}
    assert EXPECTED_RULES <= listed


# ---------------------------------------------------------------------------
# mypy / ruff halves of the gate (run only when installed)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_modules_pass():
    result = subprocess.run(
        ["mypy", "--config-file", str(REPO_ROOT / "mypy.ini")],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_gate_passes():
    result = subprocess.run(
        ["ruff", "check", "src", "tools", "benchmarks", "tests"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0, result.stdout + result.stderr
