"""Independent result oracle for the perf ledger (stdlib only).

The engine's own ground truth (``repro.quality.truth.compute_truth``)
replays the sorted dataset through ``MSWJOperator`` itself, so it cannot
referee a rewrite of the probe or of the window stores.  This module
recomputes the true join output from the window semantics alone and
imports nothing from ``repro``: inputs are plain rows

    (ts, stream, seq, key_or_payload)

All ledger workloads use equal window sizes ``W`` on every stream, so a
combination of one tuple per stream is a true result exactly when it
satisfies the join condition and ``max(ts) - min(ts) <= W``; its result
timestamp is ``max(ts)`` (the trigger's timestamp, paper Alg. 2 line 7).
Ties on ``ts`` are ordered ``(ts, stream, seq)``: which of two
equal-timestamp tuples counts as "the latest member" only decides who
enumerates the combination, never whether or when it is a result.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: One input row: ``(ts, stream, seq, key)`` for the equi oracles,
#: ``(ts, stream, seq, payload)`` for the theta oracle.
Row = Tuple[int, int, int, object]
#: Result checksum modulus (sum of per-result digests, order independent).
MASK = (1 << 64) - 1


def _by_key(rows: Iterable[Row]) -> Dict[object, List[Row]]:
    groups: Dict[object, List[Row]] = {}
    for row in rows:
        groups.setdefault(row[3], []).append(row)
    for group in groups.values():
        group.sort(key=lambda r: (r[0], r[1], r[2]))
    return groups


def equi_chain_counts(
    rows: Iterable[Row], num_streams: int, window_ms: int
) -> List[Tuple[int, int]]:
    """True ``(result_ts, count)`` pairs of an all-streams-equal equi-join.

    Per-key sweep: for each tuple as the latest member of a combination,
    multiply the per-stream populations of the other streams inside
    ``[ts - W, ts]`` among the tuples ordered before it.  Pairs come back
    sorted by ``result_ts`` with equal timestamps merged.
    """
    per_ts: Dict[int, int] = {}
    for group in _by_key(rows).values():
        live = [0] * num_streams
        tail = 0
        for ts, stream, _seq, _key in group:
            bound = ts - window_ms
            while group[tail][0] < bound:
                live[group[tail][1]] -= 1
                tail += 1
            count = 1
            for other in range(num_streams):
                if other != stream:
                    count *= live[other]
            if count:
                per_ts[ts] = per_ts.get(ts, 0) + count
            live[stream] += 1
    return sorted(per_ts.items())


def result_digest(ts: int, seqs: Sequence[int]) -> int:
    """64-bit digest of one result ``(ts, per-stream component seqs)``.

    A multiply-xorshift mix (no builtin ``hash``: it is salted per
    process); digests are *summed* mod 2**64 into the checksum so the
    order results arrive in does not matter.
    """
    h = (ts + 0x9E3779B97F4A7C15) & MASK
    for seq in seqs:
        h = ((h ^ (seq + 1)) * 0xBF58476D1CE4E5B9) & MASK
        h ^= h >> 29
    return h


def equi_chain_checksum(
    rows: Iterable[Row], num_streams: int, window_ms: int
) -> Tuple[int, int]:
    """``(count, checksum)`` over every true result's ``(ts, seqs)``.

    Enumerates the combinations the counting sweep only multiplies, so it
    is used on the one workload that ships result objects.
    """
    total = 0
    checksum = 0
    for group in _by_key(rows).values():
        seqs_of: List[List[int]] = [[] for _ in range(num_streams)]
        stamps_of: List[List[int]] = [[] for _ in range(num_streams)]
        heads = [0] * num_streams
        for ts, stream, seq, _key in group:
            bound = ts - window_ms
            options: List[Sequence[int]] = []
            for other in range(num_streams):
                if other == stream:
                    options.append((seq,))
                    continue
                stamps = stamps_of[other]
                head = heads[other]
                while head < len(stamps) and stamps[head] < bound:
                    head += 1
                heads[other] = head
                options.append(seqs_of[other][head:])
            for seqs in itertools.product(*options):
                checksum = (checksum + result_digest(ts, seqs)) & MASK
                total += 1
            seqs_of[stream].append(seq)
            stamps_of[stream].append(ts)
    return total, checksum


def theta_pair_counts(
    rows: Iterable[Row],
    window_ms: int,
    matches: Callable[[object, object], bool],
) -> List[Tuple[int, int]]:
    """True ``(result_ts, count)`` pairs of a 2-way theta join.

    ts-sorted windowed nested loop: each tuple is paired with every
    earlier tuple of the *other* stream whose timestamp lies in
    ``[ts - W, ts]``; ``matches(payload_of_stream_0, payload_of_stream_1)``
    decides the pair.
    """
    ordered = sorted(rows, key=lambda r: (r[0], r[1], r[2]))
    recent: List[List[Row]] = [[], []]
    heads = [0, 0]
    per_ts: Dict[int, int] = {}
    for row in ordered:
        ts, stream, _seq, payload = row
        other = 1 - stream
        partners = recent[other]
        head = heads[other]
        bound = ts - window_ms
        while head < len(partners) and partners[head][0] < bound:
            head += 1
        heads[other] = head
        count = 0
        if stream == 0:
            for index in range(head, len(partners)):
                if matches(payload, partners[index][3]):
                    count += 1
        else:
            for index in range(head, len(partners)):
                if matches(partners[index][3], payload):
                    count += 1
        if count:
            per_ts[ts] = per_ts.get(ts, 0) + count
        recent[stream].append(row)
    return sorted(per_ts.items())


def within_distance(limit_m: float) -> Callable[[object, object], bool]:
    """``dist((x, y), (x, y)) < limit`` — the soccer query's predicate,
    spelled with the same ``math.hypot`` the dataset's ``dist()`` UDF
    uses so boundary pairs round identically."""

    def matches(a: object, b: object) -> bool:
        ax, ay = a  # type: ignore[misc]
        bx, by = b  # type: ignore[misc]
        return math.hypot(ax - bx, ay - by) < limit_m

    return matches


def total_count(ts_counts: Iterable[Tuple[int, int]]) -> int:
    return sum(count for _ts, count in ts_counts)
