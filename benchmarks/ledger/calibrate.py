"""A fixed-work kernel that measures how fast the box is *right now*.

The 2-core reference box changes speed by up to 1.7x for half a minute
at a time (same code, same input: 1.65 s -> 2.8 s per heavy-probe pass;
CPU time moves with wall time, so it is the host, not the scheduler).
No amount of repetition inside one run averages that away, and a ledger
whose numbers follow the neighbours' load cannot tell a 10 % regression
from the weather.

So the ledger slices this kernel between the chunks it feeds the engine
and reports every wall-clock metric at *reference speed*:

    reported = measured x (REFERENCE_SLICE_S / mean slice seconds nearby)

The kernel is frozen here and shares no code with ``repro``: an engine
change cannot move it.  It deliberately spreads over the interpreter
paths the engine uses (method calls, generators, dict and list traffic,
attribute access, allocation) because a tight arithmetic loop slows down
less under contention than the engine does.  Measured on the reference
box: raw spread of repeated heavy-probe passes 30-43 % in a noisy
quarter hour, 7-8 % after normalization (see README, "Noise").
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterator, List

#: Seconds one :func:`slice_once` takes on the quiet reference box.  Only
#: scales the reported numbers into familiar units; comparisons between
#: two commits never depend on it.
REFERENCE_SLICE_S = 0.009
_SPAN = 90
_STEPS = 320


class _Row:
    def __init__(self, ts: int, values: Dict[str, object]) -> None:
        self.ts = ts
        self.values = values

    def get(self, name: str) -> object:
        return self.values[name]


class _Window:
    def __init__(self) -> None:
        self.index: Dict[object, List[_Row]] = {}

    def insert(self, row: _Row) -> None:
        self.index.setdefault(row.values["k"], []).append(row)

    def lookup(self, value: object) -> Iterator[_Row]:
        for row in self.index.get(value, ()):
            yield row

    def expire(self, bound: int) -> None:
        for rows in self.index.values():
            while rows and rows[0].ts < bound:
                rows.pop(0)


def slice_once() -> float:
    """Run the kernel once; return the seconds it took."""
    start = perf_counter()
    windows = [_Window(), _Window()]
    matched = 0
    for step in range(_STEPS):
        key = step % 3
        row = _Row(step, {"k": key, "p": step * 0.5})
        for window in windows:
            window.expire(step - _SPAN)
        for left in windows[0].lookup(key):
            if left.get("k") == key:
                for right in windows[1].lookup(key):
                    if right.get("k") == left.get("k"):
                        matched += 1
        windows[step & 1].insert(row)
    if matched <= 0:  # the work above must not be optimised away
        raise AssertionError("calibration kernel lost its matches")
    return perf_counter() - start


def to_reference(seconds: float, slice_s: float) -> float:
    """``seconds`` measured while a slice took ``slice_s``, at reference speed."""
    return seconds * REFERENCE_SLICE_S / slice_s
