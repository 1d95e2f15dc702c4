"""Test-only buffer-size policies."""

from typing import Dict

from repro import AdaptationContext, BufferSizePolicy


class ScheduledKPolicy(BufferSizePolicy):
    """Replays a K schedule: ``schedule[step]`` is the K returned at the
    ``step``-th adaptation step (counted from 0); any other step keeps
    the current K.  A schedule that shrinks K releases buffered tuples at
    once; one that grows it holds tuples longer.  It reads only the
    context's current K, so it declares that it reads no model input."""

    name = "Scheduled-K"
    reads_model_inputs = False

    def __init__(self, schedule: Dict[int, int]) -> None:
        self.schedule = dict(schedule)
        self.steps = 0

    def decide(self, context: AdaptationContext) -> int:
        k = self.schedule.get(self.steps, context.current_k_ms)
        self.steps += 1
        return k
