"""Simulated soccer player-position streams (substitute for D×2real).

The paper's real-world dataset is the DEBS 2013 Grand Challenge soccer
trace: two streams of player positions (one per team) collected by on-body
sensors during a 23-minute training game, ~450k tuples per stream, maximum
tuple delays of 22s and 26s.  That trace is not available offline, so this
module generates the closest synthetic equivalent:

* Two streams, one per team, each multiplexing the position samples of
  that team's players.  Schema ``(ts, sID, x, y)`` matching the paper's
  projection ``(ts, sID, xCoord, yCoord)``.
* Players move on a 105×68 m pitch under a waypoint model: pick a target
  point, move toward it at a speed resampled per leg (walk/jog/sprint),
  pick a new target on arrival.  Player positions are therefore smooth,
  and cross-team proximity events (the join matches) cluster in time,
  giving the bursty, time-varying selectivity that distinguishes the
  soccer workload from the synthetic equi-joins.
* Sensor-network delays follow :class:`~repro.streams.disorder.BurstyDelayModel`,
  with per-stream caps defaulting to the paper's observed maxima (22s/26s).

The join query Q×2 over this data — "pairs of players from opposite teams
within 5 m of each other inside a 5 s window" — is built by
:func:`repro.experiments.configs` using a theta predicate on ``dist()``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.tuples import StreamTuple, seconds
from .disorder import BurstyDelayModel, DelayModel
from .seeding import derived_rng
from .source import Dataset, merge_by_arrival

#: FIFA standard pitch dimensions in meters.
PITCH_LENGTH_M = 105.0
PITCH_WIDTH_M = 68.0


@dataclass
class SoccerConfig:
    """Knobs of the soccer simulation.

    Defaults are scaled down from the paper (23 min, ~16 players/team at
    high sensor rates) to laptop-friendly sizes while preserving the
    structure; benchmarks pass explicit values.
    """

    duration_ms: int = seconds(120)
    players_per_team: int = 8
    #: Per-player position sampling period (ms).  The two teams' combined
    #: streams then run at ``players_per_team / sample_period`` tuples/ms.
    sample_period_ms: int = 200
    max_delay_ms: Tuple[int, int] = (22_000, 26_000)
    burst_probability: float = 0.015
    jitter_mean_ms: float = 120.0
    speed_range_mps: Tuple[float, float] = (1.0, 7.0)
    seed: int = 7


class _Player:
    """Waypoint-model movement of a single player."""

    def __init__(self, player_id: int, rng: random.Random) -> None:
        self.player_id = player_id
        self._rng = rng
        self.x = rng.uniform(0.0, PITCH_LENGTH_M)
        self.y = rng.uniform(0.0, PITCH_WIDTH_M)
        self._target = self._pick_target()
        self._speed = 0.0
        self._pick_speed()

    def _pick_target(self) -> Tuple[float, float]:
        return (
            self._rng.uniform(0.0, PITCH_LENGTH_M),
            self._rng.uniform(0.0, PITCH_WIDTH_M),
        )

    def _pick_speed(self, low: float = 1.0, high: float = 7.0) -> None:
        self._speed = self._rng.uniform(low, high)

    def advance(self, dt_seconds: float, speed_range: Tuple[float, float]) -> None:
        """Move toward the current waypoint for ``dt_seconds``."""
        remaining = dt_seconds
        while remaining > 0:
            dx = self._target[0] - self.x
            dy = self._target[1] - self.y
            distance = math.hypot(dx, dy)
            step = self._speed * remaining
            if distance <= step or distance < 1e-9:
                self.x, self.y = self._target
                used = distance / self._speed if self._speed > 0 else remaining
                remaining -= used
                self._target = self._pick_target()
                self._pick_speed(*speed_range)
            else:
                self.x += dx / distance * step
                self.y += dy / distance * step
                remaining = 0.0


def _generate_team_stream(
    stream_index: int,
    config: SoccerConfig,
    delay_model: DelayModel,
    rng: random.Random,
) -> List[StreamTuple]:
    """Generate one team's multiplexed position stream in arrival order.

    Players are sampled round-robin within each sampling period, so the
    team stream's inter-arrival gap is ``sample_period / players``.
    """
    players = [
        _Player(player_id=stream_index * 100 + p, rng=rng)
        for p in range(config.players_per_team)
    ]
    gap_ms = max(1, config.sample_period_ms // config.players_per_team)
    dt_seconds = gap_ms / 1000.0
    tuples: List[StreamTuple] = []
    arrival = 0
    seq = 0
    player_index = 0
    while True:
        arrival += gap_ms
        if arrival > config.duration_ms:
            break
        player = players[player_index]
        player_index = (player_index + 1) % len(players)
        player.advance(dt_seconds, config.speed_range_mps)
        delay = delay_model.sample(arrival)
        ts = max(0, arrival - delay)
        tuples.append(
            StreamTuple(
                ts=ts,
                values={
                    "sID": player.player_id,
                    "x": round(player.x, 3),
                    "y": round(player.y, 3),
                },
                stream=stream_index,
                seq=seq,
                arrival=arrival,
            )
        )
        seq += 1
    return tuples


def make_soccer_dataset(config: Optional[SoccerConfig] = None) -> Dataset:
    """Generate the two-team soccer dataset (D×2real substitute)."""
    config = config or SoccerConfig()
    streams: List[List[StreamTuple]] = []
    for team in range(2):
        rng = derived_rng(config.seed, team)
        delay_model = BurstyDelayModel(
            max_delay=config.max_delay_ms[team],
            jitter_mean=config.jitter_mean_ms,
            burst_probability=config.burst_probability,
            rng=derived_rng(config.seed, "delay", team),
        )
        streams.append(_generate_team_stream(team, config, delay_model, rng))
    merged = merge_by_arrival(streams)
    rate = 1000.0 / max(1, config.sample_period_ms // config.players_per_team)
    return Dataset(
        merged,
        num_streams=2,
        name="D2real-sim",
        nominal_rates=[rate, rate],
    )


def player_distance(x1: float, y1: float, x2: float, y2: float) -> float:
    """Euclidean distance between two pitch positions — the paper's ``dist()`` UDF."""
    return math.hypot(x1 - x2, y1 - y2)
