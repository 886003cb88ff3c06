"""Seeded random topologies: uniform node placement, Rayleigh-faded gains.

Nodes land uniformly on a width-by-height field with the source pinned at
(0, height/2). Each unordered pair draws one exponential gain with mean
d^(-eta) and the matrix is mirrored. All randomness flows through a PCG64
generator seeded from ``config.seed``; the exponential uses the inverse-CDF
transform of a single uniform so the draw sequence is fully documented and
the same seed reproduces the instance bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDrawError
from .model import Accumulation, Instance, broadcast_destinations, check_theta

_MAX_REDRAWS = 64


@dataclass(frozen=True)
class TopologyConfig:
    """Knobs for one random topology draw."""

    n: int
    eta: float
    seed: int
    width: float = 15.0
    height: float = 15.0
    theta: float = math.log(2.0)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if not (0.0 < self.width < math.inf and 0.0 < self.height < math.inf):
            raise ValueError("field dimensions must be finite and positive")
        if not 0.0 < self.eta < math.inf:
            raise ValueError("path-loss exponent must be finite and positive")
        check_theta(self.theta)

    @property
    def source_position(self) -> tuple[float, float]:
        return (0.0, self.height / 2.0)


def _draw_positions(rng, config: TopologyConfig) -> np.ndarray:
    pos = np.zeros((config.n, 2))
    pos[0] = config.source_position
    for i in range(1, config.n):
        for _ in range(_MAX_REDRAWS):
            x = config.width * rng.random()
            y = config.height * rng.random()
            if all((x - pos[j, 0]) ** 2 + (y - pos[j, 1]) ** 2 > 0.0 for j in range(i)):
                pos[i] = (x, y)
                break
        else:
            raise DegenerateDrawError(
                f"node {i}: could not draw a distinct position in {_MAX_REDRAWS} tries")
    return pos


def pair_gain_mean(distance: float, eta: float) -> float:
    """Mean of the fading distribution for a pair at the given distance."""
    return distance ** (-eta)


def sample_pair_gain(rng, distance: float, eta: float) -> float:
    """One exponential gain draw, mean d^(-eta), via the inverse CDF."""
    return -pair_gain_mean(distance, eta) * math.log1p(-rng.random())


def generate(config: TopologyConfig,
             accumulation: Accumulation = Accumulation.EA) -> Instance:
    """Draw one instance; destinations default to broadcast."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    pos = _draw_positions(rng, config)
    n = config.n
    gains = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = math.sqrt((pos[i, 0] - pos[j, 0]) ** 2 + (pos[i, 1] - pos[j, 1]) ** 2)
            g = sample_pair_gain(rng, d, config.eta)
            gains[i, j] = g
            gains[j, i] = g
    return Instance(
        n=n,
        gains=gains,
        source=0,
        destinations=broadcast_destinations(n, 0),
        theta=config.theta,
        accumulation=accumulation,
        positions=pos,
    )
