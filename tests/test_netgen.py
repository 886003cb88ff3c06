"""Random topology generation: determinism, geometry, fading statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dmect import Accumulation, DegenerateDrawError, TopologyConfig, generate
from dmect.netgen import _draw_positions, pair_gain_mean, sample_pair_gain


def test_same_seed_reproduces_bit_for_bit():
    cfg = TopologyConfig(n=12, eta=2.0, seed=42)
    a, b = generate(cfg), generate(cfg)
    np.testing.assert_array_equal(a.gains, b.gains)
    np.testing.assert_array_equal(a.positions, b.positions)


def test_different_seeds_differ():
    a = generate(TopologyConfig(n=8, eta=2.0, seed=1))
    b = generate(TopologyConfig(n=8, eta=2.0, seed=2))
    assert not np.array_equal(a.gains, b.gains)


def test_instance_invariants():
    cfg = TopologyConfig(n=20, eta=3.0, seed=7, width=10.0, height=4.0,
                         theta=0.9)
    inst = generate(cfg, accumulation=Accumulation.MIA)
    assert inst.n == 20
    assert inst.source == 0
    assert inst.destinations == frozenset(range(1, 20))
    assert inst.theta == 0.9
    assert inst.accumulation is Accumulation.MIA
    np.testing.assert_array_equal(inst.gains, inst.gains.T)
    assert np.all(np.diag(inst.gains) == 0.0)
    off = inst.gains[~np.eye(20, dtype=bool)]
    assert np.all(off > 0.0)
    # source pinned on the left edge at mid-height, everyone inside the field
    assert tuple(inst.positions[0]) == (0.0, 2.0)
    assert np.all(inst.positions[:, 0] >= 0.0) and np.all(inst.positions[:, 0] <= 10.0)
    assert np.all(inst.positions[:, 1] >= 0.0) and np.all(inst.positions[:, 1] <= 4.0)


def test_config_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        TopologyConfig(n=1, eta=2.0, seed=0)
    with pytest.raises(ValueError, match="exponent"):
        TopologyConfig(n=3, eta=0.0, seed=0)
    with pytest.raises(ValueError, match="dimensions"):
        TopologyConfig(n=3, eta=2.0, seed=0, width=-1.0)
    with pytest.raises(ValueError, match="theta"):
        TopologyConfig(n=3, eta=2.0, seed=0, theta=-0.5)
    # non-finite fields: no position can be drawn, or every gain is zero
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="exponent"):
            TopologyConfig(n=3, eta=bad, seed=0)
        with pytest.raises(ValueError, match="dimensions"):
            TopologyConfig(n=3, eta=2.0, seed=0, width=bad)
        with pytest.raises(ValueError, match="dimensions"):
            TopologyConfig(n=3, eta=2.0, seed=0, height=bad)
    # the one theta rule of the model: e^theta - 1 must stay finite
    for bad in (800.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="theta"):
            TopologyConfig(n=3, eta=2.0, seed=0, theta=bad)


def test_pair_gain_mean_follows_path_loss():
    assert pair_gain_mean(2.0, 3.0) == pytest.approx(0.125)
    assert pair_gain_mean(0.5, 2.0) == pytest.approx(4.0)


def test_sampled_gains_match_the_declared_mean():
    # law of large numbers on the documented inverse-CDF draw
    rng = np.random.default_rng(123)
    d, eta = 3.0, 2.5
    draws = np.array([sample_pair_gain(rng, d, eta) for _ in range(100_000)])
    assert np.all(draws >= 0.0)
    assert draws.mean() == pytest.approx(pair_gain_mean(d, eta), rel=0.02)


def test_generated_gains_are_exponential_around_the_path_loss():
    # normalizing each gain by d^-eta should give unit-mean draws
    inst = generate(TopologyConfig(n=40, eta=2.0, seed=99))
    iu = np.triu_indices(40, 1)
    d = np.linalg.norm(inst.positions[iu[0]] - inst.positions[iu[1]], axis=1)
    ratios = inst.gains[iu] * d ** 2.0
    assert ratios.mean() == pytest.approx(1.0, abs=0.2)


def test_coincident_draws_are_rejected():
    class StuckRng:
        def random(self):
            return 0.5

    cfg = TopologyConfig(n=3, eta=2.0, seed=0)
    with pytest.raises(DegenerateDrawError, match="distinct position"):
        _draw_positions(StuckRng(), cfg)
