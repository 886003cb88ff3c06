"""Ordering heuristics and the factorial reference search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from dmect import (CapExceededError, DisconnectedError, Instance, SlotCache,
                   brute_force_ordering, dijkstra_ordering, dmect_go,
                   gain_ordering, link_power_matrix, random_ordering,
                   shortest_path_distances)
from conftest import topo


def test_shortest_path_distances_line3(line3):
    dist = shortest_path_distances(link_power_matrix(line3), 0)
    # relaying through node 1 (1 + 1) beats the direct hop (10)
    np.testing.assert_allclose(dist, [0.0, 1.0, 2.0])


def test_dijkstra_ordering_line3(line3):
    assert dijkstra_ordering(line3).order == (0, 1, 2)


def test_dijkstra_ordering_breaks_ties_by_index():
    g = np.zeros((3, 3))
    g[0, 1] = g[1, 0] = 1.0
    g[0, 2] = g[2, 0] = 1.0
    g[1, 2] = g[2, 1] = 5.0
    inst = Instance(n=3, gains=g, source=0, destinations=frozenset({1, 2}),
                    theta=math.log(2.0))
    assert dijkstra_ordering(inst).order == (0, 1, 2)


def test_dijkstra_ordering_raises_on_disconnect():
    g = np.zeros((3, 3))
    g[0, 1] = g[1, 0] = 1.0
    inst = Instance(n=3, gains=g, source=0, destinations=frozenset({1, 2}),
                    theta=math.log(2.0))
    with pytest.raises(DisconnectedError) as exc:
        dijkstra_ordering(inst)
    assert exc.value.nodes == {2}


def test_gain_ordering_sorts_by_source_gain():
    g = np.zeros((4, 4))
    for i, v in [(1, 0.5), (2, 2.0), (3, 1.0)]:
        g[0, i] = g[i, 0] = v
    g[1, 2] = g[2, 1] = g[1, 3] = g[3, 1] = g[2, 3] = g[3, 2] = 0.3
    inst = Instance(n=4, gains=g, source=0, destinations=frozenset({1, 2, 3}),
                    theta=math.log(2.0))
    assert gain_ordering(inst).order == (0, 2, 3, 1)


def test_brute_force_line3(line3):
    ordering, cost = brute_force_ordering(line3, T=2)
    assert ordering.order == (0, 1, 2)
    assert cost == pytest.approx(2.0, rel=1e-10)


def test_brute_force_beats_or_matches_heuristics():
    for seed in range(8):
        inst = topo(5, seed=seed)
        _, best = brute_force_ordering(inst, T=3)
        for heuristic in (dijkstra_ordering, gain_ordering):
            cost = dmect_go(inst, heuristic(inst), 3).cost
            assert best <= cost + 1e-9


def test_brute_force_cap():
    inst = topo(9, seed=0)
    with pytest.raises(CapExceededError):
        brute_force_ordering(inst, T=2)


def test_brute_force_fills_a_shared_cache():
    inst = topo(6, seed=2)
    cache = SlotCache(inst)
    _, best = brute_force_ordering(inst, T=3, cache=cache)
    solved = cache.solve_count
    # every ordering's slots are already cached, the heuristic's included
    cost = dmect_go(inst, dijkstra_ordering(inst), 3, cache=cache).cost
    assert cache.solve_count == solved
    assert best <= cost


def test_random_ordering_is_a_source_first_permutation():
    inst = topo(7, seed=1)
    rng = np.random.default_rng(0)
    orders = {random_ordering(inst, rng).order for _ in range(10)}
    for order in orders:
        assert order[0] == inst.source
        assert sorted(order) == list(range(7))
    assert len(orders) > 1  # actually random
    # a fresh generator with the same seed replays the same draw
    assert random_ordering(inst, np.random.default_rng(5)).order == \
        random_ordering(inst, np.random.default_rng(5)).order
