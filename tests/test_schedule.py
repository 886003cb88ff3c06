"""Delay-constrained DP and unicast routing."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dmect import (Accumulation, InfeasibleError, Instance, Ordering, SlotCache,
                   dmect_go, link_power_matrix, noncoop_solve,
                   shortest_path_distances, unicast_ea, verify_schedule)
from dmect.baseline import greedy_solver
from conftest import line3_gains, topo

ORDER3 = Ordering(order=(0, 1, 2))


# ---------------------------------------------------------------------------
# Hand-solved line network

@pytest.mark.parametrize("mode", [Accumulation.EA, Accumulation.MIA])
def test_line3_one_slot_pays_for_the_long_hop(line3, mode):
    inst = dataclasses.replace(line3, accumulation=mode)
    result = dmect_go(inst, ORDER3, T=1)
    assert result.cost == pytest.approx(10.0, rel=1e-8)
    assert len(result.schedule.slots) == 1
    assert verify_schedule(inst, result.schedule)


@pytest.mark.parametrize("mode", [Accumulation.EA, Accumulation.MIA])
def test_line3_two_slots_relay(line3, mode):
    inst = dataclasses.replace(line3, accumulation=mode)
    result = dmect_go(inst, ORDER3, T=2)
    assert result.cost == pytest.approx(2.0, rel=1e-8)
    assert len(result.schedule.slots) == 2
    assert verify_schedule(inst, result.schedule)


def test_line3_extra_slots_do_not_help(line3):
    base = dmect_go(line3, ORDER3, T=2).cost
    for T in (3, 4, 6):
        result = dmect_go(line3, ORDER3, T=T)
        assert result.cost == pytest.approx(base, rel=1e-10)
        assert len(result.schedule.slots) <= T
        assert verify_schedule(line3, result.schedule)


def test_source_prefix_is_always_free(line3):
    table = dmect_go(line3, ORDER3, T=3).table
    assert np.all(table.costs[1, :] == 0.0)


# ---------------------------------------------------------------------------
# Table structure on random instances

@pytest.mark.parametrize("mode", [Accumulation.EA, Accumulation.MIA])
def test_costs_monotone_in_deadline_and_prefix(mode):
    inst = topo(7, seed=4, accumulation=mode)
    order = Ordering(order=tuple(range(7)))
    table = dmect_go(inst, order, T=5).table
    costs = table.costs[1:, 1:]
    # more slots never hurt; covering a longer prefix never gets cheaper
    assert np.all(np.diff(costs, axis=1) <= 1e-9)
    assert np.all(np.diff(costs, axis=0) >= -1e-9)


@pytest.mark.parametrize("mode", [Accumulation.EA, Accumulation.MIA])
def test_emitted_schedules_verify(mode):
    for seed in range(6):
        inst = topo(6, seed=seed, accumulation=mode)
        for T in (1, 2, 4, 5):   # T = n - 1 is the no-deadline problem
            result = dmect_go(inst, Ordering(order=tuple(range(6))), T)
            assert len(result.schedule.slots) <= T
            verdict = verify_schedule(inst, result.schedule)
            assert verdict, verdict.message
            assert result.schedule.cost == pytest.approx(result.cost, rel=1e-9)


def test_slot_solves_stay_within_the_quadratic_budget():
    inst = topo(9, seed=2)
    cache = SlotCache(inst)
    T = 5
    dmect_go(inst, Ordering(order=tuple(range(9))), T, cache=cache)
    n = inst.n
    assert cache.solve_count <= n * (n - 1) // 2  # distinct (prefix, stretch) pairs
    assert cache.solve_count <= n * n * T


@pytest.mark.parametrize("solve, make_cache", [
    (dmect_go, SlotCache),
    (noncoop_solve, lambda inst: SlotCache(inst, solver=greedy_solver)),
], ids=["coop", "noncoop"])
def test_shared_cache_is_reused_across_deadlines(solve, make_cache):
    inst = topo(6, seed=3)
    cache = make_cache(inst)
    solve(inst, Ordering(order=tuple(range(6))), 2, cache=cache)
    first = cache.solve_count
    solve(inst, Ordering(order=tuple(range(6))), 5, cache=cache)
    assert cache.solve_count == first  # same slot set, all hits


def test_infeasible_prefix_is_reported():
    g = np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    inst = Instance(n=3, gains=g, source=0, destinations=frozenset({1, 2}),
                    theta=math.log(2.0))
    result = dmect_go(inst, ORDER3, T=2)
    assert math.isinf(result.cost)
    assert result.schedule is None
    assert result.blocked == 3  # node 2 sits at position 3 of the ordering


def test_input_validation(line3):
    with pytest.raises(ValueError, match="start at the source"):
        dmect_go(line3, Ordering(order=(1, 0, 2)), 2)
    with pytest.raises(ValueError, match="at least one slot"):
        dmect_go(line3, ORDER3, 0)
    with pytest.raises(ValueError, match="length"):
        dmect_go(line3, Ordering(order=(0, 1)), 2)


def test_multicast_stops_at_the_last_destination(line3):
    inst = dataclasses.replace(line3, destinations=frozenset({1}))
    result = dmect_go(inst, ORDER3, T=2)
    assert result.target == 2
    assert result.cost == pytest.approx(1.0, rel=1e-10)
    assert verify_schedule(inst, result.schedule)


# ---------------------------------------------------------------------------
# Unicast

def test_link_power_matrix(line3):
    w = link_power_matrix(line3)
    assert w[0, 1] == pytest.approx(1.0)
    assert w[0, 2] == pytest.approx(10.0)
    assert math.isinf(w[0, 0])


def test_unicast_line3_direct_then_relayed(line3):
    inst = dataclasses.replace(line3, destinations=frozenset({2}))
    tight = unicast_ea(inst, 2, T=1)
    assert tight.cost == pytest.approx(10.0)
    assert len(tight.schedule.slots) == 1
    relayed = unicast_ea(inst, 2, T=2)
    assert relayed.cost == pytest.approx(2.0)
    assert [(sorted(s.senders)[0], sorted(s.receivers)[0])
            for s in relayed.schedule.slots] == [(0, 1), (1, 2)]
    assert verify_schedule(inst, relayed.schedule)


def test_unicast_slack_slots_change_nothing(line3):
    inst = dataclasses.replace(line3, destinations=frozenset({2}))
    result = unicast_ea(inst, 2, T=6)
    assert result.cost == pytest.approx(2.0)
    assert len(result.schedule.slots) == 2
    assert verify_schedule(inst, result.schedule)


def test_unicast_equals_dijkstra_bitwise():
    # same weights, same additions: the hop-bounded recursion at T = n - 1
    # must reproduce the one-shot shortest-path distance exactly
    for seed in range(10):
        inst = topo(14, seed=seed)
        w = link_power_matrix(inst)
        dist = shortest_path_distances(w, inst.source)
        for dest in (1, 7, 13):
            result = unicast_ea(inst, dest, T=inst.n - 1)
            assert result.cost == dist[dest]


def test_unicast_rejects_mutual_information(line3_mia):
    with pytest.raises(ValueError, match="energy accumulation"):
        unicast_ea(line3_mia, 2, T=2)


def test_unicast_rejects_bad_destination(line3):
    with pytest.raises(ValueError, match="destination"):
        unicast_ea(line3, 0, T=2)
    with pytest.raises(ValueError, match="destination"):
        unicast_ea(line3, 9, T=2)


def test_unicast_unreachable_raises():
    g = np.zeros((3, 3))
    g[0, 1] = g[1, 0] = 1.0
    inst = Instance(n=3, gains=g, source=0, destinations=frozenset({2}),
                    theta=math.log(2.0))
    with pytest.raises(InfeasibleError) as exc:
        unicast_ea(inst, 2, T=2)
    assert exc.value.receiver == 2
