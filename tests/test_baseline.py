"""Non-cooperative greedy baseline against exact references."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dmect import (Accumulation, InfeasibleError, Instance, Ordering, SlotProblem,
                   dmect_go, exact_integral_slot, greedy_slot, noncoop_solve,
                   solve_slot, verify_schedule)
from conftest import topo


def slot(instance, senders, receivers) -> SlotProblem:
    return SlotProblem.from_instance(instance, senders, receivers)


def test_greedy_single_sender_covers_at_the_weakest_gain(line3):
    alloc = greedy_slot(slot(line3, {0}, {1, 2}))
    # the long hop to node 2 dictates p = 1 / 0.1
    assert alloc.powers == pytest.approx({0: 10.0})


def test_greedy_prefers_the_cheap_ratio(line3):
    alloc = greedy_slot(slot(line3, {0, 1}, {2}))
    # the relay hop (gain 1) beats the direct one (gain 0.1); node 0 idles
    assert alloc.powers == pytest.approx({1: 1.0})


def test_greedy_merges_powers_per_sender():
    # one sender picked twice keeps only its larger power
    g = np.zeros((4, 4))
    g[0, 1] = g[1, 0] = 1.0
    g[0, 2] = g[2, 0] = 1.0
    g[0, 3] = g[3, 0] = 0.25
    g[1, 2] = g[2, 1] = g[1, 3] = g[3, 1] = g[2, 3] = g[3, 2] = 1e-6
    inst = Instance(n=4, gains=g, source=0, destinations=frozenset({1, 2, 3}),
                    theta=math.log(2.0))
    problem = slot(inst, {0}, {1, 2, 3})
    alloc = greedy_slot(problem)
    assert alloc.powers == pytest.approx({0: 4.0})
    assert alloc.cost == pytest.approx(exact_integral_slot(problem))


def test_greedy_empty_receivers_cost_nothing(line3):
    alloc = greedy_slot(slot(line3, {0}, set()))
    assert alloc.cost == 0.0
    assert alloc.powers == {}


def test_greedy_unreachable_receiver(line3):
    g = np.zeros((3, 3))
    g[0, 1] = g[1, 0] = 1.0
    inst = Instance(n=3, gains=g, source=0, destinations=frozenset({1, 2}),
                    theta=math.log(2.0))
    with pytest.raises(InfeasibleError) as exc:
        greedy_slot(slot(inst, {0, 1}, {2}))
    assert exc.value.receiver == 2


def test_greedy_assignment_really_covers():
    # every receiver hears some single sender above the threshold on its own
    for seed in range(10):
        inst = topo(8, seed=seed)
        senders, receivers = {0, 1, 2}, {3, 4, 5, 6, 7}
        alloc = greedy_slot(slot(inst, senders, receivers))
        alpha = math.expm1(inst.theta)
        assert set(alloc.powers) <= senders
        for r in receivers:
            assert any(p * inst.gains[s, r] >= alpha - 1e-9
                       for s, p in alloc.powers.items())


def test_greedy_sandwiched_between_exact_bounds():
    # cooperative optimum <= exact single-sender cover <= greedy cover,
    # and greedy stays within the harmonic approximation factor
    hm = sum(1.0 / k for k in range(1, 6))
    for seed in range(15):
        inst = topo(8, seed=seed, accumulation=Accumulation.EA)
        senders = set(range(3))
        receivers = set(range(3, 8))
        problem = slot(inst, senders, receivers)
        coop = solve_slot(problem).cost
        exact = exact_integral_slot(problem)
        greedy = greedy_slot(problem).cost
        assert coop <= exact + 1e-9
        assert exact <= greedy + 1e-9
        assert greedy <= hm * exact + 1e-9


def test_noncoop_never_beats_cooperative():
    for seed in range(8):
        inst = topo(6, seed=seed)
        order = Ordering(order=tuple(range(6)))
        for T in (1, 2, 4):
            coop = dmect_go(inst, order, T).cost
            base = noncoop_solve(inst, order, T)
            assert base.cost >= coop - 1e-9
            assert verify_schedule(inst, base.schedule), \
                verify_schedule(inst, base.schedule).message


def test_noncoop_is_mode_agnostic(line3, line3_mia):
    # single-link decoding needs the same power either way
    order = Ordering(order=(0, 1, 2))
    ea = noncoop_solve(line3, order, 2).cost
    mia = noncoop_solve(line3_mia, order, 2).cost
    assert ea == pytest.approx(mia, rel=1e-12)
    assert ea == pytest.approx(2.0, rel=1e-10)


def test_noncoop_line3_single_slot(line3):
    result = noncoop_solve(line3, Ordering(order=(0, 1, 2)), 1)
    assert result.cost == pytest.approx(10.0, rel=1e-10)
    assert verify_schedule(line3, result.schedule)


def test_exact_integral_matches_brute_force_on_tiny_slots():
    # cross-check the subset-mask DP against direct candidate enumeration
    import itertools
    for seed in range(6):
        inst = topo(6, seed=seed)
        senders, receivers = {0, 1}, {2, 3, 4}
        want = math.inf
        alpha = math.expm1(inst.theta)
        candidates = []
        for s in senders:
            for r in receivers:
                candidates.append((s, alpha / inst.gains[s, r]))
        for size in range(1, len(candidates) + 1):
            for picks in itertools.combinations(candidates, size):
                power: dict[int, float] = {}
                for s, p in picks:
                    power[s] = max(power.get(s, 0.0), p)
                covered = {r for r in receivers
                           if any(power.get(s, 0.0) * inst.gains[s, r] >= alpha - 1e-12
                                  for s in senders)}
                if covered == receivers:
                    want = min(want, sum(power.values()))
        got = exact_integral_slot(slot(inst, senders, receivers))
        assert got == pytest.approx(want, rel=1e-9)


def test_exact_integral_cap():
    from dmect import CapExceededError
    inst = topo(15, seed=0)
    with pytest.raises(CapExceededError):
        exact_integral_slot(slot(inst, {0}, set(range(1, 15))))
