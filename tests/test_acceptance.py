"""Acceptance suite: the library's headline guarantees, one criterion per test.

Each test prints exactly one `[criterion NN] PASS/FAIL` line (visible under
``pytest -s``) with the measured quantities, then asserts. Tolerances are
pinned here and nowhere weakened: equality against enumeration references is
1e-7, dominance margins are 1e-8/1e-9, the unicast check is bitwise.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time

import numpy as np

from dmect import (Accumulation, Ordering, SlotCache, SlotProblem,
                   brute_force_ordering, dijkstra_ordering, dmect_go,
                   ea_vertex_optimum, exhaustive_global, exhaustive_partition,
                   gain_ordering, link_power_matrix, noncoop_solve,
                   random_ordering, shortest_path_distances, solve_slot,
                   unicast_ea, verify_schedule, waterfill_single_receiver)
from dmect.cli import main
from conftest import topo


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _small_configs(count: int, n_lo: int, n_hi: int, t_hi: int, seed0: int):
    """Deterministic mixed-mode instance configurations for the desk-scale
    criteria; the same list is replayed by the dominance criterion."""
    configs = []
    for s in range(count):
        configs.append(dict(
            n=n_lo + s % (n_hi - n_lo + 1),
            seed=seed0 + s,
            eta=(2.0, 3.0)[s % 2],
            T=1 + s % t_hi,
            accumulation=(Accumulation.EA, Accumulation.MIA)[s // (count // 2) % 2],
        ))
    return configs


CONFIGS_1 = _small_configs(200, n_lo=3, n_hi=6, t_hi=3, seed0=1000)
CONFIGS_2 = _small_configs(50, n_lo=4, n_hi=5, t_hi=3, seed0=5000)


def test_c01_dp_equals_partition_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for cfg in CONFIGS_1:
        inst = topo(cfg["n"], seed=cfg["seed"], eta=cfg["eta"],
                    accumulation=cfg["accumulation"])
        ordering = random_ordering(inst, rng)
        cache = SlotCache(inst)
        got = dmect_go(inst, ordering, cfg["T"], cache=cache).cost
        want = exhaustive_partition(inst, ordering, cfg["T"], cache=cache)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    _line(1, worst <= 1e-7 and elapsed < 300.0,
          f"DP equals breakpoint enumeration on {len(CONFIGS_1)} instances "
          f"(n<=6, T<=3, both modes, random orderings): worst |diff| = "
          f"{worst:.2e} (tol 1e-7), {elapsed:.1f}s (budget 300s)")


def test_c02_best_ordering_equals_global_enumeration():
    worst = 0.0
    for cfg in CONFIGS_2:
        inst = topo(cfg["n"], seed=cfg["seed"], eta=cfg["eta"],
                    accumulation=cfg["accumulation"])
        cache = SlotCache(inst)
        rest = sorted(i for i in range(inst.n) if i != inst.source)
        got = min(dmect_go(inst, Ordering(order=(inst.source, *perm)),
                           cfg["T"], cache=cache).cost
                  for perm in itertools.permutations(rest))
        want = exhaustive_global(inst, cfg["T"], cache=cache)
        worst = max(worst, abs(got - want))
    _line(2, worst <= 1e-7,
          f"minimum over all orderings equals global decode-set enumeration "
          f"on {len(CONFIGS_2)} instances (n<=5, T<=3): worst |diff| = "
          f"{worst:.2e} (tol 1e-7)")


def test_c03_slot_allocators_match_independent_references():
    rng = np.random.default_rng(8)
    worst_ea = 0.0
    for _ in range(500):
        ns, nr = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = rng.uniform(0.05, 5.0, size=(ns, nr))
        theta = float(rng.uniform(0.2, 2.5))
        problem = SlotProblem(senders=tuple(range(ns)),
                              receivers=tuple(range(ns, ns + nr)), gains=g,
                              theta=theta, accumulation=Accumulation.EA)
        _, want = ea_vertex_optimum(g, theta)
        worst_ea = max(worst_ea, abs(solve_slot(problem).cost - want))
    worst_mia = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 7))
        g = rng.uniform(0.05, 5.0, size=k)
        theta = float(rng.uniform(0.2, 2.5))
        problem = SlotProblem(senders=tuple(range(k)), receivers=(k,),
                              gains=g.reshape(k, 1), theta=theta,
                              accumulation=Accumulation.MIA)
        want = waterfill_single_receiver(g, theta).cost
        worst_mia = max(worst_mia, abs(solve_slot(problem).cost - want))
    _line(3, worst_ea <= 1e-7 and worst_mia <= 1e-7,
          f"slot LP equals vertex enumeration on 500 slots (worst |diff| = "
          f"{worst_ea:.2e}) and barrier equals water-filling on 500 "
          f"single-receiver slots (worst |diff| = {worst_mia:.2e}; tol 1e-7)")


def test_c04_information_accumulation_dominates_energy_accumulation():
    worst = -math.inf  # max of (MIA - EA); must stay <= 1e-8
    checked = 0
    for cfg in CONFIGS_1 + CONFIGS_2:
        ea = topo(cfg["n"], seed=cfg["seed"], eta=cfg["eta"],
                  accumulation=Accumulation.EA)
        mia = dataclasses.replace(ea, accumulation=Accumulation.MIA)
        order = dijkstra_ordering(ea)
        gap = dmect_go(mia, order, cfg["T"]).cost - dmect_go(ea, order, cfg["T"]).cost
        worst = max(worst, gap)
        checked += 1
    for s in range(100):
        T = 3 + s % 8
        ea = topo(30, seed=9000 + s, eta=(2.0, 3.0)[s % 2],
                  accumulation=Accumulation.EA)
        mia = dataclasses.replace(ea, accumulation=Accumulation.MIA)
        order = dijkstra_ordering(ea)
        gap = dmect_go(mia, order, T).cost - dmect_go(ea, order, T).cost
        worst = max(worst, gap)
        checked += 1
    _line(4, worst <= 1e-8,
          f"per-sender accumulation never costs more than energy "
          f"accumulation on {checked} instances incl. 100 at n=30, "
          f"T in 3..10: max (mia - ea) = {worst:.3e} (tol 1e-8)")


def test_c05_cooperation_never_loses_to_the_greedy_baseline():
    worst = -math.inf  # max of (coop - noncoop); must stay <= 1e-9
    checked = 0
    for cfg in CONFIGS_1:
        inst = topo(cfg["n"], seed=cfg["seed"], eta=cfg["eta"],
                    accumulation=cfg["accumulation"])
        order = dijkstra_ordering(inst)
        coop = dmect_go(inst, order, cfg["T"]).cost
        base = noncoop_solve(inst, order, cfg["T"]).cost
        worst = max(worst, coop - base)
        checked += 1
    for s in range(5):
        inst = topo(30, seed=700 + s)
        order = dijkstra_ordering(inst)
        for T in (3, 6, 9):
            coop = dmect_go(inst, order, T).cost
            base = noncoop_solve(inst, order, T).cost
            worst = max(worst, coop - base)
            checked += 1
    _line(5, worst <= 1e-9,
          f"cooperative solve never exceeds the single-link baseline on "
          f"{checked} (instance, T) pairs, same ordering: max (coop - "
          f"noncoop) = {worst:.3e} (tol 1e-9)")


def test_c06_cost_is_monotone_in_the_deadline_and_saturates():
    worst_rise = -math.inf
    worst_flat = 0.0
    for s in range(50):
        mode = Accumulation.MIA if s < 10 else Accumulation.EA
        inst = topo(30, seed=4000 + s, eta=(2.0, 3.0)[s % 2], accumulation=mode)
        order = dijkstra_ordering(inst)
        cache = SlotCache(inst)
        costs = [dmect_go(inst, order, T, cache=cache).cost
                 for T in range(1, inst.n)]
        worst_rise = max(worst_rise,
                         max(b - a for a, b in zip(costs, costs[1:])))
        saturated = costs[-1]
        for T in (inst.n - 1 + 1, inst.n - 1 + 5):
            late = dmect_go(inst, order, T, cache=cache).cost
            worst_flat = max(worst_flat, abs(late - saturated))
    _line(6, worst_rise <= 1e-9 and worst_flat <= 1e-9,
          f"cost nonincreasing in T over 50 instances at n=30 (max rise = "
          f"{worst_rise:.3e}, tol 1e-9) and constant past T=n-1 (max drift = "
          f"{worst_flat:.3e}, tol 1e-9)")


def test_c07_unicast_recursion_is_bitwise_shortest_path():
    mismatches = 0
    for s in range(100):
        n = 2 + s % 49
        inst = topo(n, seed=3000 + s, eta=(2.0, 3.0)[s % 2])
        dist = shortest_path_distances(link_power_matrix(inst), inst.source)
        dest = 1 + s % (n - 1)
        got = unicast_ea(inst, dest, T=n - 1).cost
        if got != dist[dest]:
            mismatches += 1
    _line(7, mismatches == 0,
          f"hop-bounded unicast at T=n-1 reproduces the one-shot shortest "
          f"path bitwise on 100 instances (n up to 50): {mismatches} mismatches")


def test_c08_source_gain_ordering_is_optimal_for_two_slots():
    worst = 0.0
    for s in range(100):
        n = 3 + s % 5
        inst = topo(n, seed=6000 + s, eta=(2.0, 3.0)[s % 2])
        got = dmect_go(inst, gain_ordering(inst), T=2).cost
        _, want = brute_force_ordering(inst, T=2)
        worst = max(worst, abs(got - want))
    _line(8, worst <= 1e-7,
          f"descending-source-gain ordering matches the factorial optimum at "
          f"T=2 on 100 instances (n<=7): worst |diff| = {worst:.2e} (tol 1e-7)")


def test_c09_ordering_heuristic_quality_report(tmp_path):
    out = tmp_path / "compare.csv"
    code = main(["compare-ordering", "--n", "6", "--instances", "50",
                 "--t", "3", "--seed", "8000", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    ratios = [float(r.split(",")[3]) for r in lines[1:]
              if not r.startswith(("mean", "median"))]
    mean_row = next(r for r in lines if r.startswith("mean,"))
    mean = float(mean_row.split(",")[3])
    ok = (code == 0 and len(ratios) == 50
          and all(r >= 1.0 - 1e-9 for r in ratios)
          and abs(mean - sum(ratios) / len(ratios)) < 1e-6)
    _line(9, ok,
          f"shortest-path ordering vs factorial optimum at n=6, T=3 over 50 "
          f"seeds: every ratio >= 1, mean ratio = {mean:.6f}, max ratio = "
          f"{max(ratios):.6f} (report only; no hard bound)")


def test_c10_costs_scale_inversely_with_the_gain_scale():
    worst = 0.0
    for s in range(20):
        for mode in (Accumulation.EA, Accumulation.MIA):
            inst = topo(8, seed=1500 + s, accumulation=mode)
            order = dijkstra_ordering(inst)
            base_go = dmect_go(inst, order, 3).cost
            base_nc = noncoop_solve(inst, order, 3).cost
            base_uc = unicast_ea(inst, 7, 3).cost \
                if mode is Accumulation.EA else None
            for c in (0.1, 10.0, 1e-200, 1e200):
                scaled = dataclasses.replace(inst, gains=c * inst.gains)
                worst = max(worst, abs(dmect_go(scaled, order, 3).cost
                                       - base_go / c) / (base_go / c))
                worst = max(worst, abs(noncoop_solve(scaled, order, 3).cost
                                       - base_nc / c) / (base_nc / c))
                if base_uc is not None:
                    worst = max(worst, abs(unicast_ea(scaled, 7, 3).cost
                                           - base_uc / c) / (base_uc / c))
    _line(10, worst <= 1e-7,
          f"scaling all gains by c in {{0.1, 10, 1e-200, 1e200}} scales every "
          f"solver's cost by 1/c on 20 instances, both modes: worst relative "
          f"error = {worst:.2e} (tol 1e-7)")


def test_c11_large_broadcast_completes_within_budget():
    inst = topo(100, seed=12345)
    order = dijkstra_ordering(inst)
    cache = SlotCache(inst)
    t0 = time.perf_counter()
    result = dmect_go(inst, order, T=10, cache=cache)
    elapsed = time.perf_counter() - t0
    verdict = verify_schedule(inst, result.schedule)
    budget = inst.n * inst.n * 10
    _line(11, elapsed < 60.0 and verdict.feasible and cache.solve_count <= budget,
          f"broadcast n=100, T=10 solved in {elapsed:.2f}s (budget 60s) with "
          f"{cache.solve_count} slot solves (quadratic budget {budget}), "
          f"schedule verified, cost {result.cost:.6g}")


def test_c12_unicast_relay_path_is_optimal_under_energy_accumulation():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for s in range(60):
        n = 3 + s % 4
        inst = topo(n, seed=7000 + s, eta=(2.0, 3.0)[s // 4 % 2])
        # slot optima do not depend on the destinations, so one cache serves all
        cache = SlotCache(inst)
        for dest in range(1, n):
            single = dataclasses.replace(inst, destinations=frozenset({dest}))
            for T in range(1, n):
                got = unicast_ea(single, dest, T).cost
                want = exhaustive_global(single, T, cache=cache)
                worst = max(worst, abs(got - want) / want)
                cases += 1
    elapsed = time.perf_counter() - t0
    _line(12, worst <= 1e-9,
          f"EA unicast relay path equals the cooperative optimum over every "
          f"decode chain on {cases} cases (60 instances, n=3..6, every "
          f"destination, T=1..n-1): worst relative gap = {worst:.2e} "
          f"(tol 1e-9), {elapsed:.1f}s")
