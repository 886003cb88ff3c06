"""Brute-force references for correctness testing.

Everything here enumerates directly and shares only the one-slot solver
with the production code, never the scheduling DP; the heap Dijkstra is the
reference for the DP's shortest-path distances. Hard caps keep the
combinatorics honest; exceeding one raises instead of silently crawling.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .errors import CapExceededError, InfeasibleError
from .model import Instance, Ordering
from .power import SlotProblem
from .schedule import SlotCache, _target_position

PARTITION_CAP_N = 10
PARTITION_CAP_T = 5
GLOBAL_CAP_N = 6
INTEGRAL_CAP_RECEIVERS = 12


def shortest_path_distances(weights: np.ndarray, source: int) -> np.ndarray:
    """Dijkstra over a dense nonnegative weight matrix; inf marks no edge."""
    n = weights.shape[0]
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        row = weights[u]
        for v in range(n):
            if done[v] or not np.isfinite(row[v]):
                continue
            nd = d + row[v]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _cheapest_chain(instance: Instance, T: int, cache: SlotCache, next_sets) -> float:
    """Minimum cost over chains of at most T slots that decode every destination.

    Each slot sends from the whole decoded set to one set of new receivers
    from ``next_sets(decoded)``. Costs add left to right, as in the DP, and
    a branch stops once its cost so far reaches the best chain.
    """
    best = math.inf

    def extend(decoded: frozenset, spent: float, slots_left: int) -> None:
        nonlocal best
        if instance.destinations <= decoded:
            best = spent
        elif slots_left:
            for new in next_sets(decoded):
                total = spent + cache.cost(decoded, new)
                if total < best:
                    extend(decoded | new, total, slots_left - 1)

    extend(frozenset({instance.source}), 0.0, T)
    return best


def exhaustive_partition(instance: Instance, ordering: Ordering, T: int,
                         cache: SlotCache | None = None) -> float:
    """Minimum cost over every nondecreasing breakpoint sequence.

    Enumerates all prefix-length sequences 1 = k_0 <= k_1 <= ... <= k_T =
    target and sums the slot optima, with no dynamic programming. Equals
    dmect_go for the same ordering by construction.
    """
    if instance.n > PARTITION_CAP_N or T > PARTITION_CAP_T:
        raise CapExceededError(
            f"exhaustive_partition capped at n <= {PARTITION_CAP_N}, "
            f"T <= {PARTITION_CAP_T}; got n={instance.n}, T={T}")
    if T < 1:
        raise ValueError(f"need at least one slot, got T={T}")
    if len(ordering.order) != instance.n or ordering.order[0] != instance.source:
        raise ValueError("ordering must cover all nodes and start at the source")
    target = _target_position(instance, ordering)
    # each slot decodes the next stretch of the ordering, up to the target
    return _cheapest_chain(instance, T, cache or SlotCache(instance), lambda decoded: (
        frozenset(ordering.order[len(decoded):j]) for j in range(len(decoded) + 1, target + 1)))


def exhaustive_global(instance: Instance, T: int,
                      cache: SlotCache | None = None) -> float:
    """Minimum cost over every chain of strictly growing decoded sets.

    Slot t transmits from the whole decoded set and picks any nonempty set
    of new receivers; a chain stops once the destinations are covered.
    This searches all decode orders at once, so it equals the minimum of
    dmect_go over every ordering.
    """
    if instance.n > GLOBAL_CAP_N:
        raise CapExceededError(
            f"exhaustive_global capped at n <= {GLOBAL_CAP_N}; got n={instance.n}")
    if T < 1:
        raise ValueError(f"need at least one slot, got T={T}")
    # each slot decodes any nonempty set of the nodes still waiting
    return _cheapest_chain(instance, T, cache or SlotCache(instance), lambda decoded: (
        frozenset(new) for size in range(1, instance.n)
        for new in itertools.combinations(sorted(set(range(instance.n)) - decoded), size)))


def exact_integral_slot(problem: SlotProblem) -> float:
    """Exact optimum of the non-cooperative slot by set-cover enumeration.

    Candidates are (sender, threshold power) pairs; a subset-mask DP takes
    the exact minimum total power whose picks cover every receiver. Upper
    bound for solve_slot, lower bound for greedy_slot.
    """
    nr = len(problem.receivers)
    if nr > INTEGRAL_CAP_RECEIVERS:
        raise CapExceededError(
            f"exact_integral_slot capped at {INTEGRAL_CAP_RECEIVERS} receivers; "
            f"got {nr}")
    if not nr:
        return 0.0
    alpha = math.expm1(problem.theta)
    candidates = []
    for row in problem.gains.tolist():
        for threshold in sorted({g for g in row if g > 0.0}):
            mask = sum(1 << j for j, g in enumerate(row) if g >= threshold)
            candidates.append((alpha / threshold, mask))
    full = (1 << nr) - 1
    dp = np.full(full + 1, np.inf)
    dp[0] = 0.0
    for state in range(full + 1):
        if not np.isfinite(dp[state]):
            continue
        for weight, mask in candidates:
            nxt = state | mask
            if nxt != state and dp[state] + weight < dp[nxt]:
                dp[nxt] = dp[state] + weight
    if not np.isfinite(dp[full]):
        stuck = next(r for j, r in enumerate(problem.receivers)
                     if not np.any(problem.gains[:, j] > 0.0))
        raise InfeasibleError(f"receiver {stuck} has zero gain from every sender",
                              receiver=stuck)
    return float(dp[full])


def ea_vertex_optimum(gains, theta: float) -> tuple[np.ndarray, float]:
    """Covering-LP optimum by vertex enumeration; reference for the ea branch of
    solve_slot.

    Visits every basic solution of {p >= 0, gains' p >= 1} (all ways of
    making |S| constraints active), keeps the feasible ones, and returns the
    cheapest times alpha = e^theta - 1. Exponential; meant for slots of a
    few senders and receivers.
    """
    g = np.asarray(gains, dtype=float)
    ns, nr = g.shape
    alpha = math.expm1(float(theta))
    rows = np.vstack([g.T, np.eye(ns)])          # cover rows then p_s = 0 rows
    rhs = np.concatenate([np.ones(nr), np.zeros(ns)])
    best_cost = math.inf
    best_p = None
    for active in itertools.combinations(range(nr + ns), ns):
        a = rows[list(active)]
        b = rhs[list(active)]
        try:
            p = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(p)) or np.max(np.abs(a @ p - b)) > 1e-7:
            continue
        if np.any(p < -1e-9) or np.any(g.T @ p < 1.0 - 1e-9):
            continue
        cost = float(np.clip(p, 0.0, None).sum())
        if cost < best_cost:
            best_cost = cost
            best_p = np.clip(p, 0.0, None)
    if best_p is None:
        raise InfeasibleError("covering polyhedron has no vertex", receiver=None)
    return alpha * best_p, alpha * best_cost
