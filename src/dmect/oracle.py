"""Brute-force references for correctness testing.

Everything here enumerates directly and shares only the one-slot solver
with the production code, never the scheduling DP. Hard caps keep the
combinatorics honest; exceeding one raises instead of silently crawling.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapExceededError, InfeasibleError
from .model import Instance, Ordering
from .schedule import SlotCache, _target_position

PARTITION_CAP_N = 10
PARTITION_CAP_T = 5
GLOBAL_CAP_N = 6
INTEGRAL_CAP_RECEIVERS = 12


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
    if cache is None:
        cache = SlotCache(instance)
    order = ordering.order
    target = _target_position(instance, ordering)
    best = math.inf
    for mid in itertools.combinations_with_replacement(range(1, target + 1), T - 1):
        ks = (1, *mid, target)
        total = 0.0
        for a, b in zip(ks, ks[1:]):
            if b > a:
                total += cache.cost(frozenset(order[:a]), frozenset(order[a:b]))
            if total >= best or math.isinf(total):
                break
        best = min(best, total)
    return best


def exhaustive_global(instance: Instance, T: int,
                      cache: SlotCache | None = None) -> float:
    """Minimum cost over every chain of strictly growing decoded sets.

    Slot t transmits from the whole decoded set and picks any nonempty set
    of new receivers; recursion stops once the destinations are covered.
    This searches all decode orders at once, so it equals the minimum of
    dmect_go over every ordering.
    """
    if instance.n > GLOBAL_CAP_N:
        raise CapExceededError(
            f"exhaustive_global capped at n <= {GLOBAL_CAP_N}; got n={instance.n}")
    if T < 1:
        raise ValueError(f"need at least one slot, got T={T}")
    if cache is None:
        cache = SlotCache(instance)
    everyone = frozenset(range(instance.n))

    def best_from(decoded: frozenset, slots_left: int) -> float:
        if instance.destinations <= decoded:
            return 0.0
        if slots_left == 0:
            return math.inf
        rest = sorted(everyone - decoded)
        best = math.inf
        for size in range(1, len(rest) + 1):
            for new in itertools.combinations(rest, size):
                step = cache.cost(decoded, frozenset(new))
                if step >= best:
                    continue
                tail = best_from(decoded | frozenset(new), slots_left - 1)
                best = min(best, step + tail)
        return best

    return best_from(frozenset({instance.source}), T)


def exact_integral_slot(senders, receivers, instance: Instance) -> float:
    """Exact optimum of the non-cooperative slot by set-cover enumeration.

    Candidates are (sender, threshold power) pairs; a subset-mask DP takes
    the exact minimum total power whose picks cover every receiver. Upper
    bound for solve_slot, lower bound for greedy_slot.
    """
    senders = sorted(int(s) for s in senders)
    receivers = sorted(int(r) for r in receivers)
    if len(receivers) > INTEGRAL_CAP_RECEIVERS:
        raise CapExceededError(
            f"exact_integral_slot capped at {INTEGRAL_CAP_RECEIVERS} receivers; "
            f"got {len(receivers)}")
    if not receivers:
        return 0.0
    alpha = math.expm1(instance.theta)
    h = instance.gains
    bit = {r: 1 << i for i, r in enumerate(receivers)}
    candidates = []
    for s in senders:
        for threshold in sorted({float(h[s, r]) for r in receivers if h[s, r] > 0.0}):
            mask = 0
            for r in receivers:
                if h[s, r] >= threshold:
                    mask |= bit[r]
            candidates.append((alpha / threshold, mask))
    full = (1 << len(receivers)) - 1
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
        stuck = min(r for r in receivers if all(h[s, r] <= 0.0 for s in senders))
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
