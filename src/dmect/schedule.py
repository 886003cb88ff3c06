"""Delay-constrained scheduling by dynamic programming over a node ordering.

Fixing an ordering of the nodes (source first), any cooperative schedule
that decodes nodes in that order is described by a nondecreasing sequence
of prefix lengths, one per slot: the slot's transmitters are the whole
decoded prefix and its receivers are the next stretch of the ordering.
The minimum-energy schedule within T slots then satisfies

    C[j][t] = min_{1 <= k <= j}  C[k][t-1] + cp(prefix k, positions k+1..j)

with C[1][t] = 0, where cp is the one-slot optimum from solve_slot and the
k = j term carries a solution that finishes early. Slot optima depend only
on the sender/receiver sets, so they are memoized; the DP stays within the
O(n^2 T) slot-solve budget and typically far below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .model import (EMPTY_ALLOCATION, Accumulation, Instance, Ordering,
                    PowerAllocation, Schedule, Slot)
from .power import SlotProblem, solve_slot


def link_power_matrix(instance: Instance) -> np.ndarray:
    """Direct-link power w(i -> j) = (e^theta - 1) / h_ij; inf where h is zero."""
    alpha = math.expm1(instance.theta)
    with np.errstate(divide="ignore"):
        w = alpha / instance.gains
    return w


def _cp_solver(instance: Instance, senders: frozenset, receivers: frozenset) -> PowerAllocation:
    return solve_slot(SlotProblem.from_instance(instance, senders, receivers))


class SlotCache:
    """Memoized one-slot allocations for one instance, keyed by node sets.

    Infeasible slots are cached as None and surface as an infinite cost.
    A custom ``solver(instance, senders, receivers)`` swaps in alternative
    per-slot allocators (e.g. the non-cooperative greedy baseline).
    """

    def __init__(self, instance: Instance, solver=_cp_solver):
        self.instance = instance
        self._solver = solver
        self._store: dict[tuple[frozenset, frozenset], PowerAllocation | None] = {}
        self.solve_count = 0

    def allocation(self, senders: frozenset, receivers: frozenset) -> PowerAllocation | None:
        if not receivers:
            return EMPTY_ALLOCATION
        key = (frozenset(senders), frozenset(receivers))
        if key not in self._store:
            self.solve_count += 1
            try:
                self._store[key] = self._solver(self.instance, key[0], key[1])
            except InfeasibleError:
                self._store[key] = None
        return self._store[key]

    def cost(self, senders: frozenset, receivers: frozenset) -> float:
        alloc = self.allocation(senders, receivers)
        return math.inf if alloc is None else alloc.cost


@dataclass(frozen=True)
class CostMatrix:
    """DP table, 1-based in both axes: costs[j][t] covers the first j ordered
    nodes within t slots. Infeasible cells hold inf; argmin holds the
    breakpoint k chosen for the cell, -1 where undefined."""

    costs: np.ndarray
    argmin: np.ndarray


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a delay-constrained solve.

    ``cost`` is inf when the target cannot be covered within T slots, in
    which case ``schedule`` is None and ``blocked`` names the first prefix
    position (1-based) that is unreachable.
    """

    cost: float
    schedule: Schedule | None
    table: CostMatrix
    target: int
    blocked: int | None = None


def _slot_cost_matrix(cache: SlotCache, order: tuple[int, ...], target: int) -> np.ndarray:
    m = np.full((target + 1, target + 1), np.inf)
    for j in range(1, target + 1):
        m[j, j] = 0.0
        senders = frozenset(order[:j])
        for i in range(j + 1, target + 1):
            m[j, i] = cache.cost(senders, frozenset(order[j:i]))
    return m


def _target_position(instance: Instance, ordering: Ordering) -> int:
    return 1 + max(ordering.position[d] for d in instance.destinations)


def _reconstruct(cache: SlotCache, order, argmin, target: int, T: int) -> Schedule:
    slots = []
    j, t = target, T
    while j > 1:
        k = int(argmin[j, t])
        if k < j:
            senders = frozenset(order[:k])
            receivers = frozenset(order[k:j])
            alloc = cache.allocation(senders, receivers)
            slots.append(Slot(senders=frozenset(alloc.powers),
                              receivers=receivers,
                              powers=dict(alloc.powers)))
        j, t = k, t - 1
    slots.reverse()
    return Schedule(slots=tuple(slots))


def dmect_go(instance: Instance, ordering: Ordering, T: int,
             cache: SlotCache | None = None) -> SolveResult:
    """Minimum-energy schedule within T slots under the given ordering.

    The DP target is the highest-ordered destination; nodes ordered past it
    are never covered. T = n - 1 solves the problem with no deadline, since
    every useful slot decodes at least one new node. Pass a shared
    ``cache`` to reuse slot optima across calls on the same instance.
    """
    if len(ordering.order) != instance.n:
        raise ValueError("ordering length does not match the instance")
    if ordering.order[0] != instance.source:
        raise ValueError("ordering must start at the source")
    if T < 1:
        raise ValueError(f"need at least one slot, got T={T}")
    if cache is None:
        cache = SlotCache(instance)
    order = ordering.order
    n = instance.n
    target = _target_position(instance, ordering)
    m = _slot_cost_matrix(cache, order, target)

    costs = np.full((n + 1, T + 1), np.inf)
    argmin = np.full((n + 1, T + 1), -1, dtype=int)
    costs[1, :] = 0.0
    for t in range(1, T + 1):
        prev = costs[:, t - 1]
        for j in range(2, target + 1):
            vals = prev[1:j + 1] + m[1:j + 1, j]
            k = int(np.argmin(vals)) + 1   # ties resolve to the smallest k
            costs[j, t] = vals[k - 1]
            if np.isfinite(costs[j, t]):
                argmin[j, t] = k
    table = CostMatrix(costs=costs, argmin=argmin)

    total = float(costs[target, T])
    if not math.isfinite(total):
        blocked = next(j for j in range(2, target + 1) if not np.isfinite(costs[j, T]))
        return SolveResult(cost=math.inf, schedule=None, table=table,
                           target=target, blocked=blocked)
    schedule = _reconstruct(cache, order, argmin, target, T)
    return SolveResult(cost=total, schedule=schedule, table=table, target=target)


# ---------------------------------------------------------------------------
# Unicast under energy accumulation: hop-bounded shortest path.

@dataclass(frozen=True)
class UnicastTable:
    """costs[i][t] = cheapest way to reach node i within t slots; parent[i][t]
    is the relaying predecessor, -1 at the source and -2 for "wait"."""

    costs: np.ndarray
    parent: np.ndarray


@dataclass(frozen=True)
class UnicastResult:
    cost: float
    schedule: Schedule
    table: UnicastTable


def unicast_ea(instance: Instance, dest: int, T: int) -> UnicastResult:
    """Optimal unicast under energy accumulation: a hop-bounded shortest path.

    For a single destination the optimum rides a simple relay path, each
    hop spending w(k -> i) = (e^theta - 1) / h_ki, so the delay-constrained
    problem is a shortest path with at most T edges:

        C[i][t] = min(C[i][t-1],  min_k C[k][t-1] + w(k -> i))

    Only valid for energy accumulation; the mutual-information variant has
    no known polynomial solver and must go through dmect_go heuristically.
    """
    if instance.accumulation is not Accumulation.EA:
        raise ValueError("unicast_ea requires energy accumulation")
    dest = int(dest)
    if not 0 <= dest < instance.n or dest == instance.source:
        raise ValueError(f"bad destination {dest}")
    if T < 1:
        raise ValueError(f"need at least one slot, got T={T}")

    n = instance.n
    w = link_power_matrix(instance)
    costs = np.full((n, T + 1), np.inf)
    parent = np.full((n, T + 1), -1, dtype=int)
    costs[instance.source, :] = 0.0
    for t in range(1, T + 1):
        base = costs[:, t - 1]
        via = base[:, None] + w
        k = np.argmin(via, axis=0)
        best = via[k, np.arange(n)]
        stay = base
        take = best < stay
        costs[:, t] = np.where(take, best, stay)
        parent[:, t] = np.where(take, k, -2)
        parent[instance.source, t] = -1
    table = UnicastTable(costs=costs, parent=parent)

    total = float(costs[dest, T])
    if not math.isfinite(total):
        raise InfeasibleError(f"destination {dest} unreachable within {T} slots",
                              receiver=dest)
    hops = []
    i, t = dest, T
    while i != instance.source:
        k = int(parent[i, t])
        if k == -2:
            t -= 1
            continue
        hops.append((k, i))
        i, t = k, t - 1
    hops.reverse()
    slots = tuple(Slot(senders=frozenset({k}), receivers=frozenset({i}),
                       powers={k: float(w[k, i])})
                  for k, i in hops)
    return UnicastResult(cost=total, schedule=Schedule(slots=slots), table=table)
