"""Delay-constrained scheduling by a hop-bounded shortest-path recursion.

Fixing an ordering of the nodes (source first), any cooperative schedule
that decodes nodes in that order is described by a nondecreasing sequence
of prefix lengths, one per slot: the slot's transmitters are the whole
decoded prefix and its receivers are the next stretch of the ordering.
The minimum-energy schedule within T slots is then a cheapest walk of at
most T hops over prefix lengths (Bellman's bounded-hop recursion):

    C[j][t] = min_{k <= j}  C[k][t-1] + cp(prefix k, positions k+1..j)

with C[1][0] = 0, where cp is the one-slot optimum from solve_slot and the
zero-cost k = j term is a slot spent waiting. Unicast under energy
accumulation, and the distances behind the shortest-path ordering, are the
same recursion on the direct-link power graph. Slot optima depend only on
the sender/receiver sets, so they are memoized; the DP stays within the
O(n^2 T) slot-solve budget and typically far below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError
from .model import (Accumulation, Instance, Ordering, PowerAllocation,
                    Schedule, Slot)
from .power import SlotProblem, solve_slot


def link_power_matrix(instance: Instance) -> np.ndarray:
    """Direct-link power w(i -> j) = (e^theta - 1) / h_ij; inf where h is zero
    and 0 on the diagonal, since staying put is a slot spent waiting."""
    alpha = math.expm1(instance.theta)
    # an overflowed power is +inf on purpose: no finite schedule loses by skipping it
    with np.errstate(divide="ignore", over="ignore"):
        w = alpha / instance.gains
    np.fill_diagonal(w, 0.0)
    return w


class SlotCache:
    """Memoized one-slot allocations for one instance, keyed by node sets.

    Each distinct slot is built once as a ``SlotProblem`` and handed to the
    allocator, ``solver(problem) -> PowerAllocation``: ``solve_slot`` by
    default, looked up when called, or another allocator with the same
    contract (e.g. the non-cooperative ``greedy_slot``). Infeasible slots
    are cached as None and surface as an infinite cost.
    """

    def __init__(self, instance: Instance, solver=None):
        self.instance = instance
        self._solver = solver
        self._store: dict[tuple[frozenset, frozenset], PowerAllocation | None] = {}
        self.solve_count = 0

    def allocation(self, senders: frozenset, receivers: frozenset) -> PowerAllocation | None:
        key = (frozenset(senders), frozenset(receivers))
        if key not in self._store:
            self.solve_count += 1
            problem = SlotProblem.from_instance(self.instance, *key)
            try:
                self._store[key] = (self._solver or solve_slot)(problem)
            except InfeasibleError:
                self._store[key] = None
        return self._store[key]

    def cost(self, senders: frozenset, receivers: frozenset) -> float:
        alloc = self.allocation(senders, receivers)
        return math.inf if alloc is None else alloc.cost


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a delay-constrained solve.

    ``cost`` is inf when the target cannot be covered within T slots, in
    which case ``schedule`` is None and ``blocked`` names the first prefix
    position (1-based) that is unreachable.
    """

    cost: float
    schedule: Schedule | None
    target: int
    blocked: int | None = None


@dataclass(frozen=True)
class UnicastResult:
    """Outcome of unicast_ea; an unreachable destination raises instead."""

    cost: float
    schedule: Schedule


def _hop_dp(w: np.ndarray, start: int, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Cheapest walks from ``start`` of at most T hops over edge costs ``w``.

    ``w[i, i]`` must be 0: a self-loop is a slot spent waiting. costs[i, t]
    is the cheapest walk to i within t hops and pred[i, t] the tail of its
    last hop (i itself for a wait); argmin keeps the first minimum, so ties
    go to the smallest tail.
    """
    n = w.shape[0]
    costs = np.full((n, T + 1), np.inf)
    pred = np.zeros((n, T + 1), dtype=int)
    costs[start, 0] = 0.0
    # an overflowed sum is +inf on purpose, like an overflowed power
    with np.errstate(over="ignore"):
        for t in range(1, T + 1):
            via = costs[:, t - 1, None] + w
            pred[:, t] = np.argmin(via, axis=0)
            costs[:, t] = via.min(axis=0)
    return costs, pred


def _walk_back(pred: np.ndarray, start: int, end: int, T: int) -> list[tuple[int, int]]:
    """The hops (k, i) of the walk to ``end`` within T hops, waits dropped."""
    hops = []
    i, t = end, T
    while i != start:
        k = int(pred[i, t])
        if k != i:
            hops.append((k, i))
        i, t = k, t - 1
    return hops[::-1]


def _slot_cost_matrix(cache: SlotCache, order: tuple[int, ...], target: int) -> np.ndarray:
    # m[k, i]: one slot from prefix positions 0..k to positions k+1..i
    m = np.full((target, target), np.inf)
    for k in range(target):
        m[k, k] = 0.0
        senders = frozenset(order[:k + 1])
        for i in range(k + 1, target):
            m[k, i] = cache.cost(senders, frozenset(order[k + 1:i + 1]))
    return m


def _target_position(instance: Instance, ordering: Ordering) -> int:
    return 1 + max(ordering.position[d] for d in instance.destinations)


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
    target = _target_position(instance, ordering)
    costs, pred = _hop_dp(_slot_cost_matrix(cache, order, target), 0, T)

    total = float(costs[target - 1, T])
    if not math.isfinite(total):
        blocked = 1 + int(np.flatnonzero(~np.isfinite(costs[:, T]))[0])
        return SolveResult(cost=math.inf, schedule=None, target=target,
                           blocked=blocked)
    slots = []
    for k, i in _walk_back(pred, 0, target - 1, T):
        receivers = frozenset(order[k + 1:i + 1])
        alloc = cache.allocation(frozenset(order[:k + 1]), receivers)
        slots.append(Slot(senders=frozenset(alloc.powers), receivers=receivers,
                          powers=dict(alloc.powers)))
    return SolveResult(cost=total, schedule=Schedule(slots=tuple(slots)),
                       target=target)


def unicast_ea(instance: Instance, dest: int, T: int) -> UnicastResult:
    """Optimal unicast under energy accumulation: a hop-bounded shortest path.

    For a single destination the optimum rides a simple relay path, each
    hop spending w(k -> i) = (e^theta - 1) / h_ki, so the delay-constrained
    problem is the same recursion as dmect_go's, run on the direct-link
    power graph from the source.

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

    w = link_power_matrix(instance)
    costs, pred = _hop_dp(w, instance.source, T)
    total = float(costs[dest, T])
    if not math.isfinite(total):
        raise InfeasibleError(f"destination {dest} unreachable within {T} slots",
                              receiver=dest)
    slots = tuple(Slot(senders=frozenset({k}), receivers=frozenset({i}),
                       powers={k: float(w[k, i])})
                  for k, i in _walk_back(pred, instance.source, dest, T))
    return UnicastResult(cost=total, schedule=Schedule(slots=slots))
