"""Non-cooperative baseline: one sender per receiver, no signal combining.

Each receiver must decode from a single transmission alone, so a slot is a
weighted set-cover over threshold powers: sender s at power (e^theta - 1) /
h_sk reaches exactly its receivers with gain >= h_sk. The slot allocator is
the classical greedy ratio rule; the surrounding delay DP is identical to
the cooperative one. Because a single link needs log(1 + p h) >= theta
either way, the baseline is the same under both accumulation modes.
"""

from __future__ import annotations

import math

from .errors import InfeasibleError
from .model import EMPTY_ALLOCATION, Instance, Ordering, PowerAllocation
from .schedule import SlotCache, SolveResult, dmect_go


def greedy_slot(senders, receivers, instance: Instance) -> tuple[PowerAllocation, dict[int, int]]:
    """Greedy set-cover allocation for one non-cooperative slot.

    Candidates are (sender, threshold power); each pick minimizes power
    divided by newly covered receivers, ties favoring more coverage and
    then the smaller sender index. A sender picked again keeps only its
    larger power, since one transmission reaches everyone at once.
    Returns the allocation and the receiver -> sender assignment.
    """
    senders = sorted(int(s) for s in senders)
    receivers = sorted(int(r) for r in receivers)
    if not receivers:
        return EMPTY_ALLOCATION, {}
    alpha = math.expm1(instance.theta)
    h = instance.gains
    uncovered = set(receivers)
    power: dict[int, float] = {}
    assignment: dict[int, int] = {}
    while uncovered:
        best_key = None
        best_pick = None
        for s in senders:
            reach = sorted({float(h[s, r]) for r in uncovered if h[s, r] > 0.0},
                           reverse=True)
            for threshold in reach:
                p = alpha / threshold
                covered = [r for r in sorted(uncovered) if h[s, r] >= threshold]
                key = (p / len(covered), -len(covered), s)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pick = (s, p, covered)
        if best_pick is None:
            stuck = min(r for r in uncovered if all(h[s, r] <= 0.0 for s in senders))
            raise InfeasibleError(f"receiver {stuck} has zero gain from every sender",
                                  receiver=stuck)
        s, p, covered = best_pick
        power[s] = max(power.get(s, 0.0), p)
        for r in covered:
            assignment[r] = s
        uncovered.difference_update(covered)
    alloc = PowerAllocation.from_powers({s: p for s, p in power.items() if p > 0.0})
    return alloc, assignment


def greedy_solver(instance: Instance, senders: frozenset, receivers: frozenset) -> PowerAllocation:
    """Slot allocator for SlotCache: the greedy allocation alone."""
    return greedy_slot(senders, receivers, instance)[0]


def noncoop_solve(instance: Instance, ordering: Ordering, T: int,
                  cache: SlotCache | None = None) -> SolveResult:
    """Delay-constrained solve with greedy non-cooperative slots.

    Same DP as dmect_go with the per-slot optimizer swapped out, so its
    cost can never beat the cooperative solution.
    """
    if cache is None:
        cache = SlotCache(instance, solver=greedy_solver)
    return dmect_go(instance, ordering, T, cache=cache)
