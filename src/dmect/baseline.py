"""Non-cooperative baseline: one sender per receiver, no signal combining.

Each receiver must decode from a single transmission alone, so a slot is a
weighted set-cover over threshold powers: sender s at power (e^theta - 1) /
h_sk reaches exactly its receivers with gain >= h_sk. The slot allocator,
``greedy_slot``, is the classical greedy ratio rule on the same SlotProblem
as ``solve_slot``; the surrounding delay DP is the cooperative one. Because
a single link needs log(1 + p h) >= theta either way, the baseline is the
same under both accumulation modes.
"""

from __future__ import annotations

import math

from .model import EMPTY_ALLOCATION, Instance, Ordering, PowerAllocation
from .power import SlotProblem, _check_reachable
from .schedule import SlotCache, SolveResult, dmect_go


def greedy_slot(problem: SlotProblem) -> PowerAllocation:
    """Greedy set-cover allocation for one non-cooperative slot.

    Candidates are (sender, threshold power); each pick minimizes power
    divided by newly covered receivers, ties favoring more coverage and
    then the earlier sender in ``problem.senders``. A sender picked again
    keeps only its larger power, since one transmission reaches everyone
    at once. An empty receiver set costs exactly zero.
    """
    if not problem.receivers:
        return EMPTY_ALLOCATION
    _check_reachable(problem)
    alpha = math.expm1(problem.theta)
    rows = problem.gains.tolist()
    uncovered = set(range(len(problem.receivers)))
    power: dict[int, float] = {}
    while uncovered:
        best_key = best_pick = None
        for s, row in enumerate(rows):
            for threshold in sorted({row[r] for r in uncovered if row[r] > 0.0},
                                    reverse=True):
                p = alpha / threshold
                covered = [r for r in uncovered if row[r] >= threshold]
                key = (p / len(covered), -len(covered), s)
                if best_key is None or key < best_key:
                    best_key, best_pick = key, (s, p, covered)
        s, p, covered = best_pick
        power[s] = max(power.get(s, 0.0), p)
        uncovered.difference_update(covered)
    return PowerAllocation.from_powers(
        {problem.senders[s]: p for s, p in power.items() if p > 0.0})


def noncoop_solve(instance: Instance, ordering: Ordering, T: int,
                  cache: SlotCache | None = None) -> SolveResult:
    """Delay-constrained solve with greedy non-cooperative slots.

    Same DP as dmect_go with the per-slot optimizer swapped out, so its
    cost can never beat the cooperative solution.
    """
    if cache is None:
        cache = SlotCache(instance, solver=greedy_slot)
    return dmect_go(instance, ordering, T, cache=cache)
