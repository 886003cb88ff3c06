"""Minimum-power allocation for a single slot.

Given senders S, receivers R and threshold theta, find nonnegative powers
minimizing total power such that every receiver decodes within the slot.

Under energy accumulation the constraint log(1 + sum_s p_s h_sr) >= theta
linearizes to sum_s p_s h_sr >= e^theta - 1: a covering LP, solved exactly
on the unit right-hand side by a dense simplex. Under mutual-information
accumulation the constraint sum_s log(1 + p_s h_sr) >= theta is concave; a
log-barrier method centres each path point loosely and an active-set polish,
which reads the active set off Tapia indicators, supplies the last digits.
The single-receiver case has a closed-form water-filling reference.

One scale rule: ``solve_slot``, the one entry point, rescales the gains so
the largest is one; every constant inside the kernels is relative to the
slot's own cost, to theta, or to each receiver's best gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, SolverConvergenceError
from .model import (Accumulation, EMPTY_ALLOCATION, Instance, PowerAllocation,
                    check_theta)

_LP_EPS = 1e-9           # simplex pivot tolerance, relative to each receiver
_LEX_EPS = 1e-12         # index-proportional cost perturbation: degenerate optima
                         # resolve toward the lexicographically smallest sender
_BARRIER_GAP = 1e-10     # duality-gap proxy target, relative to the objective scale
_BARRIER_MU = 10.0       # barrier parameter growth per outer iteration
_NEWTON_TOL = 5e-3       # centering stops at lambda^2 / 2 below this (lambda ~ 0.1)
_MAX_NEWTON = 200


@dataclass(frozen=True)
class SlotProblem:
    """One slot's allocation problem over an explicit gain sub-matrix.

    ``gains[i, j]`` is the channel gain from senders[i] to receivers[j].
    """

    senders: tuple[int, ...]
    receivers: tuple[int, ...]
    gains: np.ndarray
    theta: float
    accumulation: Accumulation

    def __post_init__(self):
        senders = tuple(int(s) for s in self.senders)
        receivers = tuple(int(r) for r in self.receivers)
        if set(senders) & set(receivers):
            raise ValueError("senders and receivers must be disjoint")
        gains = np.array(self.gains, dtype=float).reshape(len(senders), len(receivers))
        if np.any(gains < 0.0) or not np.all(np.isfinite(gains)):
            raise ValueError("slot gains must be nonnegative and finite")
        gains.setflags(write=False)
        object.__setattr__(self, "senders", senders)
        object.__setattr__(self, "receivers", receivers)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "theta", check_theta(self.theta))
        object.__setattr__(self, "accumulation", Accumulation(self.accumulation))

    @classmethod
    def from_instance(cls, instance: Instance, senders, receivers) -> "SlotProblem":
        senders = tuple(sorted(int(s) for s in senders))
        receivers = tuple(sorted(int(r) for r in receivers))
        sub = instance.gains[np.ix_(senders, receivers)] if senders and receivers \
            else np.zeros((len(senders), len(receivers)))
        return cls(senders=senders, receivers=receivers, gains=sub,
                   theta=instance.theta, accumulation=instance.accumulation)


def _check_reachable(problem: SlotProblem) -> None:
    if not problem.senders:
        raise InfeasibleError(
            f"receiver {problem.receivers[0]} has no candidate sender",
            receiver=problem.receivers[0])
    dead = np.flatnonzero(problem.gains.max(axis=0) <= 0.0)
    if dead.size:
        r = problem.receivers[int(dead[0])]
        raise InfeasibleError(
            f"receiver {r} has zero gain from every sender", receiver=r)


def solve_slot(problem: SlotProblem) -> PowerAllocation:
    """Optimal slot allocation; empty receiver set costs exactly zero.

    After the reachability check, the mode's kernel runs on gains rescaled
    so the largest is one and its powers scale back by the same factor; ea
    solves the unit covering LP and scales by e^theta - 1. This is the only
    place that knows a slot's scale.
    """
    if not problem.receivers:
        return EMPTY_ALLOCATION
    _check_reachable(problem)
    gamma = float(problem.gains.max())
    gains = problem.gains / gamma
    ea = problem.accumulation is Accumulation.EA
    q = _covering_lp(gains) if ea else _mia_barrier(gains, problem.theta)
    # an overflowed power is +inf on purpose: no finite schedule loses by skipping it
    with np.errstate(over="ignore"):
        p = (math.expm1(problem.theta) * q if ea else q) / gamma
    powers = {s: float(v) for s, v in zip(problem.senders, p) if v > 0.0}
    return PowerAllocation.from_powers(powers)


# ---------------------------------------------------------------------------
# Energy accumulation: covering LP.

def _covering_lp(gains: np.ndarray) -> np.ndarray:
    """Exact optimum of the unit covering LP  min 1'p  s.t.  gains' p >= 1, p >= 0.

    Solved through the dual packing LP  max 1'y  s.t.  gains y <= c, y >= 0,
    whose slack basis is immediately feasible, with each receiver's column
    divided by its largest gain so the pivot tolerance is relative to it.
    The primal optimum is read off the slack columns of the final objective
    row. Pivoting is Dantzig's rule, switching to Bland's rule permanently
    once the objective stalls, which rules out cycling.
    """
    ns, nr = gains.shape
    c = 1.0 + _LEX_EPS * np.arange(ns)
    top = gains.max(axis=0)
    tab = np.zeros((ns + 1, nr + ns + 1))
    tab[:ns, :nr] = gains / top
    tab[:ns, nr:nr + ns] = np.eye(ns)
    tab[:ns, -1] = c
    tab[ns, :nr] = -1.0 / top
    basis = np.arange(nr, nr + ns)

    max_pivots = 50 * (ns + nr) + 1000
    stall_limit = 3 * (ns + nr) + 10
    bland = False
    stall = 0
    best_obj = 0.0
    for _ in range(max_pivots):
        obj = tab[ns, :-1]
        if bland:
            eligible = np.flatnonzero(obj < -_LP_EPS)
            if eligible.size == 0:
                break
            enter = int(eligible[0])
        else:
            enter = int(np.argmin(obj))
            if obj[enter] >= -_LP_EPS:
                break
        col = tab[:ns, enter]
        rows = np.flatnonzero(col > _LP_EPS)
        if rows.size == 0:
            raise SolverConvergenceError("covering LP: dual unbounded",
                                         shape=gains.shape)
        ratios = tab[rows, -1] / col[rows]
        rmin = ratios.min()
        ties = rows[ratios == rmin]
        leave = int(ties[np.argmin(basis[ties])])  # Bland tie-break on the basis index
        tab[leave] /= tab[leave, enter]
        colvals = tab[:, enter].copy()
        colvals[leave] = 0.0
        tab -= np.outer(colvals, tab[leave])
        basis[leave] = enter
        objval = tab[ns, -1]
        if objval > best_obj + 1e-15 * (1.0 + abs(best_obj)):
            best_obj = objval
            stall = 0
        else:
            stall += 1
            if stall > stall_limit:
                bland = True
    else:
        raise SolverConvergenceError("covering LP: pivot cap exceeded",
                                     shape=gains.shape, pivots=max_pivots)

    return np.maximum(tab[ns, nr:nr + ns], 0.0)


# ---------------------------------------------------------------------------
# Mutual-information accumulation: log-barrier interior point.

def _mia_phase1(gains: np.ndarray, theta: float) -> np.ndarray:
    # cover each receiver through its single best sender, then back off
    # into the strict interior
    alpha = math.expm1(theta)
    ns, nr = gains.shape
    q = np.zeros(ns)
    best = np.argmax(gains, axis=0)
    for r in range(nr):
        q[best[r]] += alpha / gains[best[r], r]
    q *= 1.05
    q += 1e-6 * q.sum() / ns
    return q


def _mia_value(gains, theta, t, q):
    if np.any(q <= 0.0):
        return None
    u = np.log1p(q[:, None] * gains).sum(axis=0) - theta
    if np.any(u <= 0.0):
        return None
    return t * q.sum() - np.log(u).sum() - np.log(q).sum()


def _mia_center(gains: np.ndarray, theta: float, q: np.ndarray, t: float) -> np.ndarray:
    """Newton minimization of t * 1'q + barrier(q) from a strictly feasible q."""
    for _ in range(_MAX_NEWTON):
        x = q[:, None] * gains
        u = np.log1p(x).sum(axis=0) - theta
        d = gains / (1.0 + x)                     # d info_r / d q_s
        grad = t - d @ (1.0 / u) - 1.0 / q
        du = d / u[None, :]
        hess = du @ du.T
        diag = (d * du).sum(axis=1) + 1.0 / (q * q)
        hess[np.diag_indices_from(hess)] += diag
        try:
            dx = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            hess[np.diag_indices_from(hess)] += 1e-12 * (1.0 + diag)
            dx = np.linalg.solve(hess, -grad)
        lam2 = max(float(-grad @ dx), 0.0)
        if lam2 / 2.0 <= _NEWTON_TOL:
            return q
        f0 = t * q.sum() - np.log(u).sum() - np.log(q).sum()
        slope = float(grad @ dx)
        step = 1.0
        for _ in range(100):
            fn = _mia_value(gains, theta, t, q + step * dx)
            if fn is not None and fn <= f0 + 0.25 * step * slope:
                break
            step *= 0.5
        else:
            raise SolverConvergenceError("barrier line search failed",
                                         t=t, shape=gains.shape)
        q = q + step * dx
    raise SolverConvergenceError("barrier centering did not converge",
                                 t=t, shape=gains.shape, newton_cap=_MAX_NEWTON)


def _polish_newton(gains: np.ndarray, theta: float,
                   support: np.ndarray, active: np.ndarray,
                   p0: np.ndarray, nu0: np.ndarray) -> np.ndarray | None:
    """Newton on the reduced KKT system for a fixed active set.

    Unknowns are the supported powers p and the multipliers nu of the
    binding receivers; the equations are stationarity 1 = sum_r nu_r
    g_sr / (1 + p_s g_sr) per supported sender and equality of the binding
    information constraints. Returns the converged powers, or ``None`` when
    the iteration stalls or the system is singular (a sign the active-set
    guess was wrong).
    """
    ga = gains[np.ix_(support, active)]
    ns, na = ga.shape
    p, nu = p0.copy(), nu0.copy()
    best_res, best_p = math.inf, None
    for _ in range(30):
        x = p[:, None] * ga
        d = ga / (1.0 + x)
        f1 = 1.0 - d @ nu
        f2 = np.log1p(x).sum(axis=0) - theta
        res = max(float(np.abs(f1).max()), float(np.abs(f2).max()) / theta)
        if res < best_res:
            best_res, best_p = res, p.copy()
        if res <= 1e-14:
            break
        jac = np.zeros((ns + na, ns + na))
        jac[:ns, :ns] = np.diag((d * d * nu[None, :]).sum(axis=1))
        jac[:ns, ns:] = -d
        jac[ns:, :ns] = d.T
        try:
            step = np.linalg.solve(jac, -np.concatenate([f1, f2]))
        except np.linalg.LinAlgError:
            return None
        dp, dnu = step[:ns], step[ns:]
        # stay strictly inside the positive orthant
        limit = 1.0
        for v, dv in ((p, dp), (nu, dnu)):
            neg = dv < 0.0
            if np.any(neg):
                limit = min(limit, float(np.min(-0.99 * v[neg] / dv[neg])))
        p = p + limit * dp
        nu = nu + limit * dnu
    # quadratic convergence normally lands well under 1e-14 in a few steps;
    # accept the best iterate when only float noise in the residual is left
    if best_res > 1e-12:
        return None
    return best_p


def _mia_polish(gains: np.ndarray, theta: float, q: np.ndarray,
                q_prev: np.ndarray, t: float) -> np.ndarray:
    """Active-set crossover: sharpen the final interior point to the exact
    optimum.

    The barrier leaves a duality gap of ~1e-10 relative to the cost.
    ``q`` and ``q_prev`` are the last two centres, a tenfold rise of t
    apart; Tapia indicators read the active set off how they move. An idle
    power and a binding slack shrink tenfold with t (they equal 1 / (t
    reduced cost) and 1 / (t multiplier)), while a support power and a free
    slack stay put, so a factor sqrt(10) splits them at any scale. Newton on
    the reduced KKT system then converges quadratically to machine
    precision. Any failure - wrong active set, singular system, lost
    feasibility, higher cost - falls back to the unpolished point.
    """
    split = math.sqrt(_BARRIER_MU)
    slack = np.log1p(q[:, None] * gains).sum(axis=0) - theta
    slack_prev = np.log1p(q_prev[:, None] * gains).sum(axis=0) - theta
    active = np.flatnonzero(slack <= slack_prev / split)
    support = np.flatnonzero(q >= q_prev / split)
    if active.size == 0 or support.size < active.size:
        return q
    nu0 = 1.0 / (t * slack[active])   # centres are strictly feasible: slack > 0
    p = _polish_newton(gains, theta, support, active, q[support], nu0)
    if p is None:
        return q

    refined = np.zeros_like(q)
    refined[support] = p
    slack = np.log1p(refined[:, None] * gains).sum(axis=0) - theta
    if float(slack.min()) < -1e-10 * theta:
        return q
    if float(refined.sum()) > float(q.sum()) * (1.0 + 1e-9):
        return q
    return refined


def _mia_barrier(gains: np.ndarray, theta: float) -> np.ndarray:
    """Mutual-information optimum over gains whose largest entry is one.

    The barrier parameter t starts at m / C for the phase-1 cost C and grows
    tenfold per outer iteration, each step centred only to lambda ~ 0.1,
    until the duality-gap proxy m/t is below 1e-10 of the cost; the polish
    then supplies the last digits. A float overflow or invalid operation
    means theta has left the float range: it is a convergence failure,
    never an answer.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            q = _mia_phase1(gains, theta)
            m = gains.shape[0] + gains.shape[1]
            t = m / float(q.sum())
            # No cap is needed: every centre is strictly feasible, and with
            # gains <= 1 each receiver then needs sum_s log1p(q_s) >= theta,
            # so by concavity every centre costs at least
            # ns * expm1(theta / ns) > 0 while m / t falls tenfold per step.
            while True:
                q_prev, q = q, _mia_center(gains, theta, q, t)
                if m / t < _BARRIER_GAP * float(q.sum()):
                    break
                t *= _BARRIER_MU
            q = _mia_polish(gains, theta, q, q_prev, t)
    except FloatingPointError as exc:
        raise SolverConvergenceError(f"barrier left the float range: {exc}",
                                     theta=theta, shape=gains.shape) from exc
    # senders whose best-case contribution is below 1e-12 of theta are idle
    return np.where(q * gains.max(axis=1) < 1e-12 * theta, 0.0, q)


# ---------------------------------------------------------------------------
# Single-receiver mutual-information optimum in closed form.

def waterfill_single_receiver(gains, theta: float) -> PowerAllocation:
    """Water-filling optimum of  min 1'p  s.t.  sum_s log(1 + p_s h_s) = theta.

    Powers are keyed by position in ``gains``. The KKT conditions give
    p_s = lambda - 1/h_s on the active set; the water level lambda is
    solved in closed form per candidate active set, taking the largest
    set whose worst channel still clears the water. Each power is formed
    as expm1(log(lambda h_s)) / h_s from gain ratios, so it keeps full
    relative precision however small theta is.
    """
    g = np.asarray(gains, dtype=float)
    theta = check_theta(theta)
    if g.ndim != 1:
        raise ValueError("gains must be a flat sequence")
    if np.any(g < 0.0) or not np.all(np.isfinite(g)):
        raise ValueError("gains must be nonnegative and finite")
    alive = np.flatnonzero(g > 0.0)
    if alive.size == 0:
        raise InfeasibleError("every channel gain is zero", receiver=None)
    order = alive[np.argsort(-g[alive], kind="stable")]
    logs = np.log(g[order])
    cum = np.cumsum(logs)
    m = 1
    for k in range(2, order.size + 1):
        if (theta - cum[k - 1]) / k + logs[k - 1] > 0.0:   # lambda * h_k > 1, so p_k > 0
            m = k
    active = order[:m]
    p = np.maximum(np.expm1((theta - (cum[m - 1] - m * logs[:m])) / m) / g[active], 0.0)
    powers = {int(i): float(v) for i, v in zip(active, p) if v > 0.0}
    return PowerAllocation.from_powers(powers)
