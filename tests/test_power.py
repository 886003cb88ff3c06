"""Single-slot allocators: covering LP, log-barrier, water-filling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dmect import (Accumulation, InfeasibleError, Instance, SlotProblem,
                   SolverConvergenceError, ea_vertex_optimum, solve_slot,
                   waterfill_single_receiver)

LN2 = math.log(2.0)


def slot(gains, theta, accumulation) -> SlotProblem:
    g = np.atleast_2d(np.asarray(gains, dtype=float))
    ns, nr = g.shape
    return SlotProblem(senders=tuple(range(ns)),
                       receivers=tuple(range(ns, ns + nr)),
                       gains=g, theta=theta, accumulation=accumulation)


def info(problem: SlotProblem, alloc) -> np.ndarray:
    """Per-receiver accumulated information under the allocation."""
    p = np.array([alloc.powers.get(s, 0.0) for s in problem.senders])
    x = p[:, None] * problem.gains
    if problem.accumulation is Accumulation.EA:
        return np.log1p(x.sum(axis=0))
    return np.log1p(x).sum(axis=0)


# ---------------------------------------------------------------------------
# Energy accumulation

def test_ea_single_link_threshold_power():
    # log(1 + p*2) >= ln 2  =>  p = (e^ln2 - 1) / 2 = 0.5
    alloc = solve_slot(slot([[2.0]], LN2, Accumulation.EA))
    assert alloc.cost == pytest.approx(0.5, abs=1e-10)
    assert alloc.powers == pytest.approx({0: 0.5})


def test_ea_single_receiver_rides_the_best_gain():
    alloc = solve_slot(slot([[1.0], [2.0]], LN2, Accumulation.EA))
    assert alloc.cost == pytest.approx(0.5, abs=1e-10)
    assert set(alloc.powers) == {1}


def test_ea_equal_gains_pick_the_smallest_sender():
    # degenerate optimum: the index-proportional perturbation must break
    # the tie deterministically toward sender 0
    alloc = solve_slot(slot([[1.0], [1.0]], LN2, Accumulation.EA))
    assert alloc.cost == pytest.approx(1.0, abs=1e-9)
    assert set(alloc.powers) == {0}


def test_ea_two_receivers_share_one_transmission():
    # one sender reaching both receivers pays only for the weaker link
    alloc = solve_slot(slot([[1.0, 0.5]], LN2, Accumulation.EA))
    assert alloc.cost == pytest.approx(2.0, abs=1e-10)


def test_ea_matches_vertex_enumeration_on_random_slots():
    rng = np.random.default_rng(31)
    for _ in range(60):
        ns, nr = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = rng.uniform(0.05, 4.0, size=(ns, nr))
        theta = float(rng.uniform(0.2, 2.0))
        got = solve_slot(slot(g, theta, Accumulation.EA)).cost
        _, want = ea_vertex_optimum(g, theta)
        assert got == pytest.approx(want, abs=1e-8)


def test_ea_solution_is_feasible_with_small_support():
    rng = np.random.default_rng(5)
    for _ in range(40):
        ns, nr = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        g = rng.uniform(0.05, 4.0, size=(ns, nr))
        problem = slot(g, LN2, Accumulation.EA)
        alloc = solve_slot(problem)
        assert np.all(info(problem, alloc) >= problem.theta - 1e-9)
        # a vertex of the covering polyhedron has at most nr positive entries
        assert len(alloc.powers) <= nr


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=3),
                  elements=st.floats(0.1, 5.0)),
       st.floats(0.1, 2.5))
def test_ea_lp_equals_vertex_oracle(gains, theta):
    got = solve_slot(slot(gains, theta, Accumulation.EA)).cost
    _, want = ea_vertex_optimum(gains, theta)
    assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("theta", [1e-12, 1e-8, 30.0, 300.0])
def test_ea_matches_vertex_enumeration_across_theta(theta):
    rng = np.random.default_rng(37)
    for _ in range(30):
        ns, nr = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = rng.uniform(0.05, 4.0, size=(ns, nr))
        got = solve_slot(slot(g, theta, Accumulation.EA)).cost
        _, want = ea_vertex_optimum(g, theta)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("theta", [1e-12, 1e-8, 1e-4, 30.0, 300.0, 700.0])
def test_ea_cost_is_alpha_times_the_unit_cost(theta):
    # the covering LP is linear in its right-hand side e^theta - 1
    rng = np.random.default_rng(43)
    for _ in range(30):
        ns, nr = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = rng.uniform(0.05, 4.0, size=(ns, nr))
        unit = solve_slot(slot(g, LN2, Accumulation.EA)).cost
        got = solve_slot(slot(g, theta, Accumulation.EA)).cost
        assert got == pytest.approx(math.expm1(theta) * unit, rel=1e-12)


# ---------------------------------------------------------------------------
# Mutual-information accumulation

def test_mia_two_equal_senders_split_evenly():
    # (1+p0)(1+p1) >= 4 at minimum p0+p1 gives p0 = p1 = 1
    alloc = solve_slot(slot([[1.0], [1.0]], 2 * LN2, Accumulation.MIA))
    assert alloc.cost == pytest.approx(2.0, abs=1e-8)
    assert alloc.powers[0] == pytest.approx(1.0, abs=1e-6)
    assert alloc.powers[1] == pytest.approx(1.0, abs=1e-6)


def test_mia_matches_waterfilling_on_single_receiver_slots():
    rng = np.random.default_rng(77)
    for _ in range(50):
        k = int(rng.integers(1, 7))
        g = rng.uniform(0.05, 5.0, size=k)
        theta = float(rng.uniform(0.2, 3.0))
        got = solve_slot(slot(g.reshape(k, 1), theta, Accumulation.MIA)).cost
        want = waterfill_single_receiver(g, theta).cost
        assert got == pytest.approx(want, rel=1e-8, abs=1e-9)


@pytest.mark.parametrize("theta", [1e-12, 1e-6, 100.0, 150.0, 200.0, 300.0])
def test_mia_matches_waterfilling_across_theta(theta):
    rng = np.random.default_rng(79)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        g = rng.uniform(0.05, 5.0, size=k)
        got = solve_slot(slot(g.reshape(k, 1), theta, Accumulation.MIA)).cost
        want = waterfill_single_receiver(g, theta).cost
        assert got == pytest.approx(want, rel=1e-12)


def test_mia_beyond_the_float_range_raises():
    # at theta = 700 the barrier's powers overflow; an answer would be wrong
    rng = np.random.default_rng(83)
    for _ in range(5):
        ns, nr = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = rng.uniform(0.05, 4.0, size=(ns, nr))
        with pytest.raises(SolverConvergenceError):
            solve_slot(slot(g, 700.0, Accumulation.MIA))


def test_mia_far_from_phase1_still_converges():
    # at theta = 200 the phase-1 start lies ~e^100 above the optimum, more
    # than a fixed cap of tenfold barrier steps could close
    g = np.array([2.0, 1.0, 0.5])
    got = solve_slot(slot(g[:, None], 200.0, Accumulation.MIA)).cost
    want = waterfill_single_receiver(g, 200.0).cost
    assert got == pytest.approx(want, rel=1e-9)


def test_mia_multi_receiver_feasible_and_never_above_ea():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ns, nr = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        g = rng.uniform(0.05, 4.0, size=(ns, nr))
        theta = float(rng.uniform(0.2, 2.0))
        mia_problem = slot(g, theta, Accumulation.MIA)
        mia = solve_slot(mia_problem)
        ea = solve_slot(slot(g, theta, Accumulation.EA))
        assert np.all(info(mia_problem, mia) >= theta - 1e-7)
        assert mia.cost <= ea.cost + 1e-8


def test_mia_multi_receiver_meets_the_kkt_conditions():
    # optimality certificate independent of the solver: multipliers of the
    # binding receivers, fitted by least squares on the support, must be
    # nonnegative and make the reduced cost 1 - sum_r nu_r g_sr / (1 + p_s g_sr)
    # vanish on the support and stay nonnegative off it
    rng = np.random.default_rng(41)
    for _ in range(200):
        ns, nr = int(rng.integers(1, 7)), int(rng.integers(2, 7))
        g = rng.uniform(0.05, 4.0, size=(ns, nr))
        theta = float(rng.uniform(0.2, 3.0))
        problem = slot(g, theta, Accumulation.MIA)
        alloc = solve_slot(problem)
        p = np.array([alloc.powers.get(s, 0.0) for s in problem.senders])
        slack = info(problem, alloc) - theta
        assert slack.min() >= -1e-9
        binding = slack <= 1e-9 * max(1.0, theta)
        support = p > 0.0
        d = g / (1.0 + p[:, None] * g)
        nu = np.linalg.lstsq(d[np.ix_(support, binding)],
                             np.ones(int(support.sum())), rcond=None)[0]
        assert nu.min() >= -1e-9
        reduced = 1.0 - d[:, binding] @ nu
        assert np.abs(reduced[support]).max() <= 1e-9
        assert np.all(reduced[~support] >= -1e-9)


@pytest.mark.parametrize("theta", [1e-12, 1e-8, 1e-4, 30.0, 100.0])
def test_mia_meets_the_kkt_conditions_across_theta(theta):
    # the same certificate with every tolerance relative to theta or to the
    # multipliers' own size
    rng = np.random.default_rng(47)
    for _ in range(60):
        ns, nr = int(rng.integers(1, 7)), int(rng.integers(2, 7))
        g = rng.uniform(0.05, 4.0, size=(ns, nr))
        problem = slot(g, theta, Accumulation.MIA)
        alloc = solve_slot(problem)
        p = np.array([alloc.powers.get(s, 0.0) for s in problem.senders])
        slack = info(problem, alloc) - theta
        assert slack.min() >= -1e-9 * theta
        binding = slack <= 1e-9 * theta
        support = p > 0.0
        d = g / (1.0 + p[:, None] * g)
        nu = np.linalg.lstsq(d[np.ix_(support, binding)],
                             np.ones(int(support.sum())), rcond=None)[0]
        assert nu.min() >= -1e-9 * nu.max()
        reduced = 1.0 - d[:, binding] @ nu
        assert np.abs(reduced[support]).max() <= 1e-9
        assert np.all(reduced[~support] >= -1e-9)


# ---------------------------------------------------------------------------
# Water-filling closed form

def test_waterfill_known_values():
    assert waterfill_single_receiver([1.0], 2 * LN2).cost == pytest.approx(3.0)
    even = waterfill_single_receiver([1.0, 1.0], 2 * LN2)
    assert even.powers == pytest.approx({0: 1.0, 1: 1.0})
    # weak channel stays dry: lambda = 0.5 < 1/h_1 = 1
    lopsided = waterfill_single_receiver([4.0, 1.0], LN2)
    assert lopsided.powers == pytest.approx({0: 0.25})


def test_waterfill_meets_the_threshold_exactly():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = rng.uniform(0.01, 10.0, size=int(rng.integers(1, 8)))
        theta = float(rng.uniform(0.1, 4.0))
        alloc = waterfill_single_receiver(g, theta)
        total = sum(math.log1p(p * g[s]) for s, p in alloc.powers.items())
        assert total == pytest.approx(theta, rel=1e-10, abs=1e-12)


def test_waterfill_skips_zero_gain_channels():
    alloc = waterfill_single_receiver([0.0, 1.0], LN2)
    assert set(alloc.powers) == {1}


def test_waterfill_input_validation():
    with pytest.raises(ValueError, match="flat"):
        waterfill_single_receiver([[1.0]], 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        waterfill_single_receiver([-1.0], 1.0)
    for theta in (0.0, 800.0):   # 800 overflows e^theta - 1
        with pytest.raises(ValueError, match="positive"):
            waterfill_single_receiver([1.0], theta)
    with pytest.raises(InfeasibleError):
        waterfill_single_receiver([0.0, 0.0], 1.0)


# ---------------------------------------------------------------------------
# Properties shared by both modes

@pytest.mark.parametrize("accumulation", [Accumulation.EA, Accumulation.MIA])
def test_cost_scales_inversely_with_gains(accumulation):
    rng = np.random.default_rng(13)
    for c in (0.1, 10.0, 1e-300, 1e300):
        for _ in range(10):
            ns, nr = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            g = rng.uniform(0.1, 3.0, size=(ns, nr))
            base = solve_slot(slot(g, LN2, accumulation)).cost
            scaled = solve_slot(slot(c * g, LN2, accumulation)).cost
            assert scaled == pytest.approx(base / c, rel=1e-7)


@pytest.mark.parametrize("accumulation", [Accumulation.EA, Accumulation.MIA])
def test_weak_receiver_is_covered_at_its_own_scale(accumulation):
    # the second receiver's only gain is 1e-10 of the slot's largest; it must
    # be served, not lost below an absolute pivot tolerance
    alloc = solve_slot(slot([[1.0, 0.0], [0.0, 1e-10]], 0.7, accumulation))
    assert alloc.cost == pytest.approx(math.expm1(0.7) * (1.0 + 1e10), rel=1e-12)


@pytest.mark.parametrize("accumulation", [Accumulation.EA, Accumulation.MIA])
def test_extra_sender_never_hurts(accumulation):
    rng = np.random.default_rng(29)
    for _ in range(15):
        ns, nr = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        g = rng.uniform(0.1, 3.0, size=(ns + 1, nr))
        small = solve_slot(slot(g[:ns], LN2, accumulation)).cost
        big = solve_slot(slot(g, LN2, accumulation)).cost
        assert big <= small + 1e-8


def test_empty_receiver_set_costs_nothing():
    problem = SlotProblem(senders=(0,), receivers=(), gains=np.zeros((1, 0)),
                          theta=1.0, accumulation=Accumulation.EA)
    assert solve_slot(problem).cost == 0.0


@pytest.mark.parametrize("accumulation", [Accumulation.EA, Accumulation.MIA])
def test_unreachable_receiver_is_reported(accumulation):
    g = np.array([[1.0, 0.0], [2.0, 0.0]])
    problem = SlotProblem(senders=(0, 1), receivers=(7, 9), gains=g,
                          theta=1.0, accumulation=accumulation)
    with pytest.raises(InfeasibleError) as exc:
        solve_slot(problem)
    assert exc.value.receiver == 9


def test_no_sender_at_all_is_infeasible():
    problem = SlotProblem(senders=(), receivers=(3,), gains=np.zeros((0, 1)),
                          theta=1.0, accumulation=Accumulation.EA)
    with pytest.raises(InfeasibleError) as exc:
        solve_slot(problem)
    assert exc.value.receiver == 3


def test_slot_problem_rejects_sender_receiver_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        SlotProblem(senders=(0, 1), receivers=(1,), gains=np.ones((2, 1)),
                    theta=1.0, accumulation=Accumulation.EA)


@pytest.mark.parametrize("theta", [0.0, 800.0])
def test_slot_problem_rejects_bad_theta(theta):
    # 800 overflows e^theta - 1
    with pytest.raises(ValueError, match="positive"):
        SlotProblem(senders=(0,), receivers=(1,), gains=np.ones((1, 1)),
                    theta=theta, accumulation=Accumulation.EA)


def test_slot_problem_from_instance_slices_the_gain_matrix(line3):
    problem = SlotProblem.from_instance(line3, {1, 0}, {2})
    assert problem.senders == (0, 1)
    assert problem.receivers == (2,)
    np.testing.assert_array_equal(problem.gains, [[0.1], [1.0]])
    assert problem.theta == line3.theta


def test_solve_slot_dispatches_on_accumulation(line3):
    ea_problem = SlotProblem.from_instance(line3, {0}, {1, 2})
    assert solve_slot(ea_problem).cost == pytest.approx(10.0, abs=1e-8)
    mia_problem = SlotProblem(senders=(0,), receivers=(1, 2),
                              gains=np.array([[1.0, 0.1]]), theta=LN2,
                              accumulation=Accumulation.MIA)
    assert solve_slot(mia_problem).cost == pytest.approx(10.0, rel=1e-8)
