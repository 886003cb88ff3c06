"""Domain types: validation, information accounting, schedule verification, JSON."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmect import (Accumulation, Instance, Ordering, Schedule, Slot,
                   accumulated_info, broadcast_destinations, instance_from_dict,
                   instance_to_dict, load_instance, save_instance,
                   schedule_from_dict, schedule_to_dict, verify_schedule)
from conftest import line3_gains


# ---------------------------------------------------------------------------
# Instance validation

def test_instance_rejects_too_few_nodes():
    with pytest.raises(ValueError, match="at least 2"):
        Instance(n=1, gains=np.zeros((1, 1)), source=0,
                 destinations=frozenset({0}), theta=1.0)


@pytest.mark.parametrize("mutate, match", [
    (lambda g: g + np.triu(np.ones_like(g), 1) * 0.5, "symmetric"),
    (lambda g: g + np.eye(3), "diagonal"),
    (lambda g: -g, "nonnegative"),
    (lambda g: np.where(g == 0.1, np.inf, g), "finite"),
])
def test_instance_rejects_bad_gain_matrices(mutate, match):
    with pytest.raises(ValueError, match=match):
        Instance(n=3, gains=mutate(line3_gains()), source=0,
                 destinations=frozenset({1}), theta=1.0)


def test_instance_rejects_bad_task_fields():
    g = line3_gains()
    with pytest.raises(ValueError, match="source"):
        Instance(n=3, gains=g, source=5, destinations=frozenset({1}), theta=1.0)
    with pytest.raises(ValueError, match="nonempty"):
        Instance(n=3, gains=g, source=0, destinations=frozenset(), theta=1.0)
    with pytest.raises(ValueError, match="source cannot"):
        Instance(n=3, gains=g, source=0, destinations=frozenset({0, 1}), theta=1.0)
    for theta in (0.0, 800.0):   # 800 overflows e^theta - 1
        with pytest.raises(ValueError, match="theta"):
            Instance(n=3, gains=g, source=0, destinations=frozenset({1}),
                     theta=theta)


def test_instance_gains_are_frozen(line3):
    with pytest.raises(ValueError):
        line3.gains[0, 1] = 2.0


def test_broadcast_destinations():
    assert broadcast_destinations(4, 2) == frozenset({0, 1, 3})


def test_ordering_position_and_validation():
    o = Ordering(order=(2, 0, 1))
    assert o.position == {2: 0, 0: 1, 1: 2}
    with pytest.raises(ValueError, match="permutation"):
        Ordering(order=(0, 0, 1))


# ---------------------------------------------------------------------------
# Information accounting

def test_accumulated_info_modes(line3, line3_mia):
    powers = {0: 3.0, 1: 1.0}
    # EA adds SNRs first: log(1 + 3*0.1 + 1*1)
    ea = accumulated_info({0, 1}, powers, 2, line3)
    assert ea == pytest.approx(math.log(2.3), abs=1e-12)
    # MIA adds the logs: log(1.3) + log(2)
    mia = accumulated_info({0, 1}, powers, 2, line3_mia)
    assert mia == pytest.approx(math.log(1.3) + math.log(2.0), abs=1e-12)


def test_accumulated_info_missing_power_means_idle(line3):
    assert accumulated_info({0, 1}, {1: 1.0}, 2, line3) == pytest.approx(math.log(2.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 50.0), min_size=2, max_size=5),
       st.lists(st.floats(0.0, 10.0), min_size=2, max_size=5))
def test_per_sender_accumulation_never_loses_information(powers, gains):
    # log(1+a) + log(1+b) >= log(1+a+b): splitting the sum across senders
    # can only help, which is why mutual-information accumulation dominates
    k = min(len(powers), len(gains))
    powers, gains = powers[:k], gains[:k]
    n = k + 1
    g = np.zeros((n, n))
    for s in range(k):
        g[s, k] = g[k, s] = gains[s]
    base = dict(n=n, gains=g, source=0,
                destinations=frozenset({k}) if k != 0 else frozenset({1}),
                theta=1.0)
    ea_inst = Instance(**base, accumulation=Accumulation.EA)
    mia_inst = Instance(**base, accumulation=Accumulation.MIA)
    p = {s: powers[s] for s in range(k)}
    senders = set(range(k))
    ea = accumulated_info(senders, p, k, ea_inst)
    mia = accumulated_info(senders, p, k, mia_inst)
    assert mia >= ea - 1e-12


# ---------------------------------------------------------------------------
# Schedule verification

def good_line3_schedule() -> Schedule:
    return Schedule(slots=(
        Slot(senders={0}, receivers={1}, powers={0: 1.0}),
        Slot(senders={1}, receivers={2}, powers={1: 1.0}),
    ))


def test_verify_accepts_feasible_schedule(line3):
    verdict = verify_schedule(line3, good_line3_schedule())
    assert verdict
    assert verdict.kind is None
    assert good_line3_schedule().cost == pytest.approx(2.0)


@pytest.mark.parametrize("slots, kind, slot_no, node", [
    # negative power
    ((Slot(senders={0}, receivers={1}, powers={0: -1.0}),), "power", 1, 0),
    # power assigned to a non-sender
    ((Slot(senders={0}, receivers={1}, powers={0: 1.0, 2: 1.0}),), "power", 1, 2),
    # node 1 sends and receives at once
    ((Slot(senders={0, 1}, receivers={1}, powers={0: 1.0}),), "half_duplex", 1, 1),
    # node 1 transmits before it ever decodes
    ((Slot(senders={1}, receivers={2}, powers={1: 1.0}),), "eligibility", 1, 1),
    # node 1 decodes twice
    ((Slot(senders={0}, receivers={1}, powers={0: 1.0}),
      Slot(senders={0}, receivers={1}, powers={0: 1.0}),), "redecode", 2, 1),
    # not enough power to clear theta
    ((Slot(senders={0}, receivers={1}, powers={0: 0.5}),), "decoding", 1, 1),
    # destination 2 never covered
    ((Slot(senders={0}, receivers={1}, powers={0: 1.0}),), "coverage", 1, 2),
])
def test_verify_reports_first_violation(line3, slots, kind, slot_no, node):
    verdict = verify_schedule(line3, Schedule(slots=slots))
    assert not verdict
    assert verdict.kind == kind
    assert verdict.slot == slot_no
    assert verdict.node == node
    assert verdict.message


def test_verify_tolerance_is_respected(line3):
    slots = (Slot(senders={0}, receivers={1, 2}, powers={0: 10.0 * (1 - 1e-9)}),)
    assert verify_schedule(line3, Schedule(slots=slots))
    assert not verify_schedule(line3, Schedule(slots=slots), tolerance=1e-12)


def test_verify_tolerance_is_relative_to_theta(line3):
    # at a tiny theta an absolute tolerance would accept a silent slot
    inst = dataclasses.replace(line3, theta=1e-10)
    slots = (Slot(senders={0}, receivers={1, 2}, powers={0: 0.0}),)
    verdict = verify_schedule(inst, Schedule(slots=slots))
    assert verdict.kind == "decoding"


def test_verify_empty_schedule_fails_coverage(line3):
    verdict = verify_schedule(line3, Schedule(slots=()))
    assert verdict.kind == "coverage"


# ---------------------------------------------------------------------------
# JSON round-trips

def test_instance_json_roundtrip(line3):
    inst = dataclasses.replace(line3, positions=np.array([[0.0, 1.0]] * 3))
    d = json.loads(json.dumps(instance_to_dict(inst)))
    back = instance_from_dict(d)
    assert back.n == inst.n
    assert back.source == inst.source
    assert back.destinations == inst.destinations
    assert back.theta == inst.theta
    assert back.accumulation is inst.accumulation
    np.testing.assert_array_equal(back.gains, inst.gains)
    np.testing.assert_array_equal(back.positions, inst.positions)


def test_instance_from_dict_reports_missing_fields():
    with pytest.raises(ValueError, match="missing fields.*theta"):
        instance_from_dict({"n": 2, "source": 0, "destinations": [1],
                            "accumulation": "ea", "gains": [[0, 1], [1, 0]]})


def test_schedule_json_roundtrip():
    sched = good_line3_schedule()
    back = schedule_from_dict(json.loads(json.dumps(schedule_to_dict(sched))))
    assert back == sched


def test_instance_file_roundtrip(tmp_path, line3):
    path = tmp_path / "inst.json"
    save_instance(line3, path)
    back = load_instance(path)
    np.testing.assert_array_equal(back.gains, line3.gains)
    assert back.destinations == line3.destinations
