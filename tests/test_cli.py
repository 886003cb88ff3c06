"""Command-line contract: schemas, exit codes, deterministic artifacts."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import dmect.baseline
import dmect.schedule
from dmect import (SolverConvergenceError, instance_from_dict, instance_to_dict,
                   load_instance, save_instance, schedule_from_dict, unicast_ea,
                   verify_schedule)
from dmect.cli import main
from conftest import topo


def run(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def inst_file(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(topo(8, seed=3), path)
    return str(path)


# ---------------------------------------------------------------------------
# gen

def test_gen_writes_a_valid_instance(capsys, tmp_path):
    out = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen", "--n", "30", "--eta", "2", "--seed", "7",
                     "--out", str(out))
    assert code == 0
    inst = instance_from_dict(json.loads(out.read_text()))
    assert inst.n == 30
    assert inst.source == 0
    assert inst.destinations == frozenset(range(1, 30))
    assert inst.theta == math.log(2.0)  # documented default
    assert inst.positions is not None


def test_gen_stdout_and_determinism(capsys):
    code, out1, _ = run(capsys, "gen", "--n", "5", "--seed", "11")
    code2, out2, _ = run(capsys, "gen", "--n", "5", "--seed", "11")
    assert code == code2 == 0
    assert out1 == out2


def test_gen_rejects_tiny_networks(capsys):
    code, _, err = run(capsys, "gen", "--n", "1", "--seed", "0")
    assert code == 3
    assert "n >= 2" in err


@pytest.mark.parametrize("field", ["--width", "--height", "--eta"])
def test_gen_rejects_non_finite_fields(capsys, tmp_path, field):
    out = tmp_path / "g.json"
    code, _, err = run(capsys, "gen", "--n", "5", "--seed", "1", field, "inf",
                       "--out", str(out))
    assert code == 3
    assert "finite" in err and "Traceback" not in err
    assert not out.exists()


def test_gen_out_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DMECT_OUT_DIR", str(tmp_path / "artifacts"))
    code, _, _ = run(capsys, "gen", "--n", "4", "--seed", "2", "--out", "a/b.json")
    assert code == 0
    assert (tmp_path / "artifacts" / "a" / "b.json").exists()


# ---------------------------------------------------------------------------
# solve

def test_solve_broadcast_roundtrip(capsys, inst_file):
    code, out, err = run(capsys, "solve", inst_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "broadcast"
    assert payload["T"] == 7
    assert payload["cost"] > 0.0
    assert payload["slots_used"] <= payload["T"]
    schedule = schedule_from_dict(payload["schedule"])
    inst = load_instance(inst_file)
    assert verify_schedule(inst, schedule)
    assert schedule.cost == pytest.approx(payload["cost"], rel=1e-9)
    assert "feasible" in err


def test_solve_accum_override_dominance(capsys, inst_file):
    _, out_ea, _ = run(capsys, "solve", inst_file, "--accum", "ea", "--t", "3")
    _, out_mia, _ = run(capsys, "solve", inst_file, "--accum", "mia", "--t", "3")
    assert json.loads(out_mia)["cost"] <= json.loads(out_ea)["cost"] + 1e-8


def test_solve_noncoop_never_cheaper(capsys, inst_file):
    _, coop, _ = run(capsys, "solve", inst_file, "--t", "4")
    _, base, _ = run(capsys, "solve", inst_file, "--t", "4", "--solver", "noncoop")
    assert json.loads(base)["cost"] >= json.loads(coop)["cost"] - 1e-9


def test_solve_unicast_matches_library(capsys, inst_file):
    code, out, _ = run(capsys, "solve", inst_file, "--mode", "unicast",
                       "--dest", "5", "--t", "4")
    assert code == 0
    inst = load_instance(inst_file)
    inst = dataclasses.replace(inst, destinations=frozenset({5}))
    want = unicast_ea(inst, 5, 4).cost
    assert json.loads(out)["cost"] == pytest.approx(want, rel=1e-12)


def test_solve_unicast_mia_needs_explicit_heuristic(capsys, inst_file):
    code, _, err = run(capsys, "solve", inst_file, "--mode", "unicast",
                       "--dest", "5", "--accum", "mia")
    assert code == 3
    assert "NP-complete" in err
    code2, out, _ = run(capsys, "solve", inst_file, "--mode", "unicast",
                        "--dest", "5", "--accum", "mia", "--heuristic")
    assert code2 == 0
    assert json.loads(out)["cost"] > 0.0


def test_solve_multicast_subset(capsys, inst_file):
    code, out, _ = run(capsys, "solve", inst_file, "--mode", "multicast",
                       "--dest", "2,4", "--t", "3")
    assert code == 0
    payload = json.loads(out)
    inst = dataclasses.replace(load_instance(inst_file),
                               destinations=frozenset({2, 4}))
    assert verify_schedule(inst, schedule_from_dict(payload["schedule"]))


def test_solve_ordering_file(capsys, inst_file, tmp_path):
    path = tmp_path / "order.json"
    path.write_text(json.dumps([0, 7, 6, 5, 4, 3, 2, 1]))
    code, out, _ = run(capsys, "solve", inst_file, "--ordering", f"file:{path}")
    assert code == 0
    assert json.loads(out)["ordering"] == [0, 7, 6, 5, 4, 3, 2, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 0, 2, 3, 4, 5, 6, 7]))
    code2, _, err = run(capsys, "solve", inst_file, "--ordering", f"file:{bad}")
    assert code2 == 3
    assert "source" in err


def test_solve_disconnected_is_exit_2(capsys, tmp_path):
    g = np.zeros((3, 3))
    g[0, 1] = g[1, 0] = 1.0
    from dmect import Instance
    inst = Instance(n=3, gains=g, source=0, destinations=frozenset({1, 2}),
                    theta=math.log(2.0))
    path = tmp_path / "disc.json"
    save_instance(inst, path)
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "infeasible" in err


@pytest.fixture
def cut_line_file(tmp_path, line3):
    # 0 -- 1 -- 2 with the 0-2 link cut: node 2 needs two slots
    g = line3.gains.copy()
    g[0, 2] = g[2, 0] = 0.0
    path = tmp_path / "cut.json"
    save_instance(dataclasses.replace(line3, gains=g), path)
    return str(path)


@pytest.mark.parametrize("ordering", ["dijkstra", "gain", "brute"])
def test_solve_beyond_the_deadline_is_exit_2(capsys, cut_line_file, ordering):
    code, out, err = run(capsys, "solve", cut_line_file, "--t", "1",
                         "--ordering", ordering)
    assert code == 2
    assert out == ""
    assert err.startswith("infeasible:") and "Traceback" not in err


def test_solve_theta_overflow_is_exit_3(capsys, tmp_path):
    d = instance_to_dict(topo(4, seed=1))
    d["theta"] = 800.0   # e^theta - 1 overflows a float
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(d))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 3
    assert "theta" in err and "Traceback" not in err


def test_solver_failure_is_exit_5(capsys, inst_file, monkeypatch):
    def diverge(problem):
        raise SolverConvergenceError("covering LP: dual unbounded")
    monkeypatch.setattr(dmect.schedule, "solve_slot", diverge)
    code, out, err = run(capsys, "solve", inst_file)
    assert code == 5
    assert out == ""
    assert err == "solver error: covering LP: dual unbounded\n"


def test_solve_steep_path_loss(capsys, tmp_path):
    # eta = 8 spreads one slot's gains over many decades
    path = tmp_path / "steep.json"
    assert run(capsys, "gen", "--n", "12", "--eta", "8", "--seed", "9",
               "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "solve", str(path), "--t", "3")
    assert code == 0
    assert verify_schedule(load_instance(path),
                           schedule_from_dict(json.loads(out)["schedule"]))


def test_solve_tiny_theta_pays_a_positive_cost(capsys, tmp_path):
    path = tmp_path / "cold.json"
    assert run(capsys, "gen", "--n", "8", "--seed", "3", "--theta", "1e-10",
               "--out", str(path))[0] == 0
    code, out, err = run(capsys, "solve", str(path), "--t", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"] > 0.0
    assert verify_schedule(load_instance(path), schedule_from_dict(payload["schedule"]))
    assert "feasible" in err


def test_solve_mia_beyond_the_float_range_is_exit_5(capsys, tmp_path):
    d = instance_to_dict(topo(4, seed=1))
    d["theta"] = 700.0
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "solve", str(path), "--accum", "mia")
    assert code == 5
    assert out == ""
    assert err.startswith("solver error: barrier left the float range")


def test_solve_ea_near_the_float_limit_skips_overflowed_slots(capsys, tmp_path):
    # at theta = 700 some slot powers overflow to inf: those slots are
    # unaffordable, and the cheapest schedule avoids them without a warning
    path = tmp_path / "hot.json"
    assert run(capsys, "gen", "--n", "8", "--seed", "3", "--theta", "700",
               "--out", str(path))[0] == 0
    code, out, err = run(capsys, "solve", str(path), "--t", "3", "--accum", "ea")
    assert code == 0
    payload = json.loads(out)
    assert payload["cost"] == pytest.approx(7.49899636e305, rel=1e-8)
    assert verify_schedule(load_instance(path), schedule_from_dict(payload["schedule"]))
    # with one slot every schedule costs more than the float range
    assert run(capsys, "solve", str(path), "--t", "1", "--solver", "noncoop")[0] == 2


@pytest.mark.parametrize("seed,extra,cost", [
    (0, (), 2.01684078e306),
    (0, ("--mode", "unicast", "--dest", "19"), 5.6459107e305),
    (27, (), 1.49662819e306),
], ids=["broadcast-seed0", "unicast-seed0", "broadcast-seed27"])
def test_solve_near_the_float_limit_warns_nothing(capsys, tmp_path, seed, extra, cost):
    # sums and ea powers that overflow are +inf on purpose, without a warning
    path = tmp_path / "hot.json"
    assert run(capsys, "gen", "--n", "20", "--seed", str(seed), "--theta", "700",
               "--out", str(path))[0] == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run(capsys, "solve", str(path), "--t", "3", *extra)
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert json.loads(out)["cost"] == pytest.approx(cost, rel=1e-8)


@pytest.mark.parametrize("field,value", [
    ("destinations", 5), ("theta", None), (None, None), ("n", 5.5),
    ("theta", 10 ** 400), ("gains", {"a": 1}), ("positions", [{"a": 1}]),
], ids=["destinations-int", "theta-null", "top-level-list", "n-float",
        "theta-huge-int", "gains-object", "positions-objects"])
def test_malformed_instance_file_is_exit_3(capsys, tmp_path, field, value):
    d = instance_to_dict(topo(5, seed=1))
    if field is None:
        d = [d]                # a top-level list instead of an object
    else:
        d[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("order", [5, [[0], [1]]], ids=["int", "nested-lists"])
def test_malformed_ordering_file_is_exit_3(capsys, inst_file, tmp_path, order):
    path = tmp_path / "order.json"
    path.write_text(json.dumps(order))
    code, out, err = run(capsys, "solve", inst_file, "--ordering", f"file:{path}")
    assert code == 3
    assert out == ""
    assert err == "error: ordering file must be a list of integers\n"


def test_solve_usage_errors(capsys, inst_file, tmp_path):
    assert run(capsys, "solve", str(tmp_path / "missing.json"))[0] == 3
    assert run(capsys, "solve", inst_file, "--t", "0")[0] == 3
    assert run(capsys, "solve", inst_file, "--ordering", "nope")[0] == 3
    assert run(capsys, "solve", inst_file, "--mode", "unicast")[0] == 3
    assert run(capsys, "no-such-command")[0] == 3


# ---------------------------------------------------------------------------
# sweep

def strip_runtime(csv_text: str) -> list[str]:
    return [",".join(line.split(",")[:-1]) for line in csv_text.strip().splitlines()]


def test_sweep_csv_shape_and_determinism(capsys, inst_file):
    args = ("sweep", inst_file, "--t-max", "4")
    code, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code == code2 == 0
    assert strip_runtime(out1) == strip_runtime(out2)
    header = out1.splitlines()[0]
    assert header == "T,accum,solver,cost,runtime_ms"
    # 4 deadlines x 2 modes x 2 solvers
    assert len(out1.strip().splitlines()) == 1 + 16


def test_sweep_orderings_and_dominance(capsys, inst_file):
    code, out, _ = run(capsys, "sweep", inst_file, "--t-max", "5")
    assert code == 0
    rows = {}
    for line in out.strip().splitlines()[1:]:
        T, accum, solver, cost, _ = line.split(",")
        rows[(int(T), accum, solver)] = float(cost)
    for accum in ("ea", "mia"):
        for solver in ("coop", "noncoop"):
            series = [rows[(T, accum, solver)] for T in range(1, 6)]
            assert all(a >= b - 1e-9 for a, b in zip(series, series[1:]))
    for T in range(1, 6):
        assert rows[(T, "mia", "coop")] <= rows[(T, "ea", "coop")] + 1e-8
        assert rows[(T, "ea", "coop")] <= rows[(T, "ea", "noncoop")] + 1e-9
        # the greedy baseline never combines signals, so its cost is
        # mode-independent
        assert rows[(T, "ea", "noncoop")] == pytest.approx(
            rows[(T, "mia", "noncoop")], rel=1e-12)


def test_sweep_looks_up_the_slot_allocators_when_called(capsys, inst_file,
                                                         monkeypatch):
    # the benchmark's traced run wraps these module attributes; a reference
    # bound at import time would route sweep around its wrappers
    calls = {"solve_slot": 0, "greedy_slot": 0}
    for module, name in ((dmect.schedule, "solve_slot"),
                         (dmect.baseline, "greedy_slot")):
        def counting(problem, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(problem)
        monkeypatch.setattr(module, name, counting)
    code, _, _ = run(capsys, "sweep", inst_file, "--t-max", "2")
    assert code == 0
    assert calls["solve_slot"] > 0 and calls["greedy_slot"] > 0


def test_sweep_bad_range(capsys, inst_file):
    assert run(capsys, "sweep", inst_file, "--t-min", "3", "--t-max", "2")[0] == 3


# ---------------------------------------------------------------------------
# compare-ordering

def test_compare_ordering_ratios(capsys):
    code, out, _ = run(capsys, "compare-ordering", "--n", "4", "--instances", "6",
                       "--t", "2", "--seed", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance_seed,brute_cost,dijkstra_cost,ratio"
    body = [l for l in lines[1:] if not l.startswith(("mean", "median"))]
    assert len(body) == 6
    for line in body:
        ratio = float(line.split(",")[3])
        assert ratio >= 1.0 - 1e-9
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("median,")


def test_compare_ordering_trivial_for_two_nodes(capsys):
    code, out, _ = run(capsys, "compare-ordering", "--n", "2", "--instances", "3",
                       "--t", "1", "--seed", "0")
    assert code == 0
    for line in out.strip().splitlines()[1:4]:
        assert float(line.split(",")[3]) == 1.0


def test_compare_ordering_cap_is_exit_4(capsys):
    code, _, err = run(capsys, "compare-ordering", "--n", "9", "--instances", "1",
                       "--t", "2", "--seed", "0")
    assert code == 4
    assert "cap" in err


# ---------------------------------------------------------------------------
# oracle

def test_oracle_partition_scope(capsys, tmp_path, line3):
    path = tmp_path / "line3.json"
    save_instance(line3, path)
    code, out, _ = run(capsys, "oracle", str(path), "--t", "2")
    assert code == 0
    assert "delta=0" in out


@pytest.mark.parametrize("scope", ["partition", "global"])
def test_oracle_agrees_when_nothing_fits(capsys, cut_line_file, scope):
    code, out, _ = run(capsys, "oracle", cut_line_file, "--t", "1", "--scope", scope)
    assert code == 0
    assert out == "oracle=inf solver=inf delta=0\n"


def test_oracle_global_scope(capsys, tmp_path):
    path = tmp_path / "i.json"
    save_instance(topo(4, seed=6), path)
    code, out, _ = run(capsys, "oracle", str(path), "--t", "2", "--scope", "global")
    assert code == 0
    delta = float(out.split("delta=")[1])
    assert delta <= 1e-9
