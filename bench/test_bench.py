"""Tests of the benchmark's own logic.

    python3 -m pytest bench
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import dmect.cli  # noqa: E402
import dmect.ordering  # noqa: E402
import dmect.schedule  # noqa: E402
import harness  # noqa: E402
import session  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that moves only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    op = tracer.begin(spans.OP)            # 0 .. 10
    clock.advance(1.0)
    dp = tracer.begin(spans.DP)            # 1 .. 8
    clock.advance(1.0)
    slot = tracer.begin("power.ea")        # 2 .. 5
    clock.advance(3.0)
    tracer.finish(slot)
    clock.advance(1.0)
    slot = tracer.begin("power.ea")        # 6 .. 7
    clock.advance(1.0)
    tracer.finish(slot)
    clock.advance(1.0)
    dp.cells = 6
    tracer.finish(dp)
    clock.advance(2.0)
    tracer.finish(op)

    assert spans.self_times(tracer.spans) == [3.0, 3.0, 3.0, 1.0]
    m = spans.layer_metrics(tracer, ops=1)
    assert m["cli.self_s"] == 3.0
    assert m["schedule.self_s"] == 3.0
    assert m["schedule.dmect_go.busy_s"] == 7.0
    assert m["power.ea.calls"] == 2
    assert m["power.ea.busy_s"] == 4.0
    assert m["power.ea.call_ms_p50"] == 2000.0
    assert m["schedule.slot_solves"] == 2
    assert m["schedule.solve_ratio"] == 2 / 6
    assert m["trace.op_s"] == 10.0
    assert m["power.mia.calls"] == 0 and m["power.mia.call_ms_p50"] == 0.0


def test_layer_metrics_are_per_op():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    for _ in range(4):
        span = tracer.begin(spans.OP)
        clock.advance(0.5)
        tracer.finish(span)
    m = spans.layer_metrics(tracer, ops=4)
    assert m["trace.op_s"] == 0.5 and m["cli.self_s"] == 0.5


def test_wrapper_counts_infeasible_slots_and_reraises():
    class Infeasible(Exception):
        pass

    def slot(problem):
        raise Infeasible()

    tracer = spans.Tracer(infeasible_errors=(Infeasible,))
    wrapped = tracer.wrap("site", slot, "power.mia")
    with pytest.raises(Infeasible):
        wrapped(None)
    assert tracer.infeasible["power.mia"] == 1
    assert tracer.site_calls["site"] == 1
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert spans.layer_metrics(tracer, ops=1)["power.infeasible"] == 1


def test_median_and_throughput_on_fixed_values():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    assert harness.median([]) == 0.0
    assert harness.throughput(5, 2.0) == 2.5
    with pytest.raises(ValueError):
        harness.throughput(1, 0.0)


def test_closed_loop_stops_at_the_deadline_and_finishes_the_op_in_flight():
    clock = FakeClock()

    def step(dt):
        clock.advance(dt)
        return dt

    done, elapsed = harness.closed_loop([2.0, 2.0, 2.0, 2.0], step, 3.0, clock=clock)
    assert done == [2.0, 2.0] and elapsed == 4.0
    done, elapsed = harness.closed_loop([1.0], step, 3.0, clock=clock)
    assert done == [1.0] and elapsed == 1.0   # inputs ran out first


def test_failed_ops_are_counted_not_raised():
    def main(argv):
        if argv[0] == "raise":
            raise RuntimeError("solver blew up")
        if argv[0] == "exit":
            raise SystemExit(7)
        print("out")
        return int(argv[0])

    records, _ = harness.closed_loop(
        [["0"], ["raise"], ["2"], ["exit"], ["0"]],
        lambda argv: harness.run_cli(main, argv), 60.0)
    assert len(records) == 5
    assert [r.failure() is None for r in records] == [True, False, False, False, True]
    assert records[1].failure() == "raised RuntimeError: solver blew up"
    assert records[1].exit_code is None
    assert records[2].failure().startswith("exit code 2")
    assert records[3].failure() == "raised SystemExit: 7"
    assert records[0].stdout == "out\n"


def test_instance_seeds_are_distinct_and_prefix_stable():
    short = workloads.instance_seeds("w", 3, 5)
    long = workloads.instance_seeds("w", 3, 50)
    assert long[:5] == short and len(set(long)) == 50
    assert workloads.instance_seeds("w", 4, 5) != short


def _sweep_csv(override=None):
    rows = ["T,accum,solver,cost,runtime_ms"]
    for T in range(1, 11):
        for accum in ("ea", "mia"):
            for solver in ("coop", "noncoop"):
                cost = 100.0 / T + (solver == "noncoop") + (accum == "ea")
                cost = override.get((T, accum, solver), cost) if override else cost
                rows.append(f"{T},{accum},{solver},{cost:.9g},1.0")
    return "\n".join(rows) + "\n"


def test_sweep_check_enforces_the_library_guarantees():
    sweep = workloads.WORKLOADS["sweep-n20"]
    op = workloads.Op(1, ())
    assert len(sweep.check(op, _sweep_csv())) == 40
    broken = [
        {(3, "ea", "coop"): 1e3},      # coop above noncoop
        {(3, "mia", "noncoop"): 1e3},  # mia above ea
        {(5, "mia", "coop"): 40.0},    # rises with T
    ]
    for override in broken:
        with pytest.raises(workloads.CheckFailed):
            sweep.check(op, _sweep_csv(override))
    with pytest.raises(workloads.CheckFailed):
        sweep.check(op, _sweep_csv().replace("10,mia,noncoop", "11,mia,noncoop"))
    assert sweep.canonical("a,b,1.5\nc,d,2.5") == "a,b\nc,d"


def test_compare_check_rejects_a_ratio_below_one():
    cmp = workloads.WORKLOADS["compare-ordering-n8"]
    op = workloads.Op(9, ())
    head = "instance_seed,brute_cost,dijkstra_cost,ratio\n"
    tail = "mean,,,1\nmedian,,,1\n"
    assert cmp.check(op, head + "9,2,2.5,1.25\n" + tail) == [2.0, 2.5]
    # printed digits only: 125.850323 / 119.090556 = 1.0567615(7)
    assert cmp.check(op, head + "9,119.090556,125.850323,1.05676156\n" + tail)
    with pytest.raises(workloads.CheckFailed):
        cmp.check(op, head + "9,2,1.9,0.95\n" + tail)
    with pytest.raises(workloads.CheckFailed):
        cmp.check(op, head + "8,2,2.5,1.25\n" + tail)


def test_reference_mismatch_uses_the_relative_tolerance():
    assert workloads.reference_mismatch([100.0], [100.0 * (1 + 5e-8)]) is None
    assert workloads.reference_mismatch([100.0], [100.0 * (1 + 5e-7)]) is not None
    assert workloads.reference_mismatch([float("inf")], [float("inf")]) is None
    assert workloads.reference_mismatch([1.0, 2.0], [1.0]) is not None


def test_patched_sites_see_a_real_op_and_are_restored():
    original = dmect.schedule.solve_slot
    tracer = spans.Tracer()
    main = tracer.wrap("dmect.cli.main", dmect.cli.main, spans.OP)
    with spans.patched(tracer):
        record = harness.run_cli(main, ["compare-ordering", "--n", "5", "--t", "2",
                                        "--instances", "1", "--seed", "3"])
    assert record.failure() is None
    assert dmect.schedule.solve_slot is original
    cmp = workloads.WORKLOADS["compare-ordering-n8"]
    assert all(tracer.site_calls[site] > 0 for site in cmp.sites)
    m = spans.layer_metrics(tracer, ops=1)
    assert m["ordering.brute.dp_calls"] == 24    # 4! orderings
    assert m["schedule.dmect_go.calls"] == 25    # plus the dijkstra ordering


def _traced_run(tmp_path, seed):
    args = argparse.Namespace(workload="compare-ordering-n8", seed=seed,
                              seconds=1e-3, trace=1)
    run = session.Run(args, dmect.cli, tmp_path, tmp_path / "no-references.json")
    return run, [run.workload.make(seed, tmp_path, 5)]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    run, ops = _traced_run(tmp_path, 4)
    attempted, failed, metrics = run.traced(ops)
    assert (attempted, failed, run.failures) == (1, 0, [])
    assert {name: unit for name, (_, unit) in metrics.items()} == spans.UNITS
    assert metrics["ordering.brute.dp_calls"][0] == 24


def test_a_bypassed_wrapper_fails_the_traced_run(tmp_path, monkeypatch):
    # a refactor that binds the ordering functions at import time, so the
    # CLI no longer looks them up on dmect.ordering
    monkeypatch.setattr(dmect.cli, "ordering_mod", types.SimpleNamespace(
        brute_force_ordering=dmect.ordering.brute_force_ordering,
        dijkstra_ordering=dmect.ordering.dijkstra_ordering))
    run, ops = _traced_run(tmp_path, 4)
    with pytest.raises(SystemExit, match="dmect.ordering.brute_force_ordering"):
        run.traced(ops)


def test_benchmark_json_names_what_the_benchmark_emits():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.UNITS


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_a_short_run_prints_the_result_line():
    out = _run(HERE.parent, "--workload", "compare-ordering-n8", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    report, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec["end_to_end"]})
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["reference_ops"] >= 1


def test_without_the_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "sweep-n20", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
