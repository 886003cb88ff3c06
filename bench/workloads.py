"""The benchmark's workloads: inputs drawn from the seed, CLI argv, checks.

Each workload is a closed loop of CLI invocations, one after another in one
process, each on a distinct instance, so a cache shared across the process
cannot serve one op from another's work. README.md says why each exists.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from dmect.model import (Accumulation, Instance, save_instance,
                         schedule_from_dict, verify_schedule)
from dmect.netgen import TopologyConfig, generate

ETA = 2.0
REFERENCE_REL_TOL = 1e-7   # the tolerance of acceptance criteria c01 and c03
RATIO_TOL = 1e-9           # compare-ordering: dijkstra cost / brute cost >= 1 - tol
CSV_REL_TOL = 2e-8         # CSV numbers carry 9 significant digits, so a ratio
                           # recomputed from two printed costs and compared with
                           # the printed ratio carries three roundings of <= 5e-9


class CheckFailed(Exception):
    """An op's output breaks a guarantee the library makes."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``instance`` is the input it was generated from."""

    seed: int
    argv: tuple[str, ...]
    instance: Instance | None = None


def instance_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` distinct instance seeds, the same for the same arguments;
    a longer list extends a shorter one."""
    rng = random.Random(f"dmect-bench:{workload}:{seed}")
    seen: set[int] = set()
    out = []
    while len(out) < count:
        s = rng.randrange(1, 2 ** 31)
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def _le(a: float, b: float, rel: float) -> bool:
    return a <= b + rel * abs(b) if math.isfinite(b) else True


class Workload:
    """Base: ``make`` builds an op's input, ``check`` returns its costs or
    raises CheckFailed."""

    name: str
    n: int                  # nodes per timed op
    op_s: float             # rough op time on a 2-core x86 box; sizes the input pool
    sites: tuple[str, ...]  # patch sites a traced op must pass through

    def make(self, seed: int, workdir: Path, n: int) -> Op:
        """The op on an ``n``-node instance drawn from ``seed``."""
        raise NotImplementedError

    def check(self, op: Op, stdout: str) -> list[float]:
        raise NotImplementedError

    def canonical(self, stdout: str) -> str:
        """The part of the output that must not depend on tracing."""
        return stdout

    def _write(self, seed: int, workdir: Path, n: int, accumulation: Accumulation):
        instance = generate(TopologyConfig(n=n, eta=ETA, seed=seed), accumulation)
        path = workdir / f"{self.name}-{seed}.json"
        save_instance(instance, path)
        return instance, str(path)


class Solve(Workload):
    sites = ("dmect.cli.load_instance", "dmect.ordering.dijkstra_ordering",
             "dmect.cli.dmect_go", "dmect.schedule.solve_slot",
             "dmect.cli.verify_schedule")

    def __init__(self, name, op_s, n, T, accumulation):
        self.name, self.op_s = name, op_s
        self.n, self.T, self.accumulation = n, T, accumulation

    def make(self, seed, workdir, n):
        instance, path = self._write(seed, workdir, n, self.accumulation)
        argv = ["solve", path, "--t", str(self.T)]
        if self.accumulation is Accumulation.MIA:
            argv += ["--accum", "mia"]
        return Op(seed, tuple(argv), instance)

    def check(self, op, stdout):
        payload = json.loads(stdout)
        if payload["accumulation"] != self.accumulation.value or payload["T"] != self.T:
            raise CheckFailed(f"solved {payload['accumulation']} T={payload['T']}")
        schedule = schedule_from_dict(payload["schedule"])
        verdict = verify_schedule(op.instance, schedule)
        if not verdict:
            raise CheckFailed(f"schedule fails verification: {verdict.message}")
        if len(schedule.slots) > self.T:
            raise CheckFailed(f"{len(schedule.slots)} slots exceed T={self.T}")
        cost = float(payload["cost"])
        if not math.isclose(cost, schedule.cost, rel_tol=1e-12):
            raise CheckFailed(f"reported cost {cost!r} != schedule cost {schedule.cost!r}")
        return [cost]


class Sweep(Workload):
    name = "sweep-n20"
    op_s = 3.7
    n, t_max = 20, 10
    sites = ("dmect.cli.load_instance", "dmect.ordering.dijkstra_ordering",
             "dmect.cli.dmect_go", "dmect.baseline.dmect_go",
             "dmect.schedule.solve_slot", "dmect.baseline.greedy_slot")
    header = "T,accum,solver,cost,runtime_ms"

    def make(self, seed, workdir, n):
        instance, path = self._write(seed, workdir, n, Accumulation.EA)
        return Op(seed, ("sweep", path, "--t-max", str(self.t_max)), instance)

    def _cells(self, stdout):
        lines = stdout.strip().splitlines()
        if not lines or lines[0] != self.header:
            raise CheckFailed("sweep output lacks its header")
        cells = {}
        for line in lines[1:]:
            T, accum, solver, cost, _ = line.split(",")
            cells[(int(T), accum, solver)] = float(cost)
        return cells

    def check(self, op, stdout):
        cells = self._cells(stdout)
        Ts = range(1, self.t_max + 1)
        want = {(T, a, s) for T in Ts for a in ("ea", "mia") for s in ("coop", "noncoop")}
        if set(cells) != want:
            raise CheckFailed(f"sweep has {len(cells)} cells, want {len(want)}")
        for (T, accum, solver), cost in sorted(cells.items()):
            if solver == "coop" and not _le(cost, cells[T, accum, "noncoop"], CSV_REL_TOL):
                raise CheckFailed(f"T={T} {accum}: coop {cost} > noncoop")
            if accum == "mia" and not _le(cost, cells[T, "ea", solver], CSV_REL_TOL):
                raise CheckFailed(f"T={T} {solver}: mia {cost} > ea")
            if T > 1 and not _le(cost, cells[T - 1, accum, solver], CSV_REL_TOL):
                raise CheckFailed(f"{accum} {solver}: cost rises from T={T - 1} to T={T}")
        return [cells[k] for k in sorted(cells)]

    def canonical(self, stdout):
        return "\n".join(line.rsplit(",", 1)[0] for line in stdout.splitlines())


class CompareOrdering(Workload):
    name = "compare-ordering-n8"
    op_s = 1.6
    n, T = 8, 3
    sites = ("dmect.netgen.generate", "dmect.ordering.brute_force_ordering",
             "dmect.ordering.dmect_go", "dmect.ordering.dijkstra_ordering",
             "dmect.cli.dmect_go", "dmect.schedule.solve_slot")

    def make(self, seed, workdir, n):
        return Op(seed, ("compare-ordering", "--n", str(n), "--t", str(self.T),
                         "--instances", "1", "--seed", str(seed)))

    def check(self, op, stdout):
        lines = stdout.strip().splitlines()
        if len(lines) != 4 or lines[0] != "instance_seed,brute_cost,dijkstra_cost,ratio":
            raise CheckFailed(f"compare-ordering printed {len(lines)} lines, want 4")
        seed, brute, dij, ratio = lines[1].split(",")
        brute, dij, ratio = float(brute), float(dij), float(ratio)
        if int(seed) != op.seed:
            raise CheckFailed(f"row for seed {seed}, asked for {op.seed}")
        if ratio < 1.0 - RATIO_TOL:
            raise CheckFailed(f"dijkstra beats the brute-force optimum: ratio {ratio}")
        if not math.isclose(ratio, dij / brute, rel_tol=CSV_REL_TOL):
            raise CheckFailed(f"ratio {ratio} != {dij} / {brute}")
        return [brute, dij]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Solve("solve-mia-n30", 4.8, n=30, T=6, accumulation=Accumulation.MIA),
    Solve("solve-ea-n100", 3.8, n=100, T=10, accumulation=Accumulation.EA),
    Sweep(),
    CompareOrdering(),
)}


def load_references(path: Path) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def reference_mismatch(expected: list[float], costs: list[float]) -> str | None:
    """Why ``costs`` differ from the recorded ones, or None when they agree."""
    if len(expected) != len(costs):
        return f"{len(costs)} costs, reference has {len(expected)}"
    for i, (want, got) in enumerate(zip(expected, costs)):
        if math.isinf(want) or math.isinf(got):
            if want != got:
                return f"cost {i}: {got!r}, reference {want!r}"
        elif not math.isclose(got, want, rel_tol=REFERENCE_REL_TOL):
            return f"cost {i}: {got!r}, reference {want!r}"
    return None
