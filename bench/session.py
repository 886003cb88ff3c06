"""One benchmark run: set-up, the timed closed loop, output checks.

Imported only after run.py has pinned BLAS threads and put this checkout's
src/ on the path.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spans
from dmect.errors import InfeasibleError
from harness import closed_loop, median, peak_rss_mb, run_cli, throughput
from workloads import (WORKLOADS, CheckFailed, instance_seeds, load_references,
                       reference_mismatch)

SETUP_REPS = 5      # setup_s is the median of this many set-ups, each
                    # with a warm-up op on an instance of its own
WARMUP_N = 6        # the warm-up op runs the workload's command at this size:
                    # every code path of a timed op, at a fraction of its cost
OUTPUT_ERRORS = (CheckFailed, ValueError, KeyError, IndexError, TypeError)


def pool_size(seconds: float, op_s: float) -> int:
    """Inputs for twice the ops a nominal machine finishes in ``seconds``;
    on a machine faster than that the loop ends early."""
    return math.ceil(2.0 * seconds / op_s) + 2


def check_op(workload, op, record) -> tuple[list[float], str | None]:
    """The op's costs, and why it failed (None when it passed)."""
    failure = record.failure()
    if failure is not None:
        return [], failure
    try:
        return workload.check(op, record.stdout), None
    except OUTPUT_ERRORS as e:
        return [], f"bad output: {type(e).__name__}: {e}"


class Run:
    """State of one benchmark run: ops, failures and costs."""

    def __init__(self, args, cli, root: Path, references: Path):
        self.args = args
        self.cli = cli
        self.workload = WORKLOADS[args.workload]
        refs = load_references(references)
        self.references = (refs.get("workloads", {}).get(args.workload, {})
                           if refs.get("seed") == args.seed else None)
        self.failures: list[str] = []
        self.costs: list[float] = []
        self.referenced = 0
        self.src = root / "src"
        self.workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"

    def judge(self, op, record) -> bool:
        """Check one op's output, record its costs, and say whether it passed."""
        costs, failure = check_op(self.workload, op, record)
        if failure is None and self.references is not None:
            expected = self.references.get(str(op.seed))
            if expected is not None:
                self.referenced += 1
                mismatch = reference_mismatch(expected, costs)
                if mismatch is not None:
                    failure = f"reference mismatch: {mismatch}"
        if failure is not None:
            self.failures.append(f"seed {op.seed}: {failure}")
            return False
        self.costs.extend(costs)
        return True

    def setup(self, reps: int) -> tuple[list, list[float]]:
        """Set up ``reps`` times over: start a fresh interpreter that imports
        dmect.cli, generate and write the inputs, then run one untimed
        warm-up op on a small instance of its own."""
        w = self.workload
        seeds = instance_seeds(w.name, self.args.seed,
                               SETUP_REPS + pool_size(self.args.seconds, w.op_s))
        env = {**os.environ, "PYTHONPATH": str(self.src)}
        times = []
        for rep in range(reps):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import dmect.cli"], env=env,
                           check=True, timeout=60)
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir.mkdir(parents=True)
            ops = [w.make(s, self.workdir, w.n) for s in seeds[SETUP_REPS:]]
            warm = w.make(seeds[rep], self.workdir, WARMUP_N)
            record = run_cli(self.cli.main, warm.argv)
            times.append(time.perf_counter() - start)
            if not self.judge(warm, record):
                self.failures[-1] = "warm-up " + self.failures[-1]
        return ops, times

    def untraced(self, ops) -> tuple[int, int, dict]:
        records, elapsed = closed_loop(
            ops, lambda op: (op, run_cli(self.cli.main, op.argv)), self.args.seconds)
        passed = [rec for op, rec in records if self.judge(op, rec)]
        walls = [rec.wall_s for rec in passed]
        metrics = {
            "ops_per_s": (throughput(len(passed), elapsed), "1/s"),
            "op_s_p50": (median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        return len(records), len(records) - len(passed), metrics

    def traced(self, ops) -> tuple[int, int, dict]:
        """Each op twice on the same instance, untraced and traced, in
        alternating order; the two outputs must agree exactly."""
        tracer = spans.Tracer(infeasible_errors=(InfeasibleError,))
        traced_main = tracer.wrap("dmect.cli.main", self.cli.main, spans.OP)

        def traced_op(op):
            with spans.patched(tracer):
                return run_cli(traced_main, op.argv)

        def pair(item):
            i, op = item
            if i % 2:
                t = traced_op(op)
                u = run_cli(self.cli.main, op.argv)
            else:
                u = run_cli(self.cli.main, op.argv)
                t = traced_op(op)
            return op, u, t

        pairs, _ = closed_loop(list(enumerate(ops)), pair, self.args.seconds)
        failed = 0
        for op, u, t in pairs:
            ok = self.judge(op, t)
            if ok and u.failure() is not None:
                self.failures.append(f"seed {op.seed}: untraced {u.failure()}")
                ok = False
            if ok and self.workload.canonical(u.stdout) != self.workload.canonical(t.stdout):
                self.failures.append(f"seed {op.seed}: traced output differs from untraced")
                ok = False
            failed += not ok
        missed = [site for site in self.workload.sites if tracer.site_calls[site] == 0]
        if missed:
            raise SystemExit(f"bench: traced ops never passed through {', '.join(missed)}; "
                             "a caller no longer looks these up, so per-layer figures "
                             "would read zero")
        layer = spans.layer_metrics(tracer, len(pairs))
        layer["trace.overhead_frac"] = (sum(t.wall_s for _, _, t in pairs)
                                        / sum(u.wall_s for _, u, _ in pairs) - 1.0)
        metrics = {name: (value, spans.UNITS[name]) for name, value in layer.items()}
        return len(pairs), failed, metrics
