"""dmect benchmark: closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload solve-mia-n30 --seed 1 --seconds 25 --trace 0

Runs one workload through ``dmect.cli.main`` in this process, one op after
another for ``--seconds``, each op on a distinct instance drawn from
``--seed``, and checks every output. The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it reports the environment, the cost checksum and any failures.
README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy loads: each op runs on one core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "reference_costs.json"
DEFAULT_SEED = 1    # runs with this seed are checked against REFERENCES


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def import_dmect():
    """Import dmect from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "dmect" / "__init__.py").is_file():
        raise SystemExit(f"bench: no dmect sources under {src}")
    sys.path.insert(0, str(src))
    import dmect.cli
    if Path(dmect.cli.__file__).resolve().parent != (src / "dmect").resolve():
        raise SystemExit(f"bench: imported dmect from {dmect.cli.__file__}, not {src}")
    return dmect.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    load = os.getloadavg()
    start = time.perf_counter()
    cli = import_dmect()
    import harness
    import session
    import_s = time.perf_counter() - start
    if args.workload not in session.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(session.WORKLOADS)}")

    run = session.Run(args, cli, ROOT, REFERENCES)
    try:
        ops, setup_times = run.setup(1 if args.trace else session.SETUP_REPS)
        if args.trace:
            attempted, failed, metrics = run.traced(ops)
        else:
            attempted, failed, metrics = run.untraced(ops)
            metrics["setup_s"] = (harness.median(setup_times), "s")
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            run.workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": harness.environment(load),
        "import_s": import_s, "setup_runs_s": setup_times,
        "failed_frac": failed / attempted if attempted else 1.0,
        "cost_checksum": harness.checksum(run.costs), "costs_checked": len(run.costs),
        "reference_ops": run.referenced if run.references is not None else None,
        "failures": run.failures[:20],
    }
    result = {
        "correct": not run.failures and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}", file=sys.stderr)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
