"""Record the costs that runs with the default seed are checked against.

    python3 bench/record_reference.py

Writes reference_costs.json: for each workload, the costs of every op a run
of ``--seconds`` (default: run_seconds of BENCHMARK.json) with the default
seed may make, warm-ups included, keyed by instance seed. Every output must
pass its workload's checks first. Re-record only with a change that is meant
to alter answers, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    bench_json = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    p.add_argument("--seconds", type=float, default=bench_json["run_seconds"])
    args = p.parse_args(argv)
    cli = run.import_dmect()
    import session
    from harness import run_cli
    from workloads import WORKLOADS, instance_seeds

    seed = run.DEFAULT_SEED
    refs = {}
    workdir = run.ROOT / ".bench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, w in WORKLOADS.items():
            seeds = instance_seeds(
                name, seed, session.SETUP_REPS + session.pool_size(args.seconds, w.op_s))
            refs[name] = {}
            for i, s in enumerate(seeds):
                op = w.make(s, workdir, session.WARMUP_N if i < session.SETUP_REPS else w.n)
                costs, failure = session.check_op(w, op, run_cli(cli.main, op.argv))
                if failure is not None:
                    raise SystemExit(f"{name} seed {s}: {failure}")
                refs[name][str(s)] = costs
                print(f"{name} seed {s}: {costs[:2]}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.parent.rmdir()
    run.REFERENCES.write_text(json.dumps({"seed": seed, "workloads": refs},
                                         indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
