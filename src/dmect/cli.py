"""Command-line front end: generate, solve, sweep, compare, spot-check.

Exit codes: 0 success, 2 infeasible, 3 usage or input error, 4 brute-force
cap exceeded, 5 solver or internal error. Floats in CSV output carry 9
significant digits and rows are emitted in sorted key order, so output is
byte-deterministic for fixed flags and seed (the runtime_ms column
excepted). Relative --out paths are resolved against $DMECT_OUT_DIR when
it is set.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import click

from . import baseline, netgen, ordering as ordering_mod
from .errors import CapExceededError, DmectError, InfeasibleError
from .model import (Accumulation, Instance, Ordering, broadcast_destinations,
                    check_int_list, instance_to_dict, load_instance,
                    schedule_to_dict, verify_schedule)
from .oracle import exhaustive_global, exhaustive_partition
from .schedule import SlotCache, dmect_go, unicast_ea

OUT_DIR_ENV = "DMECT_OUT_DIR"


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _emit(text: str, out: str | None) -> None:
    path = _resolve_out(out)
    if path is None:
        click.echo(text, nl=False)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


@click.group()
def cli():
    """Minimum-energy cooperative transmission under a slot deadline."""


@cli.command("gen")
@click.option("--n", type=int, required=True, help="Number of nodes (>= 2).")
@click.option("--width", type=float, default=15.0, show_default=True, help="Field width.")
@click.option("--height", type=float, default=15.0, show_default=True, help="Field height.")
@click.option("--eta", type=float, default=2.0, show_default=True, help="Path-loss exponent.")
@click.option("--theta", type=float, default=math.log(2.0), help="Decoding threshold in nats/Hz [default: ln 2].")
@click.option("--seed", type=int, required=True, help="PRNG seed; same seed, same instance.")
@click.option("--out", type=str, default=None, help="Instance JSON path [default: stdout].")
def cmd_gen(n, width, height, eta, theta, seed, out):
    """Draw a random broadcast instance and write it as JSON."""
    try:
        config = netgen.TopologyConfig(n=n, eta=eta, seed=seed, width=width,
                                       height=height, theta=theta)
    except ValueError as e:
        raise click.UsageError(str(e))
    instance = netgen.generate(config)
    _emit(json.dumps(instance_to_dict(instance), indent=2, sort_keys=True) + "\n", out)


def _pick_ordering(instance: Instance, selector: str, T: int) -> Ordering:
    if selector == "dijkstra":
        return ordering_mod.dijkstra_ordering(instance)
    if selector == "gain":
        return ordering_mod.gain_ordering(instance)
    if selector == "brute":
        return ordering_mod.brute_force_ordering(instance, T)[0]
    if selector.startswith("file:"):
        with open(selector[5:]) as fh:
            order = check_int_list(json.load(fh), "ordering file")
        ord_ = Ordering(order=tuple(order))
        if ord_.order[0] != instance.source:
            raise click.UsageError("ordering file must start at the source")
        return ord_
    raise click.UsageError(
        f"unknown ordering {selector!r}; use dijkstra|gain|brute|file:<path>")


def _apply_mode(instance: Instance, mode: str, dest: str | None,
                accum: str | None) -> Instance:
    changes = {}
    if accum is not None:
        changes["accumulation"] = Accumulation(accum)
    if dest is not None:
        dests = frozenset(int(d) for d in dest.split(","))
        changes["destinations"] = dests
    elif mode == "broadcast":
        changes["destinations"] = broadcast_destinations(instance.n, instance.source)
    if changes:
        instance = dataclasses.replace(instance, **changes)
    if mode == "unicast" and len(instance.destinations) != 1:
        raise click.UsageError("unicast needs exactly one destination; pass --dest")
    return instance


@cli.command("solve")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(["broadcast", "multicast", "unicast"]),
              default="broadcast", show_default=True, help="Which nodes must decode.")
@click.option("--accum", type=click.Choice(["ea", "mia"]), default=None,
              help="Override the instance's accumulation model.")
@click.option("--t", "t_slots", type=int, default=None,
              help="Slot budget [default: n - 1].")
@click.option("--ordering", "ordering_sel", type=str, default="dijkstra",
              show_default=True, help="dijkstra|gain|brute|file:<path>.")
@click.option("--solver", type=click.Choice(["coop", "noncoop"]), default="coop",
              show_default=True, help="Cooperative slots or the greedy baseline.")
@click.option("--dest", type=str, default=None,
              help="Comma-separated destination override (multicast/unicast).")
@click.option("--heuristic", is_flag=True,
              help="Allow the ordering heuristic for unicast with MIA.")
@click.option("--out", type=str, default=None, help="Result JSON path [default: stdout].")
def cmd_solve(instance_file, mode, accum, t_slots, ordering_sel, solver, dest,
              heuristic, out):
    """Solve one instance and write the verified schedule as JSON."""
    instance = load_instance(instance_file)
    instance = _apply_mode(instance, mode, dest, accum)
    T = instance.n - 1 if t_slots is None else t_slots
    if T < 1:
        raise click.UsageError(f"need at least one slot, got --t {T}")

    if mode == "unicast" and instance.accumulation is Accumulation.MIA and not heuristic:
        raise click.UsageError(
            "unicast under mutual-information accumulation is NP-complete; "
            "pass --heuristic to accept the ordering-based heuristic")

    if mode == "unicast" and instance.accumulation is Accumulation.EA:
        ordering = None
        result = unicast_ea(instance, next(iter(instance.destinations)), T)
    else:
        ordering = _pick_ordering(instance, ordering_sel, T)
        solve = baseline.noncoop_solve if solver == "noncoop" else dmect_go
        result = solve(instance, ordering, T)
        if result.schedule is None:
            raise InfeasibleError(
                f"cannot cover the destinations within {T} slots "
                f"(first blocked prefix position: {result.blocked})")
    cost, schedule = result.cost, result.schedule

    verdict = verify_schedule(instance, schedule)
    if not verdict:
        raise DmectError(f"internal error: emitted schedule fails verification: "
                         f"{verdict.message}")
    payload = {
        "mode": mode,
        "accumulation": instance.accumulation.value,
        "T": T,
        "solver": solver,
        "ordering": list(ordering.order) if ordering is not None else None,
        "cost": cost,
        "slots_used": len(schedule.slots),
        "schedule": schedule_to_dict(schedule),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)
    click.echo(f"feasible: cost={_fmt(cost)} slots={len(schedule.slots)}/{T}", err=True)


@cli.command("sweep")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--t-min", type=int, default=1, show_default=True)
@click.option("--t-max", type=int, required=True, help="Largest slot budget.")
@click.option("--accum", "accums", type=click.Choice(["ea", "mia"]), multiple=True,
              default=("ea", "mia"), show_default=True)
@click.option("--solver", "solvers", type=click.Choice(["coop", "noncoop"]),
              multiple=True, default=("coop", "noncoop"), show_default=True)
@click.option("--out", type=str, default=None, help="CSV path [default: stdout].")
def cmd_sweep(instance_file, t_min, t_max, accums, solvers, out):
    """Cost versus deadline for each accumulation model and solver.

    Every cell reuses the same shortest-path ordering, so rows are directly
    comparable; slot optima are memoized across the sweep.
    """
    if not 1 <= t_min <= t_max:
        raise click.UsageError(f"need 1 <= t-min <= t-max, got {t_min}..{t_max}")
    base = load_instance(instance_file)
    order = ordering_mod.dijkstra_ordering(base)
    rows = []
    for accum in sorted(set(accums)):
        inst = dataclasses.replace(base, accumulation=Accumulation(accum))
        for solver in sorted(set(solvers)):
            if solver == "noncoop":
                run, cache = baseline.noncoop_solve, SlotCache(inst, solver=baseline.greedy_slot)
            else:
                run, cache = dmect_go, SlotCache(inst)
            for T in range(t_min, t_max + 1):
                start = time.perf_counter()
                result = run(inst, order, T, cache=cache)
                ms = (time.perf_counter() - start) * 1e3
                cost = "inf" if math.isinf(result.cost) else _fmt(result.cost)
                rows.append((T, accum, solver, cost, _fmt(ms)))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    lines = ["T,accum,solver,cost,runtime_ms"]
    lines += [",".join(str(v) for v in row) for row in rows]
    _emit("\n".join(lines) + "\n", out)


@cli.command("compare-ordering")
@click.option("--n", type=int, required=True, help="Nodes per instance (brute cap applies).")
@click.option("--instances", type=int, default=50, show_default=True)
@click.option("--t", "t_slots", type=int, required=True, help="Slot budget.")
@click.option("--seed", type=int, required=True, help="Seed of the first instance.")
@click.option("--eta", type=float, default=2.0, show_default=True)
@click.option("--theta", type=float, default=math.log(2.0))
@click.option("--out", type=str, default=None, help="CSV path [default: stdout].")
def cmd_compare_ordering(n, instances, t_slots, seed, eta, theta, out):
    """Shortest-path ordering versus the brute-force optimum, per seed."""
    lines = ["instance_seed,brute_cost,dijkstra_cost,ratio"]
    ratios = []
    for i in range(instances):
        inst = netgen.generate(netgen.TopologyConfig(n=n, eta=eta, seed=seed + i,
                                                     theta=theta))
        cache = SlotCache(inst)
        _, brute_cost = ordering_mod.brute_force_ordering(inst, t_slots, cache=cache)
        dij = dmect_go(inst, ordering_mod.dijkstra_ordering(inst), t_slots,
                       cache=cache).cost
        ratio = dij / brute_cost
        ratios.append(ratio)
        lines.append(f"{seed + i},{_fmt(brute_cost)},{_fmt(dij)},{_fmt(ratio)}")
    lines.append(f"mean,,,{_fmt(statistics.mean(ratios))}")
    lines.append(f"median,,,{_fmt(statistics.median(ratios))}")
    _emit("\n".join(lines) + "\n", out)


@cli.command("oracle")
@click.argument("instance_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--t", "t_slots", type=int, required=True, help="Slot budget.")
@click.option("--scope", type=click.Choice(["partition", "global"]),
              default="partition", show_default=True,
              help="Check one ordering's DP or the minimum over all orderings.")
@click.option("--ordering", "ordering_sel", type=str, default="dijkstra",
              show_default=True, help="Ordering for the partition scope.")
def cmd_oracle(instance_file, t_slots, scope, ordering_sel):
    """Spot-check the solver against the exhaustive reference."""
    instance = load_instance(instance_file)
    cache = SlotCache(instance)
    if scope == "partition":
        order = _pick_ordering(instance, ordering_sel, t_slots)
        reference = exhaustive_partition(instance, order, t_slots, cache=cache)
        solver = dmect_go(instance, order, t_slots, cache=cache).cost
    else:
        reference = exhaustive_global(instance, t_slots, cache=cache)
        _, solver = ordering_mod.brute_force_ordering(instance, t_slots, cache=cache)
    # equal infinities (nothing fits in T slots) agree; inf - inf would be nan
    delta = 0.0 if reference == solver else abs(reference - solver)
    click.echo(f"oracle={_fmt(reference)} solver={_fmt(solver)} delta={_fmt(delta)}")


def main(argv=None) -> int:
    """Run the CLI and map errors onto the documented exit codes."""
    try:
        cli.main(args=argv, prog_name="dmect", standalone_mode=False)
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.ClickException as e:
        e.show()
        return 3
    except click.Abort:
        click.echo("aborted", err=True)
        return 130
    except InfeasibleError as e:
        click.echo(f"infeasible: {e}", err=True)
        return 2
    except CapExceededError as e:
        click.echo(f"cap exceeded: {e}", err=True)
        return 4
    except DmectError as e:
        click.echo(f"solver error: {e}", err=True)
        return 5
    except (ValueError, OSError, json.JSONDecodeError) as e:
        click.echo(f"error: {e}", err=True)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())
