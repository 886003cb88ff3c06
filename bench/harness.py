"""Op execution, the closed-loop timer and the summary statistics.

Nothing here imports dmect, so the tests can drive the loop with fake ops.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence


@dataclass
class OpRecord:
    """One CLI invocation: exit code, wall time and captured streams.

    ``error`` names an exception that escaped the entry point; ``exit_code``
    is then None.
    """

    exit_code: int | None
    wall_s: float
    stdout: str
    stderr: str
    error: str | None = None

    def failure(self) -> str | None:
        if self.error is not None:
            return f"raised {self.error}"
        if self.exit_code != 0:
            tail = self.stderr.strip().splitlines()[-1:] or [""]
            return f"exit code {self.exit_code}: {tail[0][:200]}"
        return None


def run_cli(main: Callable[[list[str]], int], argv: Sequence[str],
            clock: Callable[[], float] = time.perf_counter) -> OpRecord:
    """Call ``main(argv)`` in-process with stdout and stderr captured.

    An exception escaping ``main``, SystemExit included, is recorded as a
    failed op instead of ending the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except (Exception, SystemExit) as e:  # a failed op must not end the run
        return OpRecord(None, clock() - start, out.getvalue(), err.getvalue(),
                        error=f"{type(e).__name__}: {e}")
    return OpRecord(code, clock() - start, out.getvalue(), err.getvalue())


def closed_loop(items: Sequence, step: Callable, seconds: float,
                clock: Callable[[], float] = time.perf_counter) -> tuple[list, float]:
    """Run ``step(item)`` one after another until ``seconds`` have elapsed
    or the items run out; the op in flight at the deadline completes.

    Returns the step results and the elapsed wall time of the loop.
    """
    results = []
    start = clock()
    for item in items:
        if clock() - start >= seconds:
            break
        results.append(step(item))
    return results, clock() - start


def median(values: Sequence[float]) -> float:
    """Median, 0.0 for no values (a layer that never ran)."""
    return float(statistics.median(values)) if values else 0.0


def throughput(completed: int, elapsed_s: float) -> float:
    """Ops completed per second of the timed phase."""
    if elapsed_s <= 0.0:
        raise ValueError(f"elapsed time must be positive, got {elapsed_s}")
    return completed / elapsed_s


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_runtime() -> dict:
    """Version and thread count from the OpenBLAS library numpy loaded."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = int(threads())
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode(errors="replace")
        if info:
            return info
    return {}


def environment(load_at_start: tuple[float, float, float]) -> dict:
    """The machine facts a reader needs to compare two runs."""
    import numpy as np
    blas = _openblas_runtime()
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{build.get('name')} {build.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_config": blas.get("config"),
        "blas_threads": blas.get("threads"),
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
    }


def checksum(costs: Sequence[float]) -> float:
    """Sum of the finite costs, so that one infeasible cell cannot hide the rest."""
    return math.fsum(c for c in costs if math.isfinite(c))
