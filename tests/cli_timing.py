"""Time every op of one benchmark workload in process, per slot.

Run from the repository root:

    python3 tests/cli_timing.py solve-families

The ops are those of the benchmark's batches 0-3 at seed 1, written by
``perfbench.workloads.batch_ops`` into a temporary directory and run in
batch order through ``fbranch.cli.main``, so a ``width`` op reads the tree
its solve just wrote.  Before every run garbage is collected and every
``lru_cache`` table of the package is cleared, as a separate CLI
invocation would start.  Prints, per slot, the fastest of five runs of
each batch's op and their median in milliseconds, then the geometric mean
of the slot medians of each role (main, aux).  It asserts nothing about
time, so it is not part of the test suite (pytest collects only
``test_*.py``).
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fbranch import cli  # noqa: E402
from perfbench.workloads import WORKLOADS, batch_ops  # noqa: E402
from verify_timing import lru_caches  # noqa: E402

SEED, BATCHES, REPEAT = 1, range(4), 5


def best_of(argv: list[str], caches: list) -> float:
    best = math.inf
    for _ in range(REPEAT):
        gc.collect()
        for cache in caches:
            cache.cache_clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(list(argv))
            best = min(best, time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"exit code {code}: {' '.join(argv)}")
    return best


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "solve-families"
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")
    caches = lru_caches()
    times: dict[str, list[float]] = {}
    roles: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as work:
        for b in BATCHES:
            for op in batch_ops(workload, SEED, b, Path(work)):
                times.setdefault(op["slot"], []).append(1000 * best_of(op["argv"], caches))
                roles[op["slot"]] = op["role"]
    medians: dict[str, list[float]] = {}
    for slot, ms in times.items():
        medians.setdefault(roles[slot], []).append(statistics.median(ms))
        print(f"{slot} {roles[slot]} " + " ".join(f"{t:.2f}" for t in ms)
              + f" median_ms={medians[roles[slot]][-1]:.2f}")
    for role, values in medians.items():
        print(f"{role} geomean_ms={statistics.geometric_mean(values):.2f}")


if __name__ == "__main__":
    main()
