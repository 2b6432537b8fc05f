"""Time each ``verify-lemmas --quick`` suite in process.

Run from the repository root:

    python3 tests/verify_timing.py

Each of the eleven suites runs through ``verify.run_suites`` at the suite
seeds 0-3, the seeds the benchmark's ``verify`` workload passes in its
batches 0-3.  Before every run garbage is collected and every ``lru_cache``
table of the package is cleared, so each run pays for its atlas and other
cache fills as a separate CLI invocation would.  Prints, per suite, the
fastest of five runs at each seed and their median in milliseconds, then
the geometric mean of the suite medians.  It asserts nothing about time,
so it is not part of the test suite (pytest collects only ``test_*.py``).
"""

from __future__ import annotations

import gc
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import fbranch  # noqa: E402
from fbranch import verify  # noqa: E402

SEEDS, REPEAT = range(4), 5


def lru_caches() -> list:
    """Every ``lru_cache`` table defined in a module of the package."""
    return [obj for name, mod in sys.modules.items()
            if name.startswith(fbranch.__name__ + ".")
            for obj in vars(mod).values()
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name]


def best_of(suite: str, seed: int, caches: list) -> float:
    best = math.inf
    for _ in range(REPEAT):
        gc.collect()
        for cache in caches:
            cache.cache_clear()
        start = time.perf_counter()
        verify.run_suites([suite], seed=seed, quick=True)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    caches = lru_caches()
    medians = []
    for suite in verify.SUITES:
        times = [1000 * best_of(suite, seed, caches) for seed in SEEDS]
        medians.append(statistics.median(times))
        print(f"{suite} " + " ".join(f"{t:.2f}" for t in times)
              + f" median_ms={medians[-1]:.2f}")
    print(f"geomean_ms={statistics.geometric_mean(medians):.2f}")


if __name__ == "__main__":
    main()
