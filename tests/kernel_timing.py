"""Time ``kernelize_fes`` on a seeded 2,000-vertex theta graph (k = 2).

Run from the repository root:

    python3 tests/kernel_timing.py

The input comes from the benchmark's theta generator (two hubs joined by
k + 1 long paths, vertices relabelled at random).  Prints the input size,
the kernel size, the step count and the fastest of five runs in seconds.
It asserts nothing about time, so it is not part of the test suite (pytest
collects only ``test_*.py``).
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fbranch.graph import Graph  # noqa: E402
from fbranch.kernel import kernelize_fes  # noqa: E402
from perfbench.workloads import relabel, theta_graph  # noqa: E402

N, K, SEED, REPEAT = 2000, 2, 0, 5


def main() -> None:
    rng = random.Random(SEED)
    g = Graph(N, relabel(rng, N, theta_graph(rng, N, K)))
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        trace = kernelize_fes(g)
        best = min(best, time.perf_counter() - start)
    print(f"n={g.n} k={trace.k} kernel_n={trace.final_graph.n} "
          f"steps={len(trace.steps)} seconds={best:.4f}")


if __name__ == "__main__":
    main()
