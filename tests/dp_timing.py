"""Time the subset-split dynamic program ``_dp_splits`` on the benchmark's
exact-solve inputs.

Run from the repository root:

    python3 tests/dp_timing.py

The inputs are those of the benchmark's dp slots at seed 1, batches 0-3:
the twin-class (ntc) slots of the ``solve-ntc`` workload and the
pattern-family slots of ``solve-families``, each a connected graph drawn
by ``perfbench.workloads.connected_gnm``.  Every run gets a fresh
``CutEvaluator``, so no cut value is reused across runs.  Prints, per slot,
the median over the batches of the fastest of five runs in milliseconds,
then the geometric mean of the slot medians of each workload.  It asserts
nothing about time, so it is not part of the test suite (pytest collects
only ``test_*.py``).
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fbranch.cutfn import CutEvaluator, FamilySelector  # noqa: E402
from fbranch.decomp import _dp_splits  # noqa: E402
from fbranch.graph import Graph  # noqa: E402
from perfbench.workloads import NTC_SLOTS, SOLVE_SLOTS, connected_gnm, rng_for  # noqa: E402

SEED, BATCHES, REPEAT = 1, range(4), 5
# (workload, slot name, selector, vertex count, density) as the benchmark
# draws them
SLOTS = ([("solve-ntc", f"ntc{i}", "ntc", n, p) for i, (n, p) in enumerate(NTC_SLOTS)]
         + [("solve-families", f"dp{i}", sel, n, p)
            for i, (sel, n, p) in enumerate(SOLVE_SLOTS)])


def best_of(g: Graph, sel: FamilySelector) -> float:
    best = math.inf
    for _ in range(REPEAT):
        ev = CutEvaluator(g)
        start = time.perf_counter()
        _dp_splits(g, sel, ev)
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    medians: dict[str, list[float]] = {}
    for workload, slot, families, n, p in SLOTS:
        sel = FamilySelector.parse(families)
        times = [best_of(Graph(n, connected_gnm(rng_for(workload, SEED, b, slot), n, p)), sel)
                 for b in BATCHES]
        ms = 1000 * statistics.median(times)
        medians.setdefault(workload, []).append(ms)
        print(f"{workload} {slot} {families} n={n} p={p} ms={ms:.3f}")
    for workload, values in medians.items():
        print(f"{workload} geomean_ms={statistics.geometric_mean(values):.3f}")


if __name__ == "__main__":
    main()
