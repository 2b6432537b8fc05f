"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed, one run at a time, and prints for each
metric its median and its interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to a third of the metric's
bound from BENCHMARK.json.  Use it to check that the benchmark is steady:

    python3 perfbench/spread.py --workload solve-ntc --seeds 1-10
    python3 perfbench/spread.py --workload solve-ntc --seeds 3*10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    """``a-b``: seeds a to b; ``s*n``: seed s, n times (run-to-run noise
    without input-to-input variance)."""
    if "*" in text:
        seed, _, times = text.partition("*")
        return [int(seed)] * int(times)
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5",
                    help="inclusive range (1-10) or one seed repeated (3*10)")
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=200, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        print(f"{name:14s} median {med:.4f}  spread {(q3 - q1) / med:.3f}  "
              f"(bound {bounds[name]}, a third: {bounds[name] / 3:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
