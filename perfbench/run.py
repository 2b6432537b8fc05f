"""fbranch benchmark: run one workload and print its metrics.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload solve-families --seed 1 --seconds 25 --trace 0

The run measures set-up (a fresh interpreter that imports fbranch and
writes the seeded inputs; timed five times before and five times after
the timed run, median reported).  It starts one fresh worker interpreter
that calls ``fbranch.cli.main`` in-process, one op at a time, until
``--seconds`` have passed (the first batch always runs whole).
``--trace 0`` reports the end-to-end metrics, with the times scaled to a
reference host speed (hostspeed.py; the ``wall`` line before the result
gives them unscaled); ``--trace 1`` reports the per-layer metrics of the
traced run, in wall time.  Every op's output is checked (see checks.py);
the last line of standard output is the result object.  A checkout without ``src/fbranch`` is refused with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # before and again after the timed run
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def worker_env(root: Path) -> tuple[dict, str]:
    env = dict(os.environ)
    threads = env.pop("FBRANCH_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    state = "unset" if threads is None else f"unset for the run (was {threads!r})"
    return env, state


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fbranch" / "cli.py").is_file():
        sys.stderr.write("error: run from the root of an fbranch checkout "
                         "(src/fbranch/cli.py not found)\n")
        return 2
    env, threads_state = worker_env(root)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--work", str(work)]
    deadline = time.monotonic() + RUN_DEADLINE_S

    setup_loops: list[float] = []

    def setup() -> float:
        setup_loops.append(hostspeed.loop_time())
        # the child prints its perf_counter reading as it finishes (the clock
        # is system-wide), so the parent's polling wait adds nothing
        t0 = time.perf_counter()
        proc = subprocess.run(worker + ["--setup-only"], env=env, check=True,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        wall = float(proc.stdout.split()[-1]) - t0
        setup_loops.append(hostspeed.loop_time())
        return wall

    try:
        # set-up repeats before and after the timed run, so their median
        # is not decided by one stretch of the machine's load
        setups = [setup() for _ in range(SETUP_REPEATS)]
        result_path = work / "result.json"
        subprocess.run(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                 "--result", str(result_path)],
                       env=env, check=True, timeout=max(1.0, deadline - time.monotonic()))
        result = json.loads(result_path.read_text())
        setups += [setup() for _ in range(SETUP_REPEATS)]
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            ValueError) as exc:
        sys.stderr.write(f"error: benchmark process failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    recorded = result["recorded_batches"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "batches": round(result["attempted"] / result["ops_per_batch"], 2),
        "traced_batches": result["traced_batches"],
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "fbranch_threads": threads_state,
        "setup_wall_s": setups,
        "slot_wall_p50_s": {slot: [statistics.median(xs), len(xs)]
                            for slot, xs in result["slot_latencies"].items()},
        "answers": (f"recorded answers for input batches {recorded[0]}-{recorded[-1]} "
                    f"checked on {result['checked_against_record']} ops; "
                    "structural checks on every op") if recorded else
                   "no recorded answers for this seed: structural checks only",
        "failures": result["failures"][:5],
    }
    print("report " + json.dumps(report))
    if args.trace:
        specs = metrics.per_layer_specs()
        values = result["per_layer"]
        print(f"trace: {result['spans']} spans, {result['aggregates']} aggregates")
    else:
        specs = metrics.END_TO_END
        wall = metrics.end_to_end(statistics.median(setups), result["slot_latencies"],
                                  result["slot_roles"], result["peak_rss_mb"])
        values = metrics.scale_times(wall, hostspeed.speed_factor(setup_loops),
                                     hostspeed.speed_factor(result["loop_times"]))
        print("wall " + json.dumps({"metrics": wall,
                                    "loop_ms": {"setup": statistics.fmean(setup_loops) * 1e3,
                                                "run": statistics.fmean(result["loop_times"]) * 1e3}}))
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
