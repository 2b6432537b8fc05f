"""Record the answers of the current commit for later runs to compare with.

For each workload and seed, runs the first BATCHES input batches once,
untraced, checks them with the structural checks, and stores every op's
answer in answers.json (widths, kernel n/k/steps, prune survivor counts,
each suite's status and tested count, typical-sequence output digests).
Refuses to record a seed whose ops fail their checks.

    python3 perfbench/record.py --seeds 0-10 --jobs 2
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import worker_env  # noqa: E402
from spread import seed_list  # noqa: E402

BATCHES = 6
ANSWERS = HERE / "answers.json"


def record_one(root: Path, workload: str, seed: int) -> tuple[str, int, dict, list[str]]:
    env, _ = worker_env(root)
    work = root / ".perfbench_work" / f"record-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
              "--seed", str(seed), "--work", str(work)]
    try:
        subprocess.run(worker + ["--setup-only"], env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        subprocess.run(worker + ["--record-batches", str(BATCHES),
                                 "--result", str(work / "result.json")],
                       env=env, check=True, timeout=1800)
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return workload, seed, result["answers"], result["failures"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-10", help="inclusive range, e.g. 0-10")
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "fbranch" / "cli.py").is_file():
        sys.stderr.write("error: run from the root of an fbranch checkout\n")
        return 2
    answers = json.loads(ANSWERS.read_text()) if ANSWERS.exists() else {}
    tasks = [(w, s) for w in args.workloads.split(",") for s in seed_list(args.seeds)]
    bad = 0
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(record_one, root, w, s) for w, s in tasks]
        for fut in futures:
            workload, seed, got, failures = fut.result()
            if failures:
                bad += 1
                print(f"{workload} seed {seed}: NOT recorded, {len(failures)} failed ops: "
                      f"{failures[:3]}", flush=True)
                continue
            answers.setdefault(workload, {})[str(seed)] = got
            print(f"{workload} seed {seed}: recorded {sum(map(len, got.values()))} answers",
                  flush=True)
    ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
