"""One benchmark process: set up a workload's inputs, or run its ops.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path, so
fbranch's module-level caches start cold.  Every op is one call of
``fbranch.cli.main`` in this process, one at a time; before each op garbage
is collected and the package's ``lru_cache`` tables are cleared, so every
op pays for its cache fills as a separate CLI invocation would.

Modes:
  --setup-only       import fbranch, write the inputs and the manifest,
                     print the clock reading at the end, exit
  (default)          run the first batch whole, then ops until --seconds
                     have passed; with --trace 1, run whole batches, each
                     untraced and traced, alternating which goes first,
                     while the next pair should end within --seconds
  --record-batches N run exactly N untraced batches and write each op's
                     answer (used to record the answers of a commit)
The result is written as JSON to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ANSWERS = Path(__file__).resolve().parent / "answers.json"
AUX_REPEATS = 5


def lru_caches() -> list:
    """Every lru_cache table of the fbranch modules (before any wrapping)."""
    found = []
    for short in spans.MODULES:
        mod = sys.modules[f"fbranch.{short}"]
        found += [obj for obj in vars(mod).values()
                  if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__]
    return found


def recorded_answers(workload: str, seed: int) -> dict:
    if not ANSWERS.exists():
        return {}
    return json.loads(ANSWERS.read_text()).get(workload, {}).get(str(seed), {})


class Runner:
    def __init__(self, workload: str, seed: int, manifest: dict):
        import fbranch.cli
        self.cli = fbranch.cli  # main is looked up per op, so tracing sees it
        self.caches = lru_caches()
        self.batches = manifest["batches"]
        self.recorded = recorded_answers(workload, seed)
        self.attempted = 0
        self.failures: list[str] = []
        # untraced op latencies by slot, each slot's role, and the
        # reference-loop times taken around the untraced ops
        self.slot_latencies: dict[str, list[float]] = {}
        self.loop_times: list[float] = []
        self.slot_roles: dict[str, str] = {}
        self.answers: dict[str, dict] = {}
        self.checked_against_record = 0
        self.tracer: spans.Tracer | None = None
        self.counts: dict[str, float] = {}

    def call(self, op: dict, op_id, traced: bool) -> tuple[float, int, str, str]:
        """One timed ``fbranch.cli.main`` call: (latency, exit code, stdout,
        stderr)."""
        gc.collect()  # a fresh CLI process starts with no garbage either
        for cache in self.caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.begin_op(op_id, f"op.{op['argv'][0]}")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op["argv"]))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed op, not a failed run
            code = 1
            err.write(repr(exc))
        elapsed = time.perf_counter() - t0
        if traced:
            self.tracer.end_op()
        return elapsed, code, out.getvalue(), err.getvalue()

    def run_op(self, op: dict, op_id, ctx: dict, traced: bool) -> float:
        """Run one op, check its output; returns its wall latency (the CLI
        call only: collecting garbage, clearing caches and checking are not
        timed).  Aux ops are millisecond calls that a busy moment of the
        machine can double, so they run AUX_REPEATS times back to back and
        their latency is the fastest run; every run must print the same.
        Untraced, the host's speed is sampled just before and after
        (hostspeed.py)."""
        repeats = AUX_REPEATS if op["role"] == "aux" and not traced else 1
        if not traced:
            self.loop_times.append(hostspeed.loop_time())
        runs = [self.call(op, op_id, traced) for _ in range(repeats)]
        elapsed = min(t for t, _, _, _ in runs)
        _, code, out, err = runs[-1]
        self.attempted += 1
        if not traced:
            self.loop_times.append(hostspeed.loop_time())
            self.slot_latencies.setdefault(op["slot"], []).append(elapsed)
            self.slot_roles[op["slot"]] = op["role"]
        batch_key, slot = op_id[0], op["slot"]
        recorded = self.recorded.get(batch_key, {}).get(slot)
        answer, errors = checks.check_op(op, code, out, ctx, recorded)
        if any(run[1:3] != (code, out) for run in runs):
            errors.append("repeated runs printed different output")
        if recorded is not None:
            self.checked_against_record += 1
        self.answers.setdefault(batch_key, {})[slot] = answer
        if errors:
            self.failures.append(f"batch {batch_key} {slot}: {'; '.join(errors)}"
                                 + (f" [{err.strip()[:200]}]" if err else ""))
        return elapsed

    def run_batch(self, b: int, traced: bool = False, deadline: float | None = None) -> float:
        """Run batch b (input batch b mod MAX_BATCHES); returns the summed
        op latencies.  With a deadline, stops before the first op that
        would start after it."""
        index = b % len(self.batches)
        ctx: dict = {}
        uninstall = spans.install(self.tracer) if traced else None
        elapsed = 0.0
        try:
            for i, op in enumerate(self.batches[index]):
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                elapsed += self.run_op(op, (str(index), b, i), ctx, traced)
        finally:
            if uninstall is not None:
                uninstall()
        if traced:
            for name, value in ctx.get("counts", {}).items():
                self.counts[name] = self.counts.get(name, 0) + value
        return elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-batches", type=int, default=0)
    args = ap.parse_args()
    work = Path(args.work)

    if args.setup_only:
        import fbranch.cli  # noqa: F401  (import cost belongs to set-up)
        workloads.write_inputs(args.workload, args.seed, work)
        print(time.perf_counter())
        return 0

    manifest = json.loads((work / "manifest.json").read_text())
    runner = Runner(args.workload, args.seed, manifest)
    untraced_times: list[float] = []
    peak_rss_mb = 0.0
    traced_times: list[float] = []
    start = time.perf_counter()
    if args.record_batches:
        runner.recorded = {}
        for b in range(args.record_batches):
            runner.run_batch(b)
    elif args.trace:
        runner.tracer = spans.Tracer()
        # the first pair always runs; a later one only if it should end
        # before --seconds, judging by the previous pair's duration
        b, pair_s = 0, 0.0
        while b == 0 or time.perf_counter() - start + pair_s <= args.seconds:
            t0 = time.perf_counter()
            # each batch twice, alternating which run goes first
            for traced in (b % 2 == 1, b % 2 == 0):
                times = traced_times if traced else untraced_times
                times.append(runner.run_batch(b, traced=traced))
            pair_s = time.perf_counter() - t0
            b += 1
    else:
        # the first batch runs whole; then ops run until the deadline.  Peak
        # memory is read after the first batch, so it covers the same
        # inputs however many batches a run gets through.
        runner.run_batch(0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        b = 1
        while time.perf_counter() - start < args.seconds:
            runner.run_batch(b, deadline=start + args.seconds)
            b += 1

    result = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "ops_per_batch": len(runner.batches[0]),
        "traced_batches": len(traced_times),
        "slot_latencies": runner.slot_latencies,
        "slot_roles": runner.slot_roles,
        "loop_times": runner.loop_times,
        "peak_rss_mb": peak_rss_mb,
        "answers": runner.answers,
        "recorded_batches": sorted(runner.recorded, key=int),
        "checked_against_record": runner.checked_against_record,
    }
    if args.trace:
        overhead = statistics.median(t - u for t, u in zip(traced_times, untraced_times))
        result["per_layer"] = metrics.per_layer(
            runner.tracer.spans, runner.tracer.agg, len(traced_times), runner.counts,
            overhead, statistics.median(untraced_times))
        result["spans"] = len(runner.tracer.spans)
        result["aggregates"] = len(runner.tracer.agg)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
