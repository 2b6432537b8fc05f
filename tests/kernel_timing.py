"""Time ``kernelize_fes`` on a seeded 2,000-vertex theta graph (k = 2), and
the phases of the benchmark's ``kernelize`` op.

Run from the repository root:

    python3 tests/kernel_timing.py

The first input comes from the benchmark's theta generator (two hubs joined
by k + 1 long paths, vertices relabelled at random).  The script prints its
size, the kernel size, the step count and the fastest of five runs in
seconds.  It then splits the ``kernelize --out --trace`` op on the
benchmark's 16 seed-1 kernel inputs (batches 0-3 of the ``preprocess``
workload) into its phases: ``parse_graph``, ``kernelize_fes``,
``to_json_dict``, ``_json`` and the two file writes, the fastest of five
runs each.  It also times the whole op through ``fbranch.cli.main``, which
adds argparse and the stdout line.  Every figure is in milliseconds: one
row per input, then the sum over the inputs and each phase's share of it.
It asserts nothing about time, so it is not part of the test suite (pytest
collects only ``test_*.py``).
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fbranch.cli import SCHEMA, _json, main  # noqa: E402
from fbranch.graph import Graph, graph_to_text, parse_graph  # noqa: E402
from fbranch.kernel import kernelize_fes  # noqa: E402
from perfbench.workloads import batch_ops, relabel, theta_graph  # noqa: E402

N, K, SEED, REPEAT = 2000, 2, 0, 5
BENCH_SEED, BATCHES = 1, range(4)
PHASES = ("parse", "kernelize_fes", "to_json_dict", "_json", "writes", "cli.main")


def best(fn, *args):
    """The fastest of REPEAT calls, in seconds, and the last call's result."""
    fastest = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = fn(*args)
        fastest = min(fastest, time.perf_counter() - start)
    return fastest, result


def write_both(out: Path, trace: Path, final: Graph, text: str) -> None:
    out.write_text(graph_to_text(final))
    trace.write_text(text)


def op_phases(argv: list[str], scratch: Path) -> tuple[int, list[float]]:
    """The input's size and the phases of one ``kernelize`` op, as
    ``cmd_kernelize`` runs them."""
    text = Path(argv[argv.index("--in") + 1]).read_text()
    parse_s, g = best(parse_graph, text)
    kernel_s, trace = best(kernelize_fes, g)
    dict_s, doc = best(lambda: {"schema": SCHEMA, "command": "kernelize",
                                **trace.to_json_dict()})
    json_s, out_text = best(_json, doc)
    write_s, _ = best(write_both, scratch / "kernel", scratch / "trace.json",
                      trace.final_graph, out_text + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        main_s, _ = best(main, argv)
    return g.n, [parse_s, kernel_s, dict_s, json_s, write_s, main_s]


def main_theta() -> None:
    rng = random.Random(SEED)
    g = Graph(N, relabel(rng, N, theta_graph(rng, N, K)))
    seconds, trace = best(kernelize_fes, g)
    print(f"n={g.n} k={trace.k} kernel_n={trace.final_graph.n} "
          f"steps={len(trace.steps)} seconds={seconds:.4f}")


def main_phases() -> None:
    print(f"kernelize op phases, ms, best of {REPEAT}, "
          f"preprocess seed {BENCH_SEED} batches {BATCHES.start}-{BATCHES.stop - 1}")
    print(f"{'input':>14} {'n':>5} " + " ".join(f"{p:>13}" for p in PHASES))
    totals = [0.0] * len(PHASES)
    with tempfile.TemporaryDirectory() as tmp:
        for batch in BATCHES:
            work = Path(tmp) / f"b{batch}"
            for op in batch_ops("preprocess", BENCH_SEED, batch, work):
                if op["argv"][0] != "kernelize":
                    continue
                n, row = op_phases(op["argv"], Path(tmp))
                totals = [t + s for t, s in zip(totals, row)]
                print(f"{op['slot'] + '/' + str(batch):>14} {n:>5} "
                      + " ".join(f"{1e3 * s:>13.3f}" for s in row))
    print(f"{'sum':>14} {'':>5} " + " ".join(f"{1e3 * s:>13.3f}" for s in totals))
    whole = totals[-1]
    print(f"{'share of main':>14} {'':>5} "
          + " ".join(f"{s / whole:>13.3f}" for s in totals))


if __name__ == "__main__":
    main_theta()
    main_phases()
