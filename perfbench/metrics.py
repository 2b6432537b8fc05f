"""Metric names, units and directions, and the arithmetic that fills them.

``BENCHMARK.json`` lists the same names; the benchmark's tests keep the
two in step.
"""

from __future__ import annotations

import math
import statistics

from spans import LAYERS, cache_misses, function_stats
from workloads import SUITES

# (name, unit, better); see README.md for what each one means per workload
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("batch_s", "s", "lower"),
    ("main_gm_s", "s", "lower"),
    ("aux_gm_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

FAMILIES = ("empty", "match", "chain", "chainstrict", "antimatch", "complete")
TIMED = {
    "graph": ("parse_graph", "cut_graph", "bridges", "induced_subgraph",
              "connected_components", "exact_treewidth"),
    "cutfn": ("ntc_value", "generic_pattern_value"),
    "decomp": ("exact_branchwidth_dp", "exact_branchwidth_enum", "decomposition_width",
               "validate_decomposition", "edge_cut", "greedy_branchwidth",
               "find_balanced_edge"),
    "families": ("classify_si", "find_homogeneous_subset"),
    "typseq": ("typical_of", "interleave", "enumerate_typical"),
    "kernel": ("kernelize_fes", "reduce_bridges_isolated", "find_unimportant_path",
               "contract_path_edge", "apply_step"),
    "treedepth": ("treedepth_decomposition", "prune_by_treedepth"),
    "canonical": ("canonical_form",),
    "atlas": ("all_graph_classes", "connected_graph_classes", "tree_classes"),
}
# counts taken from the ops' own outputs rather than from spans
OUTPUT_COUNTS = (("kernel.steps", "lower"), ("treedepth.removed_vertices", "higher"))
COUNT_NAMES = {name for name, _ in OUTPUT_COUNTS}


def per_layer_specs() -> list[tuple[str, str, str]]:
    specs = [("cli.main.self_s", "s", "lower")]
    for module, funcs in TIMED.items():
        for f in funcs:
            specs += [(f"{module}.{f}.calls", "count", "lower"),
                      (f"{module}.{f}.s", "s", "lower")]
        if module == "cutfn":
            for fam in FAMILIES:
                specs += [(f"cutfn.family_value.{fam}.calls", "count", "lower"),
                          (f"cutfn.family_value.{fam}.s", "s", "lower")]
            specs += [("cutfn.value_of_mask.calls", "count", "lower"),
                      ("cutfn.value_of_mask.s", "s", "lower"),
                      ("cutfn.value_of_mask.self_s", "s", "lower"),
                      ("cutfn.family_value_of_mask.calls", "count", "lower"),
                      ("cutfn.cache_hit_ratio", "1", "higher")]
        if module == "decomp":
            specs.append(("decomp.dp_self_s", "s", "lower"))
    specs += [(name, "count", better) for name, better in OUTPUT_COUNTS]
    for suite in SUITES:
        specs += [(f"verify.{suite}.s", "s", "lower"),
                  (f"verify.{suite}.tested", "count", "higher")]
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [("trace.overhead_s", "s", "lower"), ("trace.overhead_share", "1", "lower")]
    return specs


def geomean_of_slots(slot_latencies: dict[str, list[float]], slot_roles: dict[str, str],
                     role: str) -> float:
    """Geometric mean, over the slots of one role, of each slot's median
    latency.  Every slot weighs the same, so a regression in any one slot
    moves the figure by the same share whatever that slot's cost."""
    logs = [math.log(statistics.median(xs)) for slot, xs in slot_latencies.items()
            if slot_roles[slot] == role]
    return math.exp(sum(logs) / len(logs))


def end_to_end(setup_s: float, slot_latencies: dict[str, list[float]],
               slot_roles: dict[str, str], peak_rss_mb: float) -> dict[str, float]:
    """batch_s is the wall time of one batch at median op costs: the sum
    over the batch's ops of each op's median latency in the run.  Taking
    per-slot medians keeps one slow stretch of the machine, or one op cut
    off by the deadline, from deciding the figures."""
    return {
        "setup_s": setup_s,
        "batch_s": sum(statistics.median(xs) for xs in slot_latencies.values()),
        "main_gm_s": geomean_of_slots(slot_latencies, slot_roles, "main"),
        "aux_gm_s": geomean_of_slots(slot_latencies, slot_roles, "aux"),
        "peak_rss_mb": peak_rss_mb,
    }


def scale_times(values: dict[str, float], setup_factor: float, run_factor: float
                ) -> dict[str, float]:
    """End-to-end figures with the times scaled to the reference speed
    (hostspeed.py): set-up by the speed measured around the set-ups, the
    op latencies by the speed measured around the ops."""
    out = dict(values)
    out["setup_s"] *= setup_factor
    for name in ("batch_s", "main_gm_s", "aux_gm_s"):
        out[name] *= run_factor
    return out


def per_layer(spans: list[tuple], agg: dict, traced_batches: int,
              counts: dict[str, float], overhead_s: float, untraced_batch_s: float
              ) -> dict[str, float]:
    """Per-layer figures per traced batch: sums over the traced batches
    divided by their number."""
    stats = function_stats(spans, agg)
    per = 1.0 / traced_batches

    def stat(name: str, i: int) -> float:
        return stats[name][i] * per if name in stats else 0.0

    out: dict[str, float] = {}
    for name, _, _ in per_layer_specs():
        parts = name.split(".")
        if name == "cli.main.self_s":
            out[name] = stat("cli.main", 2)
        elif name == "cutfn.cache_hit_ratio":
            lookups = stat("cutfn.family_value_of_mask", 0)
            misses = cache_misses(agg) * per
            out[name] = 1.0 - misses / lookups if lookups else 0.0
        elif name == "decomp.dp_self_s":
            out[name] = stat("decomp.exact_branchwidth_dp", 2)
        elif name in COUNT_NAMES or name.endswith(".tested"):
            out[name] = counts.get(name, 0) * per
        elif name.startswith("trace."):
            out[name] = overhead_s if name == "trace.overhead_s" else (
                overhead_s / untraced_batch_s if untraced_batch_s else 0.0)
        elif len(parts) == 2 and parts[1] == "self_s":
            out[name] = sum(st[2] for fn, st in stats.items()
                            if fn.split(".")[0] == parts[0]) * per
        else:
            fn, which = ".".join(parts[:-1]), parts[-1]
            out[name] = stat(fn, {"calls": 0, "s": 1, "self_s": 2}[which])
    return out
