"""The benchmark's tracer still sees the cut engine.

perfbench's ``spans.py`` counts cut-cache lookups as calls of
``CutEvaluator.family_value_of_mask`` and misses as the calls of
``cutfn.family_value`` made from there, per family.  An engine that reached
its searches some other way would read zero misses in every traced run;
this guard runs the tracer (loaded read-only from ``perfbench/``) around
one dp and one greedy solve.
"""

import importlib.util
import itertools
import random
from pathlib import Path

import fbranch.decomp as decomp
from fbranch.cutfn import ALL_FAMILIES, PRIMAL
from fbranch.graph import Graph

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _graph(seed, n, p):
    rng = random.Random(seed)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    edges += [(v - 1, v) for v in range(1, n) if (v - 1, v) not in edges]
    return Graph(n, edges)


def _solves():
    out = []
    # looked up on the module at call time, so the traced run calls the wrappers
    for solver, g, sel in (("exact_branchwidth_dp", _graph(1, 9, 0.4), ALL_FAMILIES),
                           ("greedy_branchwidth", _graph(2, 14, 0.3), PRIMAL)):
        width, bd = getattr(decomp, solver)(g, sel)
        report = decomp.decomposition_width(bd, g, sel).to_json_dict()
        out.append((width, decomp.decomposition_to_text(bd), report))
    return out


def test_traced_solves_count_every_family_search_and_match_untraced():
    spans = _spans()
    untraced = _solves()
    tracer = spans.Tracer()
    tracer.begin_op(0, "op.solve")
    uninstall = spans.install(tracer)
    try:
        traced = _solves()
    finally:
        uninstall()
        tracer.end_op()
    assert traced == untraced
    stats = spans.function_stats(tracer.spans, tracer.agg)
    for family in ALL_FAMILIES.ordered:
        assert stats[f"cutfn.family_value.{family.value}"][0] > 0, family
    misses = spans.cache_misses(tracer.agg)
    assert stats["cutfn.family_value_of_mask"][0] >= misses > 0
    assert stats["cutfn.value_of_mask"][0] > 0
