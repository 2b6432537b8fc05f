"""Empirical verification suites for the package's structural laws.

Each suite generates its instances deterministically from a seed, checks
one law at the stated tolerance, and reports the count tested plus any
violations (serializable dicts, so a harness can dump counterexamples for
triage).  The suites double as the acceptance gate: run with their default
budgets they cover every acceptance criterion.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .atlas import all_graph_classes, connected_graph_classes, tree_classes
from .cutfn import (
    ALL_FAMILIES,
    PRIMAL,
    CutEvaluator,
    FamilySelector,
    family_value,
    generic_pattern_value,
)
from .decomp import (
    BranchDecomposition,
    _edge_sides,
    component_law_expected,
    decomposition_width,
    exact_branchwidth_dp,
    exact_width_dp,
    exact_width_enum,
    find_balanced_edge,
)
from .families import FAMILY_ORDER, Family, OrderedBipartiteGraph, classify_si, find_homogeneous_subset
from .graph import Graph, connected_components, cut_graph, exact_treewidth, graph_to_text, induced_subgraph
from .kernel import (
    ContractionStep,
    apply_step,
    kernel_vertex_bound,
    kernelize_fes,
)
from .treedepth import bound_f_star, bound_g, bound_h, prune_by_treedepth
from .typseq import enumerate_typical, interleave, shift, typical_of

PRIMAL_UNIONS = tuple(
    FamilySelector(families=frozenset(fams))
    for r in (1, 2, 3)
    for fams in itertools.combinations(
        (Family.MATCH, Family.CHAIN, Family.ANTIMATCH), r))
TYP_MAX_K = 4  # typ-bounds checks the length and count bounds for k = 0..4


@dataclass
class SuiteResult:
    name: str
    tested: int
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (f"[{status}] {self.name}: {self.tested} instances, "
                f"{len(self.violations)} violations")


def _width_cache() -> Callable[[Graph, FamilySelector], int]:
    """A memo of exact widths for one suite, keyed by labeled graph and
    selector: the instance generators reproduce identical labelings across
    seeds, so a labeled key dedupes nearly as well as an isomorphism key at
    a fraction of the cost; one evaluator per graph shares the per-family
    cut values between selectors."""
    evaluator = functools.cache(CutEvaluator)
    return functools.cache(lambda g, sel: exact_width_dp(g, sel, evaluator=evaluator(g))[0])


def _random_connected(rng: random.Random, n: int) -> Graph:
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((min(order[i], order[j]), max(order[i], order[j])))
    p = rng.uniform(0.1, 0.7)
    for e in itertools.combinations(range(n), 2):
        if rng.random() < p:
            edges.add(e)
    return Graph(n, sorted(edges))


def _random_disconnected(rng: random.Random, n: int) -> Graph:
    n1 = rng.randint(1, n - 1)
    sizes = [n1, n - n1]
    if sizes[1] > 2 and rng.random() < 0.3:
        extra = rng.randint(1, sizes[1] - 1)
        sizes = [sizes[0], extra, sizes[1] - extra]
    edges = []
    offset = 0
    for s in sizes:
        if s > 1:
            part = _random_connected(rng, s)
            edges.extend((u + offset, v + offset) for u, v in part.edges())
        offset += s
    return Graph(n, edges)


def suite_solver_equivalence(seed: int = 0, random_count: int = 200,
                             enum_n: int = 6) -> SuiteResult:
    """Dynamic program versus full enumeration, on every connected class up
    to ``enum_n`` vertices plus seeded random graphs one vertex larger."""
    selectors = [FamilySelector.of(Family.MATCH), FamilySelector.of(Family.CHAIN),
                 FamilySelector.of(Family.ANTIMATCH), PRIMAL, ALL_FAMILIES]
    res = SuiteResult("solver-equivalence", 0)
    rng = random.Random(seed)
    graphs = []
    for n in range(1, enum_n + 1):
        graphs.extend(connected_graph_classes(n))
    for _ in range(random_count):
        graphs.append(_random_connected(rng, enum_n + 1))
    for g in graphs:
        ev = CutEvaluator(g)
        for sel in selectors:
            w_dp = exact_width_dp(g, sel, evaluator=ev)[0]
            w_enum = exact_width_enum(g, sel, evaluator=ev)[0]
            res.tested += 1
            if w_dp != w_enum:
                res.violations.append({
                    "graph": graph_to_text(g), "selector": sel.name(),
                    "dp": w_dp, "enum": w_enum})
    return res


def suite_cutfn_oracle(max_n: int = 5) -> SuiteResult:
    """Optimized evaluators versus the exhaustive ordered-selection oracle
    on every cut of every graph class, all six families."""
    res = SuiteResult("cutfn-oracle", 0)
    for n in range(1, max_n + 1):
        for g in all_graph_classes(n):
            for mask in range(1 << n):
                b = cut_graph(g, [v for v in range(n) if mask >> v & 1])
                for family in FAMILY_ORDER:
                    fast = family_value(b, family)[0]
                    slow = generic_pattern_value(b, family)
                    res.tested += 1
                    if fast != slow:
                        res.violations.append({
                            "graph": graph_to_text(g), "cut": mask,
                            "family": family.value, "fast": fast, "slow": slow})
    return res


def suite_tw_bound(max_n: int = 7) -> SuiteResult:
    """Primal-union width is at most treewidth plus one, on every connected
    class up to ``max_n`` vertices."""
    res = SuiteResult("tw-bound", 0)
    for n in range(1, max_n + 1):
        for g in connected_graph_classes(n):
            tw = exact_treewidth(g)
            ev = CutEvaluator(g)
            for sel in PRIMAL_UNIONS:
                w = exact_width_dp(g, sel, evaluator=ev)[0]
                res.tested += 1
                if w > tw + 1:
                    res.violations.append({
                        "graph": graph_to_text(g), "selector": sel.name(),
                        "width": w, "treewidth": tw})
    return res


def suite_component(seed: int = 0, count: int = 100, max_n: int = 8) -> SuiteResult:
    res = SuiteResult("component", 0)
    rng = random.Random(seed)
    width = _width_cache()
    for _ in range(count):
        n = rng.randint(2, max_n)
        g = _random_disconnected(rng, n)
        comps = connected_components(g)
        ev = CutEvaluator(g)
        for sel in PRIMAL_UNIONS:
            # the enumerative solver never routes through components, so it
            # measures the whole graph independently of the law under test
            whole = exact_width_enum(g, sel, evaluator=ev)[0]
            parts = [width(induced_subgraph(g, c)[0], sel) for c in comps]
            expected = component_law_expected(g, parts, sel)
            res.tested += 1
            if whole != expected:
                res.violations.append({
                    "graph": graph_to_text(g), "selector": sel.name(),
                    "whole": whole, "expected": expected,
                    "components": parts})
    return res


def suite_chain_swap(max_n: int = 6) -> SuiteResult:
    """Swapping the strict chain family for the chain family moves the
    exact width by at most one."""
    pairs = [
        (FamilySelector.of(Family.CHAINSTRICT, Family.MATCH),
         FamilySelector.of(Family.CHAIN, Family.MATCH)),
        (FamilySelector.of(Family.CHAINSTRICT), FamilySelector.of(Family.CHAIN)),
    ]
    res = SuiteResult("chain-swap", 0)
    for n in range(1, max_n + 1):
        for g in all_graph_classes(n):
            ev = CutEvaluator(g)
            for sel_strict, sel_chain in pairs:
                w1 = exact_width_dp(g, sel_strict, evaluator=ev)[0]
                w2 = exact_width_dp(g, sel_chain, evaluator=ev)[0]
                res.tested += 1
                if abs(w1 - w2) > 1:
                    res.violations.append({
                        "graph": graph_to_text(g),
                        "strict": w1, "chain": w2})
    return res


def suite_primal_3approx(max_n: int = 6) -> SuiteResult:
    """An optimal primal-union decomposition is a 3-approximation for the
    union of all six families."""
    res = SuiteResult("primal-3approx", 0)
    for n in range(1, max_n + 1):
        for g in all_graph_classes(n):
            ev = CutEvaluator(g)
            _, bd = exact_branchwidth_dp(g, PRIMAL, evaluator=ev)
            w_all_on_primal = decomposition_width(bd, g, ALL_FAMILIES, evaluator=ev).width
            w_all_exact = exact_width_dp(g, ALL_FAMILIES, evaluator=ev)[0]
            res.tested += 1
            if w_all_on_primal > 3 * w_all_exact:
                res.violations.append({
                    "graph": graph_to_text(g),
                    "primal_decomposition_width": w_all_on_primal,
                    "exact": w_all_exact})
    return res


def _random_cycle_with_pendants(rng: random.Random, max_total: int = 16) -> Graph:
    cyc = rng.randint(9, 12)
    edges = [(i, (i + 1) % cyc) for i in range(cyc)]
    n = cyc
    for _ in range(rng.randint(0, max_total - cyc)):
        anchor = rng.randrange(n)
        edges.append((anchor, n))
        n += 1
    return Graph(n, edges)


def suite_fes_safety(seed: int = 0, count: int = 100) -> SuiteResult:
    """Kernelization on one-cycle-plus-pendant-trees inputs: every single
    contraction preserves every primal-union width exactly, and the final
    kernel respects the 18k - 8 vertex bound."""
    res = SuiteResult("fes-safety", 0)
    rng = random.Random(seed)
    width = _width_cache()
    for _ in range(count):
        g = _random_cycle_with_pendants(rng)
        trace = kernelize_fes(g)
        res.tested += 1
        if trace.k != 1:
            res.violations.append({"graph": graph_to_text(g), "error": "k != 1"})
            continue
        final = trace.final_graph
        if final.n > kernel_vertex_bound(trace.k):
            res.violations.append({
                "graph": graph_to_text(g), "error": "kernel too large",
                "final_n": final.n})
        # replay the trace, checking width preservation at each contraction
        cur = trace.input_graph
        for step in trace.steps:
            nxt = apply_step(cur, step)
            if isinstance(step, ContractionStep):
                for sel in PRIMAL_UNIONS:
                    before = width(cur, sel)
                    after = width(nxt, sel)
                    res.tested += 1
                    if before != after:
                        res.violations.append({
                            "graph": graph_to_text(cur), "selector": sel.name(),
                            "before": before, "after": after})
            cur = nxt
        if cur != final:
            res.violations.append({
                "graph": graph_to_text(g), "error": "trace replay mismatch"})
    return res


def suite_typ_bounds(seed: int = 0, law_count: int = 10000,
                     interleave_count: int = 500) -> SuiteResult:
    res = SuiteResult("typ-bounds", 0)
    for k in range(TYP_MAX_K + 1):
        seqs = enumerate_typical(k)
        res.tested += 1
        if any(len(s) > 2 * k + 1 for s in seqs):
            res.violations.append({"k": k, "error": "length bound exceeded"})
        if len(seqs) > math.ceil(8 / 3 * 2 ** (2 * k)):
            res.violations.append({"k": k, "error": "count bound exceeded",
                                   "count": len(seqs)})
    rng = random.Random(seed)
    for _ in range(law_count):
        s = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 10)))
        t = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 6)))
        z = rng.randint(0, 4)
        res.tested += 1
        ok = (typical_of(typical_of(s)) == typical_of(s)
              and typical_of(s + t) == typical_of(typical_of(s) + typical_of(t))
              and typical_of(shift(s, z)) == shift(typical_of(s), z))
        if not ok:
            res.violations.append({"sequence": list(s), "other": list(t), "shift": z})
    for _ in range(interleave_count):
        s = typical_of(tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 5))))
        t = typical_of(tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 5))))
        res.tested += 1
        if interleave(s, t) != interleave(t, s):
            res.violations.append({"s": list(s), "t": list(t),
                                   "error": "interleave not commutative"})
    return res


def suite_balanced_edge(seed: int = 0, max_nodes: int = 12,
                        markings_per_tree: int = 20) -> SuiteResult:
    """On every subcubic tree shape, seeded 0/1 leaf markings: the returned
    edge is 1/3-balanced, confirmed by checking every edge exhaustively."""
    res = SuiteResult("balanced-edge", 0)
    rng = random.Random(seed)
    for n in range(2, max_nodes + 1):
        for tree in tree_classes(n, max_degree=3):
            # a tree on two or more nodes has two or more leaves
            leaves = [v for v in range(n) if tree.degree(v) <= 1]
            bd = BranchDecomposition(n, tree.edges(), {v: i for i, v in enumerate(leaves)})
            for _ in range(markings_per_tree):
                m = rng.randint(2, len(leaves))
                marked = set(rng.sample(leaves, m))
                weights = {v: (1 if v in marked else 0) for v in range(n)}
                edge = find_balanced_edge(bd, weights)
                res.tested += 1
                # one walk gives every edge's side; either side may be read
                sides = _edge_sides(bd.adjacency, 0, weights)
                if edge not in [e for e, side in sides.items() if m <= 3 * side <= 2 * m]:
                    res.violations.append({
                        "tree": graph_to_text(tree), "marked": sorted(marked),
                        "edge": list(edge)})
    return res


def _random_spider_or_broom(rng: random.Random, max_n: int = 12) -> Graph:
    if rng.random() < 0.5:
        legs = rng.randint(2, 9)
        leg_len = rng.randint(1, 3)
        while 1 + legs * leg_len > max_n:
            if leg_len > 1:
                leg_len -= 1
            else:
                legs -= 1
        edges = []
        n = 1
        for _ in range(legs):
            prev = 0
            for _ in range(leg_len):
                edges.append((prev, n))
                prev = n
                n += 1
        return Graph(n, edges)
    handle = rng.randint(1, 4)
    bristles = rng.randint(2, max_n - handle - 1)
    edges = [(i, i + 1) for i in range(handle)]
    n = handle + 1
    for _ in range(bristles):
        edges.append((handle, n))
        n += 1
    return Graph(n, edges)


def suite_prune_safety(seed: int = 0, count: int = 50) -> SuiteResult:
    """Treedepth-driven pruning at the surrogate threshold preserves every
    primal-union width on seeded spiders and brooms; the bound calculators
    agree with the hand-evaluated base cases."""
    res = SuiteResult("prune-safety", 0)
    res.tested += 3
    if bound_g(1, 1)[0] != 9:
        res.violations.append({"error": "g4(1,1) != 9"})
    if bound_h(1, 1) != 1:
        res.violations.append({"error": "h(1) != 1"})
    if any(bound_f_star(k, p, k) != p for k in range(1, 5) for p in range(1, 5)):
        res.violations.append({"error": "f*(k,p,k) != p"})
    rng = random.Random(seed)
    width = _width_cache()
    for _ in range(count):
        g = _random_spider_or_broom(rng)
        pruned, _ = prune_by_treedepth(g)
        for sel in PRIMAL_UNIONS:
            before = width(g, sel)
            after = width(pruned, sel) if pruned.n else 0
            res.tested += 1
            if before != after:
                res.violations.append({
                    "graph": graph_to_text(g), "selector": sel.name(),
                    "before": before, "after": after})
    return res


def suite_classification(seed: int = 0, count: int = 1000,
                         hereditary_q: int = 5) -> SuiteResult:
    res = SuiteResult("classification", 0)
    from .families import pattern_graph
    for family in FAMILY_ORDER:
        for q in range(2, hereditary_q + 1):
            big = pattern_graph(family, q)
            res.tested += 1
            if classify_si(big) != (family,):
                res.violations.append({"family": family.value, "q": q,
                                       "error": "pattern not recognized"})
            for size in range(1, q + 1):
                for subset in itertools.combinations(range(q), size):
                    res.tested += 1
                    if family not in classify_si(big.induced(subset)):
                        res.violations.append({
                            "family": family.value, "q": q,
                            "subset": list(subset),
                            "error": "not partner-hereditary"})
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.randint(1, 6)
        edges = frozenset((i, j) for i in range(q) for j in range(q)
                          if rng.random() < 0.5)
        h = OrderedBipartiteGraph(q, edges)
        n = rng.randint(1, q)
        found = find_homogeneous_subset(h, n)
        res.tested += 1
        if found is not None and found.pairs:
            if found.family not in classify_si(h.induced(found.pairs)):
                res.violations.append({
                    "q": q, "edges": sorted(edges), "n": n,
                    "error": "homogeneous subset fails reclassification"})
    return res


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "solver-equivalence": suite_solver_equivalence,
    "cutfn-oracle": suite_cutfn_oracle,
    "tw-bound": suite_tw_bound,
    "component": suite_component,
    "chain-swap": suite_chain_swap,
    "primal-3approx": suite_primal_3approx,
    "fes-safety": suite_fes_safety,
    "typ-bounds": suite_typ_bounds,
    "balanced-edge": suite_balanced_edge,
    "prune-safety": suite_prune_safety,
    "classification": suite_classification,
}

# conservative budget overrides for a quick interactive run
QUICK_BUDGETS: dict[str, dict] = {
    "solver-equivalence": {"random_count": 20, "enum_n": 5},
    "cutfn-oracle": {"max_n": 4},
    "tw-bound": {"max_n": 6},
    "component": {"count": 25, "max_n": 7},
    "chain-swap": {"max_n": 5},
    "primal-3approx": {"max_n": 5},
    "fes-safety": {"count": 20},
    "typ-bounds": {"law_count": 1000, "interleave_count": 100},
    "balanced-edge": {"max_nodes": 9, "markings_per_tree": 10},
    "prune-safety": {"count": 10},
    "classification": {"count": 200, "hereditary_q": 4},
}


def run_suites(names: list[str] | None = None, seed: int = 0,
               quick: bool = False) -> list[SuiteResult]:
    chosen = names if names else list(SUITES)
    out = []
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: {', '.join(SUITES)}")
        kwargs = dict(QUICK_BUDGETS.get(name, {})) if quick else {}
        fn = SUITES[name]
        if "seed" in fn.__code__.co_varnames[: fn.__code__.co_argcount]:
            kwargs["seed"] = seed
        out.append(fn(**kwargs))
    return out
