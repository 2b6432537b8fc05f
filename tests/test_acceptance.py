"""Acceptance gate: every structural-law suite at its full budget.

Each test runs one criterion end to end, prints a one-line verdict, and
fails on any violation.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import json

from fbranch.verify import (
    suite_balanced_edge,
    suite_chain_swap,
    suite_classification,
    suite_component,
    suite_cutfn_oracle,
    suite_fes_safety,
    suite_primal_3approx,
    suite_prune_safety,
    suite_solver_equivalence,
    suite_tw_bound,
    suite_typ_bounds,
)


def _check(result, tested):
    """The suite passes, on exactly ``tested`` instances: a change in how
    its instances are generated fails here, not silently."""
    print(result.line())
    assert result.ok, json.dumps(result.violations[:3], indent=2, default=str)
    assert result.tested == tested


def test_criterion_01_solver_oracle_equivalence():
    # all connected classes n <= 6 plus 200 seeded random n = 7 graphs,
    # five selectors, dynamic program versus enumeration: zero mismatches
    _check(suite_solver_equivalence(seed=0, random_count=200, enum_n=6), 1715)


def test_criterion_02_cutfn_oracle_equivalence():
    # every cut of every graph class n <= 5, all six families
    _check(suite_cutfn_oracle(max_n=5), 7836)


def test_criterion_03_treewidth_bound():
    # primal-union width <= treewidth + 1 on all connected classes n <= 7
    _check(suite_tw_bound(max_n=7), 6972)


def test_criterion_04_component_additivity():
    # 100 seeded disconnected graphs n <= 8, exact width = max over
    # components (with the documented one-pair anti-matching floor)
    _check(suite_component(seed=0, count=100, max_n=8), 700)


def test_criterion_05_chain_strict_swap():
    # |width difference| <= 1 on all classes n <= 6, both selector pairs
    _check(suite_chain_swap(max_n=6), 416)


def test_criterion_06_primal_3_approximation():
    # all-six-family width of an optimal primal decomposition is at most
    # three times the exact all-six-family width, all classes n <= 6
    _check(suite_primal_3approx(max_n=6), 208)


def test_criterion_07_fes_kernel_safety():
    # 100 seeded cycle-plus-pendant-trees instances: every contraction
    # preserves every primal-union width; kernels are within 18k - 8
    _check(suite_fes_safety(seed=0, count=100), 611)


def test_criterion_08_typical_sequences():
    # enumeration bounds for k <= 4; compression laws on 10,000 seeded
    # sequences; interleaving commutative on 500 seeded pairs
    _check(suite_typ_bounds(seed=0, law_count=10000, interleave_count=500), 10505)


def test_criterion_09_balanced_edge():
    # every subcubic tree shape up to 12 nodes, 20 seeded leaf markings
    # each, returned edge verified 1/3-balanced by exhaustive check
    _check(suite_balanced_edge(seed=0, max_nodes=12, markings_per_tree=20), 5660)


def test_criterion_10_treedepth_prune_safety():
    # 50 seeded spiders/brooms n <= 12 at the surrogate threshold, plus the
    # hand-evaluated bound-calculator base cases
    _check(suite_prune_safety(seed=0, count=50), 353)


def test_criterion_11_classification():
    # exact recognition and partner-hereditarity for q <= 5; 1000 seeded
    # ordered bipartite graphs with homogeneous subsets reclassified
    _check(suite_classification(seed=0, count=1000, hereditary_q=5), 1360)
