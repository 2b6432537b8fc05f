import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fbranch.families import (
    FAMILY_ORDER,
    Family,
    OrderedBipartiteGraph,
    classify_si,
    find_homogeneous_subset,
    matches_pattern_exactly,
    pair_color,
    parse_ordered_bipartite,
    pattern_edges,
    pattern_graph,
)


def obg(q, edges):
    return OrderedBipartiteGraph(q, frozenset(edges))


def test_pattern_edge_formulas():
    assert pattern_edges(Family.EMPTY, 3) == frozenset()
    assert pattern_edges(Family.MATCH, 3) == {(0, 0), (1, 1), (2, 2)}
    assert pattern_edges(Family.CHAIN, 2) == {(0, 0), (0, 1), (1, 1)}
    assert pattern_edges(Family.CHAINSTRICT, 3) == {(0, 1), (0, 2), (1, 2)}
    assert pattern_edges(Family.ANTIMATCH, 2) == {(0, 1), (1, 0)}
    assert len(pattern_edges(Family.COMPLETE, 3)) == 9


def test_classify_examples():
    assert classify_si(obg(3, [(i, i) for i in range(3)])) == (Family.MATCH,)
    assert classify_si(obg(2, [(0, 0), (0, 1), (1, 1)])) == (Family.CHAIN,)
    assert classify_si(obg(3, [(i, j) for i in range(3) for j in range(3) if i != j])) == (Family.ANTIMATCH,)


def test_classify_each_pattern_to_itself():
    for family in FAMILY_ORDER:
        for q in range(2, 6):
            assert classify_si(pattern_graph(family, q)) == (family,)


def test_classify_q1_degenerate_groups():
    assert classify_si(obg(1, [(0, 0)])) == (Family.MATCH, Family.CHAIN, Family.COMPLETE)
    assert classify_si(obg(1, [])) == (Family.EMPTY, Family.CHAINSTRICT, Family.ANTIMATCH)


def test_classify_tolerates_pair_reordering():
    for family in FAMILY_ORDER:
        for q in range(2, 5):
            base = pattern_graph(family, q)
            for perm in itertools.permutations(range(q)):
                assert family in classify_si(base.induced(list(perm)))


def test_classify_rejects_nonpatterns():
    assert classify_si(obg(2, [(0, 0)])) == ()
    assert classify_si(obg(3, [(0, 1), (1, 0), (2, 2)])) == ()


def classify_by_all_orders(h):
    """The families whose pattern equals h under some pair order, by
    trying every order."""
    patterns = [(f, pattern_edges(f, h.q)) for f in FAMILY_ORDER]
    found = set()
    for perm in itertools.permutations(range(h.q)):
        edges = h.induced(perm).edges
        found.update(f for f, pattern in patterns if edges == pattern)
    return tuple(f for f in FAMILY_ORDER if f in found)


def test_classify_equals_brute_force_over_pair_orders_small():
    for q in range(1, 4):
        cells = [(i, j) for i in range(q) for j in range(q)]
        for bits in range(1 << len(cells)):
            h = obg(q, [c for k, c in enumerate(cells) if bits >> k & 1])
            assert classify_si(h) == classify_by_all_orders(h), sorted(h.edges)


def test_classify_equals_brute_force_over_pair_orders_seeded():
    # relabelled patterns, the same with one cell flipped, and random graphs
    rng = random.Random(23)
    for _ in range(90):
        q = rng.randint(4, 6)
        perm = rng.sample(range(q), q)
        edges = set(pattern_graph(rng.choice(FAMILY_ORDER), q).induced(perm).edges)
        kind = rng.randrange(3)
        if kind == 1:
            edges ^= {(rng.randrange(q), rng.randrange(q))}
        elif kind == 2:
            edges = {(i, j) for i in range(q) for j in range(q) if rng.random() < 0.5}
        h = obg(q, edges)
        assert classify_si(h) == classify_by_all_orders(h), (q, sorted(edges))


def test_classify_is_fast_on_huge_pair_counts():
    # nothing may be allocated per pair before the edge count is checked;
    # run under an address-space limit so a regression fails, not swaps
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
            "from fbranch.families import Family, OrderedBipartiteGraph, classify_si\n"
            "assert classify_si(OrderedBipartiteGraph(10**9, frozenset())) == (Family.EMPTY,)\n"
            "q = 10**5\n"
            "diagonal = frozenset((i, i) for i in range(q))\n"
            "assert classify_si(OrderedBipartiteGraph(q, diagonal)) == (Family.MATCH,)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=30)
    assert done.returncode == 0, done.stderr


def test_patterns_pairwise_distinct_for_q_ge_2():
    for q in range(2, 6):
        for fam1, fam2 in itertools.combinations(FAMILY_ORDER, 2):
            assert classify_si(pattern_graph(fam1, q)) != classify_si(pattern_graph(fam2, q))


def test_partner_hereditary_all_six():
    for family in FAMILY_ORDER:
        for q in range(1, 6):
            big = pattern_graph(family, q)
            for size in range(1, q + 1):
                for subset in itertools.combinations(range(q), size):
                    assert family in classify_si(big.induced(subset))


def test_pair_color_cases():
    h = obg(2, [(0, 1), (1, 0)])
    assert pair_color(h, 0, 1) == 1
    assert pair_color(obg(2, [(0, 1)]), 0, 1) == 2
    assert pair_color(obg(2, [(1, 0)]), 0, 1) == 3
    assert pair_color(obg(2, []), 0, 1) == 4
    with pytest.raises(ValueError):
        pair_color(h, 1, 0)


# the eight cases of the color construction: (color, partners matched) -> tag
COLOR_CASES = {
    (1, True): Family.COMPLETE,
    (1, False): Family.ANTIMATCH,
    (2, True): Family.CHAIN,
    (2, False): Family.CHAINSTRICT,
    (3, True): Family.CHAIN,
    (3, False): Family.CHAINSTRICT,
    (4, True): Family.MATCH,
    (4, False): Family.EMPTY,
}


def test_monochromatic_clique_correspondence():
    for q in range(2, 4):
        all_pairs = [(i, j) for i in range(q) for j in range(q)]
        for bits in range(1 << len(all_pairs)):
            edges = frozenset(all_pairs[i] for i in range(len(all_pairs)) if bits >> i & 1)
            h = obg(q, edges)
            colors = {pair_color(h, i, j) for i, j in itertools.combinations(range(q), 2)}
            matched = {(i, i) in edges for i in range(q)}
            if len(colors) == 1 and len(matched) == 1:
                tag = COLOR_CASES[(colors.pop(), matched.pop())]
                tags = classify_si(h)
                if not tags:
                    tags = classify_si(h.reversed_pairs())
                assert tag in tags


def test_find_homogeneous_examples():
    h = obg(2, [(0, 0), (1, 1)])
    res = find_homogeneous_subset(h, 2)
    assert res is not None and res.pairs == (0, 1) and res.family is Family.MATCH

    res = find_homogeneous_subset(pattern_graph(Family.CHAIN, 4), 3)
    assert res is not None and res.family is Family.CHAIN and len(res.pairs) == 3


def test_find_homogeneous_reversal_reported():
    # color 3 with matched partners: edges a_j b_i for i < j plus the matching
    q = 3
    edges = {(i, i) for i in range(q)} | {(j, i) for i in range(q) for j in range(q) if i < j}
    res = find_homogeneous_subset(obg(q, edges), 3)
    assert res is not None and res.family is Family.CHAIN and res.reversed_order


def test_find_homogeneous_exhaustive_none():
    # a graph whose every 2-subset mixes colors with inconsistent matching
    h = obg(2, [(0, 0)])
    assert find_homogeneous_subset(h, 2) is None
    assert find_homogeneous_subset(h, 1) is not None


def test_find_homogeneous_always_succeeds_n1():
    rng = random.Random(5)
    q = 5
    for _ in range(50):
        edges = {(i, j) for i in range(q) for j in range(q) if rng.random() < 0.5}
        assert find_homogeneous_subset(obg(q, edges), 1) is not None


def test_find_homogeneous_against_exhaustive_search():
    rng = random.Random(17)
    for _ in range(150):
        q = rng.randint(1, 5)
        edges = frozenset((i, j) for i in range(q) for j in range(q) if rng.random() < 0.5)
        h = obg(q, edges)
        for n in range(1, q + 1):
            res = find_homogeneous_subset(h, n)
            exists = any(classify_si(h.induced(sub))
                         for sub in itertools.combinations(range(q), n))
            assert (res is not None) == exists
            if res is not None:
                induced = h.induced(res.pairs)
                assert res.family in classify_si(induced)
                # reversed: the pattern is not exact in the given order but
                # is exact in the reversed one
                pattern = pattern_edges(res.family, n)
                reverse = h.induced(res.pairs[::-1])
                assert res.reversed_order == (induced.edges != pattern
                                              and reverse.edges == pattern)


def test_parse_ordered_bipartite():
    h = parse_ordered_bipartite("2\n1 1\n1 2\n2 2\n")
    assert h.q == 2 and h.edges == {(0, 0), (0, 1), (1, 1)}
    assert classify_si(h) == (Family.CHAIN,)
    with pytest.raises(Exception):
        parse_ordered_bipartite("2\n3 1\n")


def test_matches_pattern_exactly():
    assert matches_pattern_exactly(pattern_graph(Family.CHAIN, 3), Family.CHAIN)
    assert not matches_pattern_exactly(pattern_graph(Family.CHAIN, 3), Family.COMPLETE)


def test_classify_is_linear_in_the_edges(monkeypatch):
    # a large pair count with few edges must not visit the q * q cells of
    # the family patterns
    import fbranch.families as families
    q = 2000
    calls = 0
    real = families.pattern_has_edge

    def counted(family, i, j):
        nonlocal calls
        calls += 1
        assert calls <= 4 * q, "pattern cells visited beyond the input's edges"
        return real(family, i, j)

    monkeypatch.setattr(families, "pattern_has_edge", counted)
    assert classify_si(obg(q, [])) == (Family.EMPTY,)
    assert classify_si(obg(q, [(i, i) for i in range(q)])) == (Family.MATCH,)
    assert classify_si(obg(q, [(i, i) for i in range(q - 1)])) == ()
