import bisect
import functools
import itertools
import random
from array import array

import pytest

from fbranch import decomp
from fbranch.atlas import all_graph_classes, connected_graph_classes, tree_classes
from fbranch.cutfn import ALL_FAMILIES, PRIMAL, CutEvaluator, FamilySelector, ntc_table
from fbranch.decomp import (
    DP_MAX_N,
    BranchDecomposition,
    _edge_sides,
    component_law_expected,
    decomposition_to_json_dict,
    decomposition_to_text,
    decomposition_width,
    edge_cuts,
    exact_branchwidth_dp,
    exact_branchwidth_enum,
    exact_width_dp,
    exact_width_enum,
    find_balanced_edge,
    greedy_branchwidth,
    parse_decomposition,
)
from fbranch.errors import (
    DecompositionError,
    MalformedLineError,
    SizeLimitError,
)
from fbranch.families import FAMILY_ORDER, Family
from fbranch.graph import (
    Graph,
    _iter_bits,
    connected_components,
    exact_treewidth,
    induced_subgraph,
    mask_of,
    set_of,
)
from fbranch.verify import PRIMAL_UNIONS, _random_connected, _random_disconnected

MATCH = FamilySelector.of(Family.MATCH)
CHAIN = FamilySelector.of(Family.CHAIN)
ANTIMATCH = FamilySelector.of(Family.ANTIMATCH)
# each single family, each primal union, all six families and twin classes
EVERY_SELECTOR = ([FamilySelector.of(f) for f in FAMILY_ORDER] + list(PRIMAL_UNIONS)
                  + [ALL_FAMILIES, FamilySelector.parse("ntc")])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def caterpillar(n):
    """Spine nodes n..2n-3 in order, leaves 0..n-1 attached along it."""
    if n == 2:
        return BranchDecomposition(2, [(0, 1)], {0: 0, 1: 1})
    if n == 3:
        return BranchDecomposition(4, [(0, 3), (1, 3), (2, 3)], {i: i for i in range(3)})
    nodes = 2 * n - 2
    edges = [(0, n), (1, n), (n - 1, nodes - 1), (n - 2, nodes - 1)]
    for i in range(2, n - 2):
        edges.append((i, n + i - 1))
    for s in range(n, nodes - 1):
        edges.append((s, s + 1))
    return BranchDecomposition(nodes, edges, {i: i for i in range(n)})


def enumerate_decompositions(n):
    """All leaf-labeled unrooted binary trees on leaves 0..n-1, each exactly
    once, in a fixed order; (2n-5)!! of them for n >= 3.

    Leaves are the nodes 0..n-1 (mapped identically to vertices); internal
    nodes are n..2n-3.
    """
    if n > decomp.ENUM_MAX_N:
        raise SizeLimitError(
            f"decomposition enumeration limited to n <= {decomp.ENUM_MAX_N}, got {n}")
    for clusters in _hierarchies(n):
        yield decomp._hierarchy_tree(n, clusters)


def _hierarchies(n):
    """Every unrooted leaf-labeled binary tree on the vertices 0..n-1, once
    each, as the cluster masks of its hierarchy hung off vertex 0, in the
    order ``exact_branchwidth_enum`` walks them, with nothing skipped."""

    def grow(clusters, k):
        if k >= n:
            yield clusters
            return
        bit = 1 << k
        for x in clusters:
            lifted = tuple(c | bit if c & x == x else c for c in clusters)
            yield from grow(lifted + (x, bit), k + 1)

    return grow((2,) if n >= 2 else (), 2)


def _unbounded_enum(g, sel, evaluator=None):
    """Reference for ``exact_branchwidth_enum``: the first minimum over
    the full walk, stopping only at the single-vertex floor."""
    n = g.n
    ev = evaluator if evaluator is not None else CutEvaluator(g)
    vals = [ev.value_of_mask(m, sel)[0] for m in range(1 << n)]
    floor = max((vals[1 << v] for v in range(n)), default=0)
    best = None
    best_clusters = ()
    for clusters in _hierarchies(n):
        width = max(map(vals.__getitem__, clusters), default=0)
        if best is None or width < best:
            best = width
            best_clusters = clusters
            if best <= floor:
                break
    return best, decomp._hierarchy_tree(n, best_clusters)


# fault -> (nodes, edges, leaf map, the error), in the order the
# constructor checks for them
FAULTY_TREES = {
    "negative-count": (-1, [], {}, "node count must be nonnegative, got -1"),
    "forest": (4, [(0, 1), (2, 3)], {0: 0, 1: 1, 2: 2, 3: 3},
               "a tree on 4 nodes needs 3 edges, got 2"),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)], {}, "a tree on 3 nodes needs 2 edges, got 3"),
    "edge-out-of-range-high": (2, [(0, 5)], {0: 0},
                               r"tree edge \(0, 5\) out of range for 2 nodes"),
    "edge-out-of-range-low": (2, [(-1, 1)], {1: 0},
                              r"tree edge \(-1, 1\) out of range for 2 nodes"),
    # with the right edge count, a cycle, a duplicate edge or a loop edge
    # leaves some node unreached
    "cycle": (4, [(0, 1), (1, 2), (0, 2)], {3: 0}, "not connected"),
    "duplicate-edge": (3, [(0, 1), (1, 0)], {0: 0, 1: 1, 2: 2}, "not connected"),
    "loop-edge": (3, [(0, 1), (1, 1)], {0: 0, 2: 1}, "not connected"),
    "degree-4": (5, [(0, 4), (1, 4), (2, 4), (3, 4)], {i: i for i in range(4)},
                 "node 4 has degree 4 > 3"),
    "leaf-unmapped": (2, [(0, 1)], {0: 0}, "leaf map must cover exactly the leaves"),
    "internal-node-mapped": (3, [(0, 1), (1, 2)], {0: 0, 1: 1, 2: 2},
                             "leaf map must cover exactly the leaves"),
    "node-out-of-range-mapped": (0, [], {0: 0}, "leaf map must cover exactly the leaves"),
    "leaf-values-with-a-gap": (2, [(0, 1)], {0: 0, 1: 2},
                               r"leaf map must be a bijection onto the vertices 0\.\.1"),
    "leaf-value-twice": (2, [(0, 1)], {0: 1, 1: 1}, "bijection"),
}


@pytest.mark.parametrize("num_nodes, edges, leaf_map, error", FAULTY_TREES.values(),
                         ids=FAULTY_TREES.keys())
def test_constructor_rejects_a_faulty_tree(num_nodes, edges, leaf_map, error):
    with pytest.raises(DecompositionError, match=error):
        BranchDecomposition(num_nodes, edges, leaf_map)


def test_constructor_accepts_the_small_trees():
    assert BranchDecomposition(0, [], {}).adjacency == {}
    assert BranchDecomposition(1, [], {0: 0}).adjacency == {0: set()}
    k2 = BranchDecomposition(2, [(1, 0)], {0: 1, 1: 0})
    assert k2.edges == ((0, 1),) and k2.adjacency == {0: {1}, 1: {0}}
    # a node of degree two is internal, and a leaf may take any node id
    path3 = BranchDecomposition(3, [(0, 2), (2, 1)], {1: 0, 0: 1})
    assert path3.adjacency[2] == {0, 1}


def test_decomposition_width_needs_a_leaf_per_vertex():
    with pytest.raises(DecompositionError, match="2 leaves, graph has 3 vertices"):
        decomposition_width(caterpillar(2), path(3), MATCH)
    with pytest.raises(DecompositionError, match="0 leaves, graph has 1 vertices"):
        decomposition_width(BranchDecomposition(0, [], {}), Graph(1), MATCH)


def test_caterpillars_validate():
    for n in range(2, 8):
        assert len(caterpillar(n).leaf_map) == n


def _reference_edge_cut(bd, e):
    """The per-edge walk ``edge_cuts`` replaced: the vertices mapped into
    the component of bd - e that holds the leaf of the smallest vertex."""
    u, v = e
    side = set()
    stack = [u]
    seen = {u, v}
    while stack:
        x = stack.pop()
        if x in bd.leaf_map:
            side.add(bd.leaf_map[x])
        for w in bd.adjacency[x]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    other = frozenset(bd.leaf_map.values()) - side
    return frozenset(side) if min(bd.leaf_map.values()) in side else other


def test_edge_cuts():
    bd = caterpillar(6)
    cuts = edge_cuts(bd)
    assert sorted(cuts) == list(bd.edges)
    assert cuts[0, 6] == 0b1
    # middle spine edge separates the first three leaves
    assert cuts[7, 8] == 0b111
    k2 = BranchDecomposition(2, [(0, 1)], {0: 0, 1: 1})
    assert edge_cuts(k2) == {(0, 1): 0b1}
    assert edge_cuts(BranchDecomposition(1, [], {0: 0})) == {}


def test_edge_cuts_match_the_per_edge_walk():
    shapes = [bd for n in range(2, 8) for bd in enumerate_decompositions(n)]
    # the deep tree of test_tree_from_splits_builds_a_deep_tree_without_recursion
    shapes.append(decomp._tree_from_splits(1200, lambda m: (m & -m, m ^ (m & -m))))
    for bd in shapes:
        cuts = edge_cuts(bd)
        assert sorted(cuts) == list(bd.edges)
        for e in bd.edges:
            assert cuts[e] == mask_of(_reference_edge_cut(bd, e)), (bd, e)


def test_decomposition_width_examples():
    one = BranchDecomposition(1, [], {0: 0})
    assert decomposition_width(one, Graph(1), MATCH).width == 0

    g = complete_bipartite(3, 3)
    rep = decomposition_width(caterpillar(6), g, FamilySelector.of(Family.COMPLETE))
    assert rep.width == 3

    rep = decomposition_width(caterpillar(6), cycle(6), MATCH)
    assert rep.width == 2
    assert rep.per_edge[rep.argmax_edge][0] == 2


def test_enumerate_counts():
    assert len(list(enumerate_decompositions(3))) == 1
    assert len(list(enumerate_decompositions(4))) == 3
    assert len(list(enumerate_decompositions(6))) == 105  # (2*6-5)!!

    def double_factorial(k):
        out = 1
        while k > 1:
            out *= k
            k -= 2
        return out

    for n in range(3, 8):
        assert len(list(enumerate_decompositions(n))) == double_factorial(2 * n - 5)


def test_enumerate_unique_and_valid():
    g = Graph(6)
    seen = set()
    for bd in enumerate_decompositions(6):
        assert len(bd.leaf_map) == g.n
        key = frozenset(bd.edges)
        assert key not in seen
        seen.add(key)
    with pytest.raises(SizeLimitError):
        exact_branchwidth_enum(Graph(10), MATCH)


def test_exact_branchwidth_enum_examples():
    w, bd = exact_branchwidth_enum(path(4), MATCH)
    assert w == 1
    assert len(bd.leaf_map) == 4
    assert exact_branchwidth_enum(cycle(6), MATCH)[0] == 2
    assert exact_branchwidth_enum(complete_bipartite(3, 3), MATCH)[0] == 1


def test_pruned_enumeration_equals_the_full_walk():
    # the pruned walk over the table filled by complement pairs must return
    # the full walk's first minimum over the full table, tree and all, on
    # every graph class including the empty and the one-vertex graph
    selectors = [MATCH, CHAIN, ANTIMATCH, PRIMAL, ALL_FAMILIES, FamilySelector.parse("ntc")]
    rng = random.Random(41)
    graphs = [g for n in range(7) for g in all_graph_classes(n)]
    for n in range(7, 10):
        graphs += [_random_connected(rng, n), _random_disconnected(rng, n)]
    for g in graphs:
        ev = CutEvaluator(g)
        for sel in selectors:
            w, bd = exact_branchwidth_enum(g, sel, evaluator=ev)
            w_ref, bd_ref = _unbounded_enum(g, sel, evaluator=ev)
            assert (w, decomposition_to_text(bd)) == (w_ref, decomposition_to_text(bd_ref)), (
                g, sel.name())


def test_width_only_cores_equal_the_tree_building_solvers():
    # each wrapper builds its tree from its core's result; the core's width
    # is the wrapper's and the built tree's own width
    rng = random.Random(43)
    graphs = [g for n in range(1, 7) for g in connected_graph_classes(n)]
    graphs += [_random_disconnected(rng, rng.randint(2, 8)) for _ in range(30)]
    for g in graphs:
        ev = CutEvaluator(g)
        for sel in EVERY_SELECTOR:
            for core, solver in ((exact_width_dp, exact_branchwidth_dp),
                                 (exact_width_enum, exact_branchwidth_enum)):
                w, bd = solver(g, sel, evaluator=ev)
                assert core(g, sel, evaluator=ev)[0] == w, (g, sel.name(), core.__name__)
                assert decomposition_width(bd, g, sel, evaluator=ev).width == w


def test_forests_have_width_one():
    primal_subsets = [MATCH, CHAIN, ANTIMATCH, PRIMAL,
                      FamilySelector.of(Family.MATCH, Family.CHAIN)]
    for g in [path(4), path(5), Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])]:
        for sel in primal_subsets:
            w, _ = exact_branchwidth_dp(g, sel)
            assert w == 1, (g, sel.name())


def test_dp_equals_enum_all_connected_n_le_5():
    selectors = [MATCH, CHAIN, ANTIMATCH, PRIMAL, ALL_FAMILIES]
    for n in range(1, 6):
        for g in connected_graph_classes(n):
            ev = CutEvaluator(g)
            for sel in selectors:
                w_enum, bd_e = exact_branchwidth_enum(g, sel, evaluator=ev)
                w_dp, bd_d = exact_branchwidth_dp(g, sel, evaluator=ev)
                assert w_enum == w_dp, (g, sel.name())
                assert len(bd_d.leaf_map) == g.n
                assert decomposition_width(bd_d, g, sel, evaluator=ev).width == w_dp
                assert decomposition_width(bd_e, g, sel, evaluator=ev).width == w_enum


def test_dp_equals_enum_with_ntc():
    # ntc runs the dynamic program on the whole graph, disconnected or not
    ntc = FamilySelector.parse("ntc")
    for n in range(7):
        for g in all_graph_classes(n):
            assert exact_branchwidth_dp(g, ntc)[0] == exact_branchwidth_enum(g, ntc)[0], g


def test_dp_routes_disconnected_through_components():
    rng = random.Random(3)
    for _ in range(20):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        g1 = Graph(n1, [e for e in itertools.combinations(range(n1), 2) if rng.random() < 0.6])
        g2 = Graph(n2, [e for e in itertools.combinations(range(n2), 2) if rng.random() < 0.6])
        g = Graph(n1 + n2, list(g1.edges()) + [(u + n1, v + n1) for u, v in g2.edges()])
        for sel in (MATCH, CHAIN, PRIMAL, ANTIMATCH):
            w_dp, bd = exact_branchwidth_dp(g, sel)
            w_enum, _ = exact_branchwidth_enum(g, sel)
            assert w_dp == w_enum, (g, sel.name())
            assert len(bd.leaf_map) == g.n
            assert decomposition_width(bd, g, sel).width == w_dp


def test_component_law_match_chain_exact_max():
    # two disjoint triangles: widths equal the single-triangle width
    tri2 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    for sel in (MATCH, CHAIN, FamilySelector.of(Family.MATCH, Family.CHAIN)):
        assert exact_branchwidth_dp(tri2, sel)[0] == exact_branchwidth_dp(tri, sel)[0]


def test_component_law_antimatch_degenerate():
    # the one-pair anti-matching pattern crosses components: two K2s have
    # component widths 0 but any cut of the union induces it
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert exact_branchwidth_dp(Graph(2, [(0, 1)]), ANTIMATCH)[0] == 0
    assert exact_branchwidth_dp(two_k2, ANTIMATCH)[0] == 1
    assert exact_branchwidth_enum(two_k2, ANTIMATCH)[0] == 1


def test_greedy_upper_bounds_exact():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(2, 6)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        for sel in (MATCH, PRIMAL):
            w_greedy, bd = greedy_branchwidth(g, sel)
            assert len(bd.leaf_map) == g.n
            assert w_greedy >= exact_branchwidth_dp(g, sel)[0]
    assert greedy_branchwidth(Graph(2, [(0, 1)]), MATCH)[0] == 1
    w_forest, _ = greedy_branchwidth(path(6), MATCH)
    assert w_forest >= 1


def test_treewidth_bound_small():
    for n in range(2, 6):
        for g in connected_graph_classes(n):
            tw = exact_treewidth(g)
            for sel in (MATCH, CHAIN, ANTIMATCH, PRIMAL):
                assert exact_branchwidth_dp(g, sel)[0] <= tw + 1


def test_induced_subgraph_monotone():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(3, 6)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        whole = exact_branchwidth_dp(g, ALL_FAMILIES)[0]
        k = rng.randint(1, n)
        sub, _ = induced_subgraph(g, rng.sample(range(n), k))
        assert exact_branchwidth_dp(sub, ALL_FAMILIES)[0] <= whole


def _tree_decomposition(tree):
    """The subcubic tree ``tree`` as a decomposition, its leaves mapped
    to 0..L-1 in node order, and those leaves."""
    leaves = [v for v in range(tree.n) if tree.degree(v) <= 1]
    return BranchDecomposition(tree.n, tree.edges(), {v: i for i, v in enumerate(leaves)}), leaves


def is_balanced_edge(bd, weights, edge):
    """Whether ``edge`` splits the weight 1/3-to-2/3, read from one walk
    rooted at ``edge[1]`` (the verify suite reads every edge from one walk
    per marking)."""
    total = sum(weights.get(v, 0) for v in bd.adjacency)
    side = _edge_sides(bd.adjacency, edge[1], weights)[min(edge), max(edge)]  # edge[0]'s side
    return total <= 3 * side <= 2 * total


def test_find_balanced_edge_examples():
    two = caterpillar(2)
    assert find_balanced_edge(two, {0: 1, 1: 1}) == (0, 1)

    bd = caterpillar(4)
    w = {v: (1 if v in bd.leaf_map else 0) for v in range(bd.num_nodes)}
    e = find_balanced_edge(bd, w)
    assert is_balanced_edge(bd, w, e)


def test_find_balanced_edge_leaf_markings_exhaustive():
    rng = random.Random(11)
    for n in range(2, 9):
        for tree in tree_classes(n, max_degree=3):
            bd, leaves = _tree_decomposition(tree)
            for _ in range(5):
                m = rng.randint(2, len(leaves))
                marked = set(rng.sample(leaves, m))
                w = {v: (1 if v in marked else 0) for v in range(n)}
                e = find_balanced_edge(bd, w)
                assert is_balanced_edge(bd, w, e), (tree, marked)


def _reference_side_weight(adjacency, weights, u, v):
    """The per-edge walk the balanced-edge helpers replaced: the weight on
    u's side of the tree edge (u, v)."""
    seen = {u, v}
    stack = [u]
    acc = weights.get(u, 0)
    while stack:
        x = stack.pop()
        for w in adjacency[x]:
            if w not in seen:
                seen.add(w)
                acc += weights.get(w, 0)
                stack.append(w)
    return acc


def _reference_balanced_edge(adjacency, weights):
    total = sum(weights.get(v, 0) for v in adjacency)
    best_edge, best_min = None, -1
    for u, v in sorted((u, v) for u in adjacency for v in adjacency[u] if u < v):
        side = _reference_side_weight(adjacency, weights, u, v)
        if min(side, total - side) > best_min:
            best_edge, best_min = (u, v), min(side, total - side)
    return best_edge


def test_balanced_edge_helpers_match_the_per_edge_walk():
    # the same edge, ties included, and the same verdict on every edge
    rng = random.Random(29)
    for n in range(2, 11):
        for tree in tree_classes(n, max_degree=3):
            bd, leaves = _tree_decomposition(tree)
            adj = {v: set(tree.adj[v]) for v in range(n)}
            for _ in range(5):
                marked = set(rng.sample(leaves, rng.randint(2, len(leaves))))
                w = {v: (1 if v in marked else 0) for v in range(n)}
                assert find_balanced_edge(bd, w) == _reference_balanced_edge(adj, w), \
                    (tree, marked)
                total = len(marked)
                for u, v in tree.edges():
                    for a, b in ((u, v), (v, u)):
                        side = _reference_side_weight(adj, w, a, b)
                        assert is_balanced_edge(bd, w, (a, b)) == (
                            1 / 3 * total <= side <= (1 - 1 / 3) * total)


def _insertion_shapes(n):
    """Reference enumerator for n >= 3: grow the three-leaf star by
    subdividing every edge with leaf 3, then leaf 4, and so on."""
    def insert(edges, next_leaf):
        if next_leaf == n:
            yield edges
            return
        new_internal = n + next_leaf - 2
        for i, (u, v) in enumerate(edges):
            grown = edges[:i] + edges[i + 1:] + [
                (u, new_internal), (v, new_internal), (next_leaf, new_internal)]
            yield from insert(grown, next_leaf + 1)

    for edges in insert([(0, n), (1, n), (2, n)], 3):
        yield BranchDecomposition(2 * n - 2, edges, {i: i for i in range(n)})


def _cut_key(bd, n):
    """A shape's identity: its edge cuts, each as the numerically smaller
    of its two vertex masks."""
    full = (1 << n) - 1
    return frozenset(min(m, full ^ m) for m in edge_cuts(bd).values())


def test_hierarchy_enumerator_matches_insertion_enumerator():
    for n in range(3, 8):
        new = [_cut_key(bd, n) for bd in enumerate_decompositions(n)]
        old = [_cut_key(bd, n) for bd in _insertion_shapes(n)]
        assert len(set(new)) == len(new) == len(old)
        assert set(new) == set(old)


def _bottom_up_splits(g, sel, evaluator):
    """Reference subset DP: fill best(S) for every subset S in ascending
    order by scanning all of its splits, about 3^n / 2 of them in all.
    combo[m] = max(best[m], f(m)) is the worst cut in or above a rooted
    subtree with leaf set m; split[S] is the side S1 (holding S's lowest
    vertex) of S's first best split."""
    full = (1 << g.n) - 1
    vals = [evaluator.value_of_mask(m, sel)[0] for m in range(full + 1)]
    best = [0] * (full + 1)
    split = [0] * (full + 1)
    combo = list(vals)
    for s in range(3, full + 1):
        if s & (s - 1) == 0:
            continue
        low = s & -s
        rest = s ^ low
        best_val = None
        t = 0
        while t != rest:
            s1 = low | t
            val = max(combo[s1], combo[s ^ s1])
            if best_val is None or val < best_val:
                best_val = val
                split[s] = s1
            t = (t - rest) & rest
        best[s] = best_val
        combo[s] = max(vals[s], best_val)
    return best[full], split


def _oracle_cases():
    families = [FamilySelector.of(f) for f in Family]
    selectors = families + [PRIMAL, ALL_FAMILIES, FamilySelector.parse("ntc")]
    for n in range(7):
        for g in all_graph_classes(n):
            for sel in selectors:
                yield g, sel
    rng = random.Random(8)
    for i in range(24):
        n = 8 + i % 5
        p = 0.05 + 0.85 * i / 23
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        yield g, selectors[i % len(selectors)]


def test_dp_matches_bottom_up_oracle(monkeypatch):
    cases = list(_oracle_cases())
    assert len(cases) == 209 * 9 + 24
    got = [exact_branchwidth_dp(g, sel) for g, sel in cases]
    monkeypatch.setattr(decomp, "_dp_splits", _bottom_up_splits)
    expected = [exact_branchwidth_dp(g, sel) for g, sel in cases]
    for (g, sel), (w, bd), (w_old, bd_old) in zip(cases, got, expected):
        assert (w, bd.edges, bd.leaf_map) == (w_old, bd_old.edges, bd_old.leaf_map), \
            (g, sel.name())


def _connected_graphs(rng, n, p, count):
    graphs = []
    while len(graphs) < count:
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        if len(connected_components(g)) == 1:
            graphs.append(g)
    return graphs


def test_dp_matches_bottom_up_oracle_on_larger_graphs(monkeypatch):
    # connected graphs shaped like the benchmark's exact solves: twin-class
    # solves at n 11-12, whose split search walks candidate lists, and the
    # four pattern-family slots, whose cuts are evaluated lazily under the
    # incumbent; every root starts from the balanced-edge bound
    ntc = FamilySelector.parse("ntc")
    rng = random.Random(11)
    cases = [(g, ntc) for i in range(24)
             for g in _connected_graphs(rng, 11 + i % 2, 0.3 + 0.1 * (i // 2 % 4), 1)]
    for text, n, p in (("match", 12, 0.2), ("primal", 12, 0.3), ("all", 11, 0.4),
                       ("chain,chainstrict", 11, 0.6)):
        sel = FamilySelector.parse(text)
        cases += [(g, sel) for g in _connected_graphs(rng, n, p, 2)]
    got = [exact_branchwidth_dp(g, sel) for g, sel in cases]
    monkeypatch.setattr(decomp, "_dp_splits", _bottom_up_splits)
    expected = [exact_branchwidth_dp(g, sel) for g, sel in cases]
    for (g, sel), (w, bd), (w_old, bd_old) in zip(cases, got, expected):
        assert (w, bd.edges, bd.leaf_map) == (w_old, bd_old.edges, bd_old.leaf_map), \
            (g, sel.name())


def _whole_table_ntc_splits(g):
    """Reference twin-class split search: the same top-down branch and
    bound, with the candidate sides S1 of S taken from one ascending list
    of every mask below the incumbent, the window (after, S) of it filtered
    down to the submasks of S holding S's lowest vertex.  Returns the
    width, the split list and every candidate side tried, in order."""
    n = g.n
    full = (1 << n) - 1
    vals = ntc_table(g)
    split = [0] * (full + 1)
    low = bytearray(full + 1)
    visited = []
    singles = sorted((1 << v for v in range(n)), key=vals.__getitem__, reverse=True)

    @functools.cache
    def below(w):
        is_below = bytes(map(w.__gt__, range(256)))
        return array("I", itertools.compress(range(full + 1), vals.translate(is_below)))

    def below_window(s, after, inc):
        masks = below(inc)
        window = itertools.islice(masks, bisect.bisect_right(masks, after),
                                  bisect.bisect_left(masks, s))
        return filter((s & -s).__and__, itertools.filterfalse((full ^ s).__and__, window))

    def solve(s, bound):
        lo = low[s]
        if split[s]:
            return lo
        if not lo:
            lo = low[s] = vals[next(filter(s.__and__, singles))]
        if lo >= bound:
            return lo
        inc = bound
        s1 = 0
        while inc > lo:
            for s1 in below_window(s, s1, inc):
                visited.append(s1)
                s2 = s ^ s1
                if vals[s1] < inc and vals[s2] < inc:
                    val = max(vals[s1], vals[s2])
                    if val < inc and s1 & (s1 - 1):
                        val = max(val, solve(s1, inc))
                    if val < inc and s2 & (s2 - 1):
                        val = max(val, solve(s2, inc))
                    if val < inc:
                        inc = val
                        split[s] = s1
                        break
            else:
                break
        low[s] = inc
        return inc

    if n <= 1:
        return 0, split, visited
    for floor in range(n + 2):
        m = vals.find(floor)
        while m >= 0 and not n <= 3 * m.bit_count() <= 2 * n:
            m = vals.find(floor, m + 1)
        if m >= 0:
            break
    low[full] = max(vals[singles[0]], floor)
    return solve(full, n + 1), split, visited


def _recording_filterfalse(log):
    """``itertools.filterfalse`` that appends each item to ``log`` as it
    hands it out."""
    def filterfalse(pred, items):
        for item in itertools.filterfalse(pred, items):
            log.append(item)
            yield item
    return filterfalse


def test_ntc_dp_matches_whole_table_split_search(monkeypatch):
    # the per-lowest-vertex candidate lists, built only as far as the set
    # being split and whole strides when no mask reaches the incumbent, hand
    # out the candidate sides of the whole-table list in the same order, so
    # the width and every split are the same.  Graphs shaped like the
    # benchmark's six ntc slots; inputs whose lists are all whole strides:
    # edgeless and complete graphs (every cut is 1) and a disconnected graph
    # (ntc solves the whole graph); and every labelled graph on at most 5
    # vertices, where a stride often holds a single mask at the incumbent
    ntc = FamilySelector.parse("ntc")
    rng = random.Random(31)
    cases = [g for n, p in ((15, 0.3), (14, 0.3), (15, 0.4), (15, 0.5), (14, 0.5), (15, 0.6))
             for g in _connected_graphs(rng, n, p, 2)]
    cases += [Graph(n) for n in range(6, 10)]
    cases += [Graph(n, itertools.combinations(range(n), 2)) for n in range(6, 10)]
    cases.append(Graph(13, [(u, v) for u, v in itertools.combinations(range(13), 2)
                            if (u < 6) == (v < 6) and rng.random() < 0.5]))
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        cases += [Graph(n, [e for i, e in enumerate(pairs) if code >> i & 1])
                  for code in range(1 << len(pairs))]
    visited = []
    monkeypatch.setattr(decomp, "filterfalse", _recording_filterfalse(visited))
    for g in cases:
        visited.clear()
        width, split = decomp._dp_splits(g, ntc, CutEvaluator(g))
        assert (width, list(split), visited) == _whole_table_ntc_splits(g), g


def _uncertified_dp_splits(g, sel, evaluator):
    """Reference pattern-family split search: the same top-down branch and
    bound with lazily capped cut values, where a search's result bounds
    only its own cut and its complement; the patterns it finds are dropped."""
    n = g.n
    full = (1 << n) - 1
    top = n + 1

    def resolve(m, cap):
        value = vals[m] = vals[full ^ m] = evaluator.value_of_mask(m, sel, cap)[0]
        if value < cap:
            exact[m] = exact[full ^ m] = 1
        return value

    vals = bytearray(full + 1)
    exact = bytearray(full + 1)
    for v in range(n):
        resolve(1 << v, top)
    split = array("I", [0]) * (full + 1)
    low = bytearray(full + 1)
    singles = sorted((1 << v for v in range(n)), key=vals.__getitem__, reverse=True)

    def submasks(s, after):
        bit = s & -s
        rest = s ^ bit
        t = ((after ^ bit) - rest) & rest if after else 0
        while t != rest:
            yield bit | t
            t = (t - rest) & rest

    def solve(s, bound):
        lo = low[s]
        if split[s]:
            return lo
        if not lo:
            lo = low[s] = vals[next(filter(s.__and__, singles))]
        if lo >= bound:
            return lo
        inc = bound
        s1 = 0
        while inc > lo:
            for s1 in submasks(s, s1):
                s2 = s ^ s1
                if vals[s1] < inc and vals[s2] < inc:
                    val = vals[s1] if exact[s1] else resolve(s1, inc)
                    if val < inc:
                        val = max(val, vals[s2] if exact[s2] else resolve(s2, inc))
                    if val < inc and s1 & (s1 - 1):
                        val = max(val, solve(s1, inc))
                    if val < inc and s2 & (s2 - 1):
                        val = max(val, solve(s2, inc))
                    if val < inc:
                        inc = val
                        split[s] = s1
                        break
            else:
                break
        low[s] = inc
        return inc

    if n <= 1:
        return 0, split
    for floor in range(top):
        m = vals.find(floor)
        while m >= 0 and not n <= 3 * m.bit_count() <= 2 * n:
            m = vals.find(floor, m + 1)
        if m >= 0:
            break
    low[full] = max(vals[singles[0]], floor)
    return solve(full, top), split


def test_pattern_certificates_leave_the_dp_splits_as_they_were(monkeypatch):
    # raising the bound of every cut a found pattern crosses skips only
    # splits the search would have rejected: the width and every entry of
    # the split table are those of the search that drops the patterns, on
    # connected G(n, p) at n 9-13 under the benchmark's four selectors and
    # each single family
    rng = random.Random(29)
    selectors = [FamilySelector.parse(text) for text in
                 ("match", "primal", "all", "chain,chainstrict")]
    selectors += [FamilySelector.of(f) for f in Family]
    for i, (sel, n) in enumerate(itertools.product(selectors, range(9, 14))):
        g = _connected_graphs(rng, n, (0.2, 0.3, 0.4, 0.6)[i % 4], 1)[0]
        width, split = decomp._dp_splits(g, sel, CutEvaluator(g))
        assert (width, split) == _uncertified_dp_splits(g, sel, CutEvaluator(g)), \
            (g, sel.name())
    # and the trees the component law composes on disconnected primal unions
    cases = [(_random_disconnected(rng, rng.randint(6, 12)), sel)
             for _ in range(6) for sel in PRIMAL_UNIONS]
    got = [exact_branchwidth_dp(g, sel) for g, sel in cases]
    monkeypatch.setattr(decomp, "_dp_splits", _uncertified_dp_splits)
    expected = [exact_branchwidth_dp(g, sel) for g, sel in cases]
    for (g, sel), (w, bd), (w_old, bd_old) in zip(cases, got, expected):
        assert (w, bd.edges, bd.leaf_map) == (w_old, bd_old.edges, bd_old.leaf_map), \
            (g, sel.name())


def _uncapped_balanced_split(ev, sel, mask):
    """Reference greedy split: the same swap search with every candidate
    cut evaluated exactly."""
    bits = list(_iter_bits(mask))
    a = sum(bits[:len(bits) // 2])
    b = mask ^ a
    cost = ev.value_of_mask(a, sel)[0]
    improved = True
    while improved:
        improved = False
        for u in _iter_bits(a):
            for v in _iter_bits(b):
                c2 = ev.value_of_mask(a ^ u ^ v, sel)[0]
                if c2 < cost:
                    a ^= u ^ v
                    b ^= u ^ v
                    cost = c2
                    improved = True
                    break
            if improved:
                break
    return a, b


def test_greedy_matches_uncapped_oracle(monkeypatch):
    rng = random.Random(9)
    cases = []
    for i in range(21):
        n = 12 + 18 * i // 20
        p = 0.1 + 0.3 * (i % 4) / 3 if n <= 20 else 0.1 + 0.1 * (i % 2)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        cases.append((g, (MATCH, PRIMAL, ALL_FAMILIES)[i % 3]))
    got = [greedy_branchwidth(g, sel) for g, sel in cases]
    monkeypatch.setattr(decomp, "_balanced_split", _uncapped_balanced_split)
    expected = [greedy_branchwidth(g, sel) for g, sel in cases]
    for (g, sel), (w, bd), (w_old, bd_old) in zip(cases, got, expected):
        assert (w, bd.edges, bd.leaf_map) == (w_old, bd_old.edges, bd_old.leaf_map), \
            (g, sel.name())


def test_dp_tree_of_disjoint_union_bridges_whole_components():
    # some tree edge cuts a union of whole components; it has value 0 for
    # match and chain
    for g in (Graph(4, [(0, 1), (2, 3)]), Graph(5, [(0, 1), (2, 3)])):
        comps = [frozenset(c) for c in connected_components(g)]
        unions = {frozenset().union(*sub) for r in range(1, len(comps))
                  for sub in itertools.combinations(comps, r)}
        for sel in (MATCH, CHAIN, FamilySelector.of(Family.MATCH, Family.CHAIN)):
            w, bd = exact_branchwidth_dp(g, sel)
            assert len(bd.leaf_map) == g.n
            rep = decomposition_width(bd, g, sel)
            assert w == rep.width == 1
            cuts = edge_cuts(bd)
            bridge_values = [v for e, (v, _) in rep.per_edge.items()
                             if set_of(cuts[e]) in unions]
            assert bridge_values and all(v == 0 for v in bridge_values)


def test_disjoint_union_width_is_max_of_parts_for_match_chain():
    rng = random.Random(13)
    for _ in range(10):
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        g1 = Graph(n1, [e for e in itertools.combinations(range(n1), 2) if rng.random() < 0.7])
        g2 = Graph(n2, [e for e in itertools.combinations(range(n2), 2) if rng.random() < 0.7])
        g = Graph(n1 + n2, list(g1.edges()) + [(u + n1, v + n1) for u, v in g2.edges()])
        sel = FamilySelector.of(Family.MATCH, Family.CHAIN)
        w1, _ = exact_branchwidth_dp(g1, sel)
        w2, _ = exact_branchwidth_dp(g2, sel)
        w, bd = exact_branchwidth_dp(g, sel)
        assert w == decomposition_width(bd, g, sel).width == max(w1, w2)


def test_dp_solves_disconnected_graph_beyond_size_limit():
    rng = random.Random(17)
    sizes = (9, 7, 1, 5)
    edges, offset = [], 0
    for size in sizes:
        edges += [(offset + i, offset + i + 1) for i in range(size - 1)]
        edges += [(offset + u, offset + v) for u, v in itertools.combinations(range(size), 2)
                  if v > u + 1 and rng.random() < 0.4]
        offset += size
    g = Graph(offset, edges)
    assert g.n > DP_MAX_N
    comps = connected_components(g)
    assert sorted(map(len, comps)) == sorted(sizes)
    with pytest.raises(SizeLimitError):
        exact_branchwidth_dp(g, ALL_FAMILIES)
    # with isolated vertices, and the smallest disconnected graph
    isolated = Graph(g.n + 3, edges)
    for h in (g, isolated, Graph(2), Graph(5, [(1, 3)])):
        comps = connected_components(h)
        for sel in PRIMAL_UNIONS:
            w, bd = exact_branchwidth_dp(h, sel)
            assert len(bd.leaf_map) == h.n
            parts = [exact_branchwidth_dp(induced_subgraph(h, c)[0], sel)[0] for c in comps]
            assert w == component_law_expected(h, parts, sel) == decomposition_width(bd, h, sel).width


def test_dp_takes_a_disconnected_width_from_the_component_law(monkeypatch):
    # the composed tree is never evaluated: its width comes from the
    # component widths the dynamic program already found
    def refuse(*args, **kwargs):
        raise AssertionError("decomposition_width called")

    monkeypatch.setattr(decomp, "decomposition_width", refuse)
    # a triangle beside a 6-cycle, whose match width is 2
    g = Graph(9, [(0, 1), (1, 2), (2, 0)] + [(3 + i, 3 + (i + 1) % 6) for i in range(6)])
    assert exact_branchwidth_dp(g, MATCH)[0] == 2
    assert exact_branchwidth_dp(Graph(3), ANTIMATCH)[0] == 1


def test_tree_from_splits_builds_a_deep_tree_without_recursion():
    # splitting off the lowest vertex each time gives a tree 1,200 levels
    # deep, as a disconnected graph's component-by-component splits do
    bd = decomp._tree_from_splits(1200, lambda m: (m & -m, m ^ (m & -m)))
    assert (bd.num_nodes, len(bd.leaf_map)) == (2398, 1200)


def test_text_roundtrip():
    _, bd = exact_branchwidth_dp(cycle(5), MATCH)
    text = decomposition_to_text(bd)
    back = parse_decomposition(text)
    assert back.edges == bd.edges and back.leaf_map == bd.leaf_map
    d = decomposition_to_json_dict(bd)
    assert d["nodes"] == bd.num_nodes


def test_parse_rejects_node_count_off_the_edge_lines():
    # the node count is checked against the 't' lines before any per-node
    # storage is built
    for text in ("tree 5\nt 0 1\nleaf 0 0\nleaf 1 1\n",
                 "tree 1\nt 0 1\n", "tree 3\n", "tree 0\nleaf 0 0\n",
                 "tree 1000000000\nt 0 1\n"):
        with pytest.raises(MalformedLineError):
            parse_decomposition(text)
    with pytest.raises(MalformedLineError, match="node count must be nonnegative"):
        parse_decomposition("tree -1\n")
    assert parse_decomposition("tree 0\n").num_nodes == 0
    assert parse_decomposition("tree 1\nleaf 0 0\n").leaf_map == {0: 0}


@pytest.mark.parametrize("fault", ["cycle", "degree-4", "forest"])
def test_parse_rejects_a_faulty_tree_with_the_constructor_message(fault):
    num_nodes, edges, leaf_map, _ = FAULTY_TREES[fault]
    with pytest.raises(DecompositionError) as built:
        BranchDecomposition(num_nodes, edges, leaf_map)
    text = "".join([f"tree {num_nodes}\n"] + [f"t {u} {v}\n" for u, v in edges]
                   + [f"leaf {node} {v}\n" for node, v in leaf_map.items()])
    with pytest.raises(MalformedLineError) as parsed:
        parse_decomposition(text)
    assert str(parsed.value) == str(built.value)


def test_dp_equals_enum_remaining_primal_pairs():
    pairs = [FamilySelector.of(Family.MATCH, Family.CHAIN),
             FamilySelector.of(Family.MATCH, Family.ANTIMATCH),
             FamilySelector.of(Family.CHAIN, Family.ANTIMATCH)]
    for n in range(1, 6):
        for g in connected_graph_classes(n):
            ev = CutEvaluator(g)
            for sel in pairs:
                assert (exact_branchwidth_dp(g, sel, evaluator=ev)[0]
                        == exact_branchwidth_enum(g, sel, evaluator=ev)[0])


def test_width_is_isomorphism_invariant():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(2, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        for sel in (MATCH, PRIMAL, ALL_FAMILIES):
            assert exact_branchwidth_dp(g, sel)[0] == exact_branchwidth_dp(h, sel)[0]


def test_hjoin_width_inequality():
    # complete graphs are joins of a single edge across every cut (both
    # sides collapse to one class each), so their primal width is at most 2
    k5 = Graph(5, list(itertools.combinations(range(5), 2)))
    assert exact_branchwidth_dp(k5, PRIMAL)[0] <= 2
    # complete bipartite graphs are joins of two disjoint edges: classes
    # (S & A, S & B) against ((V-S) & A, (V-S) & B) across any cut
    k33 = complete_bipartite(3, 3)
    assert exact_branchwidth_dp(k33, PRIMAL)[0] <= 4


def test_balanced_cut_corollaries_by_enumeration():
    from fbranch.cutfn import family_value
    from fbranch.graph import cut_graph as make_cut

    # a 3+3 bipartition inducing the edgeless pattern: two triangles; every
    # decomposition must have an edge whose cut shows a non-adjacent pair
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    for bd in enumerate_decompositions(6):
        assert any(family_value(make_cut(two_triangles, set_of(m)), Family.EMPTY)[0] >= 1
                   for m in edge_cuts(bd).values())

    # a 3+3 bipartition inducing the complete pattern: every decomposition
    # must have an edge whose cut shows a crossing edge
    k33 = complete_bipartite(3, 3)
    for bd in enumerate_decompositions(6):
        assert any(family_value(make_cut(k33, set_of(m)), Family.COMPLETE)[0] >= 1
                   for m in edge_cuts(bd).values())


def test_width_report_argmax_witness_validates():
    from test_cutfn import validate_witness
    from fbranch.graph import cut_graph as make_cut
    g = cycle(6)
    rep = decomposition_width(caterpillar(6), g, PRIMAL)
    value, witness = rep.per_edge[rep.argmax_edge]
    assert value == rep.width
    cut = edge_cuts(caterpillar(6))[rep.argmax_edge]
    assert validate_witness(make_cut(g, set_of(cut)), witness)
