import importlib.util
import itertools
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from fbranch.atlas import all_graph_classes
from fbranch.cutfn import FamilySelector
from fbranch.decomp import exact_branchwidth_dp
from fbranch.errors import SizeLimitError
from fbranch.families import Family
from fbranch.graph import Graph, connected_components, induced_subgraph, mask_of
import fbranch.treedepth
from fbranch.treedepth import (
    bound_f,
    bound_f_star,
    bound_g,
    bound_h,
    _signature,
    prune_by_treedepth,
    surrogate_threshold,
    treedepth_decomposition,
)

PRIMAL_UNIONS = [FamilySelector(families=frozenset(fams))
                 for r in (1, 2, 3)
                 for fams in itertools.combinations(
                     (Family.MATCH, Family.CHAIN, Family.ANTIMATCH), r)]


def star(m):
    return Graph(m + 1, [(0, i + 1) for i in range(m)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def spider(legs, leg_len):
    edges = []
    n = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_len):
            edges.append((prev, n))
            prev = n
            n += 1
    return Graph(n, edges)


def brute_force_treedepth(g):
    """Independent oracle: straight recursion without memoization."""
    def solve(vertices):
        if not vertices:
            return 0
        comps = []
        seen = set()
        for s in sorted(vertices):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            seen.add(s)
            while stack:
                u = stack.pop()
                for w in g.adj[u]:
                    if w in vertices and w not in seen:
                        seen.add(w)
                        comp.add(w)
                        stack.append(w)
            comps.append(frozenset(comp))
        if len(comps) > 1:
            return max(solve(c) for c in comps)
        if len(vertices) == 1:
            return 1
        return 1 + min(solve(vertices - {v}) for v in vertices)

    return solve(frozenset(range(g.n)))


def forest_attachments(g, parent):
    """Each vertex's ancestors and itself in a solver forest, after checking
    that the parent map covers exactly g's vertices, lists every vertex
    after its parent (so it has no cycle) and holds every edge of g in its
    closure."""
    assert sorted(parent) == list(range(g.n))
    attach = {}
    for v, p in parent.items():
        assert p is None or p in attach, f"vertex {v} is listed before its parent {p}"
        attach[v] = (frozenset() if p is None else attach[p]) | {v}
    for u, v in g.edges():
        assert u in attach[v] or v in attach[u], f"edge ({u}, {v}) not in the forest closure"
    return attach


def forest_height(g, parent):
    """Height of a solver forest that ``forest_attachments`` accepts."""
    return max(map(len, forest_attachments(g, parent).values()), default=0)


def test_treedepth_examples():
    assert forest_height(star(3), treedepth_decomposition(star(3))) == 2
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert forest_height(triangle, treedepth_decomposition(triangle)) == 3
    # frozen from the recursion oracle; td(P_n) = ceil(log2(n+1))
    assert brute_force_treedepth(path(4)) == 3
    for n in range(1, 8):
        assert forest_height(path(n), treedepth_decomposition(path(n))) \
            == math.ceil(math.log2(n + 1))


def test_treedepth_decomposition_valid():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 7)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        assert forest_height(g, treedepth_decomposition(g)) == brute_force_treedepth(g)


def test_treedepth_limit():
    with pytest.raises(SizeLimitError):
        treedepth_decomposition(Graph(13))


def test_component_signature_star_legs_equal():
    g = star(4)
    r = 0b1  # {0}
    sigs = {_signature(g, r, 1 << v) for v in range(1, 5)}
    assert len(sigs) == 1


def test_component_signature_p2_legs():
    # two pendant 2-paths hanging off vertex 0 the same way
    g = Graph(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
    r = 0b1  # {0}
    s1 = _signature(g, r, 0b110)  # {1, 2}
    s2 = _signature(g, r, 0b11000)  # {3, 4}
    assert s1 == s2


def test_component_signature_gamma_matters():
    # same component graph (single vertex), different attachment
    g = Graph(4, [(0, 1), (0, 2), (1, 3)])
    r = 0b11  # {0, 1}
    s2 = _signature(g, r, 1 << 2)  # attaches to 0
    s3 = _signature(g, r, 1 << 3)  # attaches to 1
    assert s2 != s3


def test_prune_duplicates_star():
    g = star(5)
    out, removed = prune_by_treedepth(g, threshold=2)
    assert out == star(2)
    assert sum(map(len, removed)) == 3


def test_prune_duplicates_width_preserved_forests():
    for sel in PRIMAL_UNIONS:
        g = star(6)
        out, _ = prune_by_treedepth(g, threshold=2)
        assert exact_branchwidth_dp(g, sel)[0] == exact_branchwidth_dp(out, sel)[0] == 1


def test_prune_duplicates_distinct_signatures_unchanged():
    # components of g - {0}: a pendant vertex, a pendant 2-path, a triangle
    # handle; all signatures differ, so threshold 1 removes nothing
    g = Graph(6, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 0)])
    out, removed = prune_by_treedepth(g, threshold=1)
    assert removed == [] and out.n == 6


def test_bound_calculators_base_cases():
    g4, g3, g2, g1, g = bound_g(1, 1)
    assert g4 == 9
    assert g3 == 20  # 2 * 9 + 2
    assert g2 == max(20 * 5 + 6, 3 * 9 + 3) == 106
    assert g1 == bound_f(1, 106) == 106 ** 2
    assert g == 7 * 106 ** 2 + 1

    for k in range(1, 5):
        for p in range(1, 5):
            assert bound_f_star(k, p, k) == p

    assert bound_f(1, 3) == 9  # f*(1, 3, 1) = 3, squared
    # one level of the tower, checked by hand:
    # f*(2, 1, 1) = (3 * 4 * 1^4)^1 * 1 = 12, f(2, 1) = 144
    assert bound_f_star(2, 1, 1) == 12
    assert bound_f(2, 1) == 144


def test_bound_h():
    assert bound_h(1, 1) == 1
    assert bound_h(3, 1) == 1
    # h(2) with k = 1: 2^C(1,2) * 2^(2*1) * g(2, 1) = 4 * g(2, 1)
    assert bound_h(1, 2) == 4 * bound_g(2, 1)[4]
    assert bound_h(2, 2) >= bound_h(2, 1)
    with pytest.raises(ValueError):
        bound_h(1, 0)


def test_bound_g_monotone_growth():
    assert bound_g(2, 2)[4] > bound_g(1, 1)[4]
    assert surrogate_threshold(1, 1) == 5
    assert surrogate_threshold(2, 3) == 11


def test_prune_by_treedepth_star():
    g = star(9)
    out, _ = prune_by_treedepth(g, threshold=2)
    assert out.n == 3
    for sel in PRIMAL_UNIONS:
        assert exact_branchwidth_dp(g, sel)[0] == exact_branchwidth_dp(out, sel)[0] == 1


def test_prune_by_treedepth_spider():
    g = spider(5, 2)  # 11 vertices, five identical 2-paths off the center
    out, _ = prune_by_treedepth(g, threshold=3)
    assert out.n == 1 + 3 * 2
    for sel in PRIMAL_UNIONS:
        assert exact_branchwidth_dp(g, sel)[0] == exact_branchwidth_dp(out, sel)[0]


def test_prune_by_treedepth_all_distinct_unchanged():
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)])  # C7
    out, removed = prune_by_treedepth(g, threshold=1)
    assert out.n == 7 and removed == []


def test_prune_by_treedepth_surrogate_default():
    g = star(9)
    out, _ = prune_by_treedepth(g)
    # surrogate for t = |{center, root path}| ... leaves attach to center:
    # t = 2 (leaf rank path has the center and root above it), p = 1
    assert out.n < g.n
    for sel in PRIMAL_UNIONS:
        assert exact_branchwidth_dp(g, sel)[0] == exact_branchwidth_dp(out, sel)[0]


def test_prune_duplicates_never_increases_width():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(3, 8)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3])
        out, _ = prune_by_treedepth(g, threshold=1)
        for sel in PRIMAL_UNIONS:
            before = exact_branchwidth_dp(g, sel)[0]
            after = exact_branchwidth_dp(out, sel)[0] if out.n else 0
            assert after <= before


def reference_treedepth_parent(g):
    """Reference solver: the memo keeps a whole parent map per vertex set,
    merged over the components of a disconnected set and re-rooted under
    the first best root of a connected one."""
    memo = {}

    def solve(vertices):
        if not vertices:
            return 0, {}
        if vertices in memo:
            return memo[vertices]
        sub, old = induced_subgraph(g, vertices)
        comps = [frozenset(old[v] for v in c) for c in connected_components(sub)]
        if len(comps) > 1:
            height, parent = 0, {}
            for comp in comps:
                h, p = solve(comp)
                height = max(height, h)
                parent.update(p)
        else:
            height, below, root = len(vertices) + 1, {}, None
            for v in sorted(vertices):
                h, p = solve(vertices - {v})
                if h + 1 < height:
                    height, below, root = h + 1, p, v
            parent = {u: root if pu is None else pu for u, pu in below.items()}
            parent[root] = None
        memo[vertices] = (height, parent)
        return height, parent

    return solve(frozenset(range(g.n)))[1]


def reference_prune(g, parent, threshold=None):
    """Reference prune over a parent map: deepest nodes first, sibling
    subtrees grouped by signature, the surrogate number kept per class, or
    ``threshold`` when it is given."""
    def ancestors(v):
        out = []
        while parent[v] is not None:
            v = parent[v]
            out.append(v)
        return out

    kids = {v: sorted(c for c in parent if parent[c] == v) for v in parent}
    depth = {v: len(ancestors(v)) + 1 for v in parent}
    below, alive, removed = {}, set(range(g.n)), []
    for node in sorted(parent, key=lambda v: (-depth[v], v)):
        below[node] = frozenset([node]).union(*(below[c] for c in kids[node]))
        if node not in alive:
            continue
        attach = frozenset(ancestors(node) + [node])
        classes = {}
        for c in kids[node]:
            if c in alive:
                sub = below[c] & alive
                classes.setdefault(_signature(g, mask_of(attach), mask_of(sub)),
                                   []).append(sub)
        for members in classes.values():
            members.sort(key=min)
            bound = (threshold if threshold is not None
                     else surrogate_threshold(depth[node], len(members[0])))
            for extra in members[bound:]:
                removed.append(extra)
                alive -= extra
    return induced_subgraph(g, alive)[0], removed


def _prune_gadgets():
    """The nine 12-vertex prune inputs of the benchmark, with the
    generators' labels (perfbench is no package, so it is loaded by path)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [Graph(workloads.PRUNE_N, workloads.PRUNE_GENERATORS[shape](param))
            for shape, param in workloads.PRUNE_SLOTS]


def _reference_inputs():
    """Every graph class with at most 6 vertices, 40 seeded G(8-12, p) and
    the benchmark's prune gadgets."""
    rng = random.Random(41)
    seeded = []
    for _ in range(40):
        n = rng.randint(8, 12)
        p = rng.choice((0.2, 0.3, 0.4))
        seeded.append(Graph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < p]))
    return [g for n in range(7) for g in all_graph_classes(n)] + seeded + _prune_gadgets()


def test_treedepth_and_prune_match_reference(monkeypatch):
    # the prune's own decomposition is the one compared, and checked
    solved = []

    def recorded(g):
        solved.append(treedepth_decomposition(g))
        forest_attachments(g, solved[-1])
        return solved[-1]

    monkeypatch.setattr(fbranch.treedepth, "treedepth_decomposition", recorded)
    for g in _reference_inputs():
        parent = reference_treedepth_parent(g)
        for threshold in (None, 1, 2, 3):
            out, removed = prune_by_treedepth(g, threshold)
            assert solved[-1] == parent
            assert (out, removed) == reference_prune(g, parent, threshold)


def test_sibling_signatures_match_colored_isomorphism():
    # reference_prune groups by the package's own _signature, so the
    # signature is checked here against networkx: two sibling subtrees of a
    # solver forest get one signature exactly when an isomorphism between
    # them keeps every vertex's neighbours in the attachment set
    nx = pytest.importorskip("networkx")

    def colored(g, attach, sub):
        h = nx.Graph()
        h.add_nodes_from((v, {"color": g.adj[v] & attach}) for v in sub)
        h.add_edges_from((u, v) for u in sub for v in g.adj[u] & sub)
        return h

    def same_color(a, b):
        return a["color"] == b["color"]

    seen = Counter()  # pairs by (colored isomorphism, plain isomorphism)
    for g in _reference_inputs():
        parent = treedepth_decomposition(g)
        attach = forest_attachments(g, parent)
        below = {v: frozenset(u for u in parent if v in attach[u]) for v in parent}
        for node in parent:
            subs = [below[c] for c in sorted(parent) if parent[c] == node]
            sigs = [_signature(g, mask_of(attach[node]), mask_of(sub)) for sub in subs]
            graphs = [colored(g, attach[node], sub) for sub in subs]
            for i, j in itertools.combinations(range(len(subs)), 2):
                iso = nx.is_isomorphic(graphs[i], graphs[j], node_match=same_color)
                assert (sigs[i] == sigs[j]) == iso, (g.edges(), node, subs[i], subs[j])
                seen[iso, nx.is_isomorphic(graphs[i], graphs[j])] += 1
    # each case occurs: equal signatures, subtrees told apart by their
    # colors alone, and subtrees of different shapes
    assert min(seen[True, True], seen[False, True], seen[False, False]) >= 100


def test_treedepth_matches_reference_on_capped_searches():
    # dense and long inputs, where most roots are cut off by the incumbent
    # and many vertex sets are searched again under a larger cap
    def grid(rows, cols):
        return Graph(rows * cols,
                     [(r * cols + c, r * cols + c + 1)
                      for r in range(rows) for c in range(cols - 1)]
                     + [(r * cols + c, (r + 1) * cols + c)
                        for r in range(rows - 1) for c in range(cols)])

    graphs = [Graph(12, list(itertools.combinations(range(12), 2))),
              Graph(12, [(i, (i + 1) % 12) for i in range(12)]),
              path(12), grid(3, 4)]
    rng = random.Random(18)
    for p in (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9):
        graphs.append(Graph(12, [e for e in itertools.combinations(range(12), 2)
                                 if rng.random() < p]))
    for g in graphs:
        parent = treedepth_decomposition(g)
        forest_attachments(g, parent)
        assert parent == reference_treedepth_parent(g)
