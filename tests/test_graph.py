import itertools

import pytest

from fbranch.errors import (
    LoopEdgeError,
    MalformedLineError,
    SizeLimitError,
    VertexRangeError,
)
from fbranch.graph import (
    Graph,
    bridges,
    connected_components,
    cut_graph,
    exact_treewidth,
    graph_to_json_dict,
    graph_to_text,
    induced_subgraph,
    parse_graph,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def test_parse_k2():
    g = parse_graph("2 1\n0 1")
    assert g.n == 2 and g.edges() == ((0, 1),)


def test_parse_edgeless():
    g = parse_graph("3 0")
    assert g.n == 3 and g.num_edges() == 0


def test_parse_c6():
    g = parse_graph("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0")
    assert g == cycle(6)


def test_parse_dedupes_multiedges():
    g = parse_graph("3 3\n0 1\n1 0\n1 2")
    assert g.edges() == ((0, 1), (1, 2))


def test_parse_errors_are_distinct():
    with pytest.raises(MalformedLineError):
        parse_graph("2 1\n0 1 2")
    with pytest.raises(MalformedLineError):
        parse_graph("nope")
    with pytest.raises(VertexRangeError):
        parse_graph("2 1\n0 5")
    with pytest.raises(LoopEdgeError):
        parse_graph("2 1\n1 1")


def test_text_roundtrip():
    g = cycle(5)
    assert parse_graph(graph_to_text(g)) == g
    assert graph_to_json_dict(g) == {"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}


def test_induced_subgraph():
    sub, remap = induced_subgraph(cycle(6), {0, 1, 2})
    assert sub == path(3) and remap == (0, 1, 2)
    sub, remap = induced_subgraph(cycle(6), set())
    assert sub.n == 0 and remap == ()
    sub, _ = induced_subgraph(complete(4), {0, 2, 3})
    assert sub == complete(3)


def test_connected_components():
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert connected_components(two_k2) == [frozenset({0, 1}), frozenset({2, 3})]
    assert connected_components(cycle(6)) == [frozenset(range(6))]
    assert connected_components(Graph(3)) == [frozenset({0}), frozenset({1}), frozenset({2})]
    assert connected_components(Graph(0)) == []
    # a 2,000-vertex path, relabelled, whole and cut in three: the walk goes
    # 2,000 deep without recursion
    import random
    perm = list(range(2000))
    random.Random(23).shuffle(perm)
    long_path = [(perm[i], perm[i + 1]) for i in range(1999)]
    assert connected_components(Graph(2000, long_path)) == [frozenset(range(2000))]
    cut = Graph(2000, long_path[:499] + long_path[501:1499] + long_path[1501:])
    assert connected_components(cut) == sorted(
        (frozenset(perm[:500]), frozenset(perm[500:501]), frozenset(perm[501:1500]),
         frozenset(perm[1500:1501]), frozenset(perm[1501:])), key=min)

def brute_force_bridges(g):
    base = len(connected_components(g))
    out = []
    for e in g.edges():
        h = Graph(g.n, [f for f in g.edges() if f != e])
        if len(connected_components(h)) > base:
            out.append(e)
    return out


def test_bridges_examples():
    assert bridges(path(5)) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert bridges(cycle(6)) == []
    c4_pendant = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    assert bridges(c4_pendant) == [(0, 4)]


def test_bridges_against_brute_force():
    import random
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.35]
        g = Graph(n, edges)
        assert bridges(g) == sorted(brute_force_bridges(g))


def test_removing_all_bridges_leaves_bridgeless():
    g = Graph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (6, 7)])
    b = set(bridges(g))
    h = Graph(g.n, [e for e in g.edges() if e not in b])
    assert bridges(h) == []


def crossing_edges(b):
    """The cut graph's edges (x, y), x on its X side and y on its Y side."""
    return {(x, y) for x in b.x_vertices for y in b.y_vertices if b.has_edge(x, y)}


def test_cut_graph():
    b = cut_graph(cycle(6), {0, 1, 2})
    assert crossing_edges(b) == {(2, 3), (0, 5)}
    assert crossing_edges(cut_graph(cycle(6), set())) == set()
    assert len(crossing_edges(cut_graph(complete(4), {0, 1}))) == 4
    assert crossing_edges(b.complement()) == {(x, y) for x in (0, 1, 2) for y in (3, 4, 5)
                                              if (x, y) not in {(2, 3), (0, 5)}}


def test_cut_graph_symmetry():
    g = cycle(6)
    for k in range(7):
        for xs in itertools.combinations(range(6), k):
            a = cut_graph(g, xs)
            b = cut_graph(g, set(range(6)) - set(xs))
            assert {frozenset(e) for e in crossing_edges(a)} == {
                frozenset(e) for e in crossing_edges(b)}


def brute_force_treewidth(g):
    """Independent oracle: minimum over all elimination orderings of the
    maximum degree at elimination time (with fill-in)."""
    if g.n == 0:
        return -1
    best = g.n
    for perm in itertools.permutations(range(g.n)):
        adj = {v: set(g.adj[v]) for v in range(g.n)}
        width = 0
        for v in perm:
            nb = adj[v]
            width = max(width, len(nb))
            if width >= best:
                break
            for a in nb:
                adj[a].update(nb - {a})
                adj[a].discard(v)
            for a in nb:
                adj[a].discard(v)
            del adj[v]
        best = min(best, width)
    return best


def test_exact_treewidth_examples():
    assert exact_treewidth(path(5)) == 1
    assert exact_treewidth(complete(4)) == 3
    # frozen from the elimination-ordering oracle
    assert brute_force_treewidth(cycle(5)) == 2
    assert exact_treewidth(cycle(5)) == 2


def test_exact_treewidth_against_oracle():
    from fbranch.atlas import connected_graph_classes
    for n in range(1, 6):
        for g in connected_graph_classes(n):
            assert exact_treewidth(g) == brute_force_treewidth(g)
    import random
    rng = random.Random(11)
    for _ in range(15):
        edges = [e for e in itertools.combinations(range(6), 2) if rng.random() < 0.4]
        g = Graph(6, edges)
        assert exact_treewidth(g) == brute_force_treewidth(g)


def reference_treewidth(g):
    """Reference elimination dp: a stack walk from v for every (set, vertex)
    pair, and no vertex skipped."""
    n = g.n
    if n == 0:
        return -1
    adj = [sum(1 << w for w in g.adj[v]) for v in range(n)]

    def elim_cost(s_mask, v):
        # vertices outside s+v reachable from v via paths inside s+v
        inside = s_mask | (1 << v)
        seen = 1 << v
        stack = [v]
        reach = 0
        while stack:
            u = stack.pop()
            for w in range(n):
                if adj[u] >> w & 1 and not seen >> w & 1:
                    seen |= 1 << w
                    if inside >> w & 1:
                        stack.append(w)
                    else:
                        reach |= 1 << w
        return bin(reach).count("1")

    full = (1 << n) - 1
    tw = [0] * (full + 1)
    for s in range(1, full + 1):
        tw[s] = min(max(tw[s ^ (1 << v)], elim_cost(s ^ (1 << v), v))
                    for v in range(n) if s >> v & 1)
    return tw[full]


def test_exact_treewidth_matches_reference_dp():
    import random
    from fbranch.atlas import connected_graph_classes
    for n in range(1, 8):
        for g in connected_graph_classes(n):
            assert exact_treewidth(g) == reference_treewidth(g)
    rng = random.Random(23)
    for n in range(1, 11):
        for p in (0.2, 0.4, 0.6):
            g = Graph(n, [e for e in itertools.combinations(range(n), 2)
                          if rng.random() < p])
            assert exact_treewidth(g) == reference_treewidth(g)


def test_exact_treewidth_limit():
    with pytest.raises(SizeLimitError):
        exact_treewidth(Graph(16))


def test_components_partition_vertices_and_edges():
    import random
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 10)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.25]
        g = Graph(n, edges)
        comps = connected_components(g)
        assert sorted(v for c in comps for v in c) == list(range(n))
        assert sum(len(induced_subgraph(g, c)[0].edges()) for c in comps) == g.num_edges()
        # disjointness
        assert sum(len(c) for c in comps) == n
