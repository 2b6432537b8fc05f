import itertools

import pytest

from fbranch.atlas import (
    all_graph_classes,
    brute_force_graph_classes,
    connected_graph_classes,
    tree_classes,
)
from fbranch.canonical import canonical_form
from fbranch.graph import Graph, connected_components


def test_canonical_form_basic():
    p3a = Graph(3, [(0, 1), (1, 2)])
    p3b = Graph(3, [(0, 2), (2, 1)])
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert canonical_form(p3a) == canonical_form(p3b)
    assert canonical_form(p3a) != canonical_form(tri)


def test_canonical_form_with_colors():
    p2 = Graph(2, [(0, 1)])
    assert canonical_form(p2, colors=["a", "b"]) == canonical_form(p2, colors=["b", "a"])
    assert canonical_form(p2, colors=["a", "b"]) != canonical_form(p2, colors=["a", "a"])


def test_canonical_form_permutation_invariant():
    import random
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_form(g) == canonical_form(h)


def test_graph_class_counts_against_brute_force():
    for n in range(1, 6):
        aug = all_graph_classes(n)
        brute = brute_force_graph_classes(n)
        assert len(aug) == len(brute)
        assert sorted(canonical_form(g) for g in aug) == sorted(canonical_form(g) for g in brute)


def test_connected_class_counts():
    # frozen from the brute-force enumeration below for n <= 5 and from the
    # augmentation cross-check at 6 and 7
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n in range(1, 6):
        brute = [g for g in brute_force_graph_classes(n)
                 if len(connected_components(g)) == 1]
        assert len(brute) == expected[n]
    for n in range(1, 8):
        classes = connected_graph_classes(n)
        assert len(classes) == expected[n]
        assert all(len(connected_components(g)) == 1 for g in classes)


def prufer_tree(n, seq):
    import bisect
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    avail = sorted(v for v in range(n) if degree[v] == 1)
    edges = []
    for s in seq:
        leaf = avail.pop(0)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[s] -= 1
        if degree[s] == 1:
            bisect.insort(avail, s)
    u, v = avail
    edges.append((min(u, v), max(u, v)))
    return Graph(n, edges)


def test_tree_classes_against_prufer():
    for n in range(2, 8):
        if n == 2:
            labeled = [Graph(2, [(0, 1)])]
        else:
            labeled = [prufer_tree(n, seq)
                       for seq in itertools.product(range(n), repeat=n - 2)]
        brute = {canonical_form(t) for t in labeled}
        assert {canonical_form(t) for t in tree_classes(n)} == brute


def test_subcubic_tree_classes():
    for n in range(1, 10):
        subcubic = tree_classes(n, max_degree=3)
        assert all(max(map(len, t.adj)) <= 3 for t in subcubic)
        whole = [t for t in tree_classes(n) if max(map(len, t.adj)) <= 3]
        assert {canonical_form(t) for t in subcubic} == {canonical_form(t) for t in whole}


def test_graph_classes_against_networkx_atlas():
    # independent oracle: the atlas lists every graph on up to 7 vertices
    # once per isomorphism class, nodes labelled 0..n-1
    nx = pytest.importorskip("networkx")
    atlas: dict[int, list] = {}
    for h in nx.graph_atlas_g():
        atlas.setdefault(h.number_of_nodes(), []).append(h)
    counts = [1, 1, 2, 4, 11, 34, 156, 1044]
    assert [len(atlas[n]) for n in range(8)] == counts
    for n in range(8):
        classes = all_graph_classes(n)
        assert len(classes) == counts[n]
        forms = {canonical_form(g) for g in classes}
        for h in atlas[n]:
            assert canonical_form(Graph(n, h.edges())) in forms
    connected = [sum(nx.is_connected(h) for h in atlas[n]) for n in range(1, 8)]
    assert connected[-1] == 853
    assert [len(connected_graph_classes(n)) for n in range(1, 8)] == connected
