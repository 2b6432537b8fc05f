import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from fbranch import atlas
from fbranch.atlas import all_graph_classes, connected_graph_classes, tree_classes
from fbranch.canonical import canonical_form
from fbranch.graph import Graph, connected_components


def _reference_canonical_form(g, colors=None):
    """The search canonical_form ran before it skipped twins, kept verbatim:
    every vertex of least remaining color key at every position."""
    n = g.n
    if n == 0:
        return ((), ())
    adj = g.adj
    if colors is None:
        color_keys: list = [(len(adj[v]),) for v in range(n)]
    else:
        color_keys = [(colors[v], len(adj[v])) for v in range(n)]

    best_bits: tuple[int, ...] | None = None
    order: list[int] = []
    used = [False] * n
    bits: list[int] = []

    # Any optimal ordering lists color keys in sorted order (the color
    # sequence dominates the comparison), so candidates at each position are
    # exactly the remaining vertices of minimum color key.
    def extend(pos: int):
        nonlocal best_bits
        if pos == n:
            cand = tuple(bits)
            if best_bits is None or cand < best_bits:
                best_bits = cand
            return
        remaining = [v for v in range(n) if not used[v]]
        min_color = min(color_keys[v] for v in remaining)
        for v in remaining:
            if color_keys[v] != min_color:
                continue
            row = [1 if order[i] in adj[v] else 0 for i in range(pos)]
            if best_bits is not None:
                new_len = len(bits) + len(row)
                if tuple(bits) + tuple(row) > best_bits[:new_len]:
                    continue
            used[v] = True
            order.append(v)
            bits.extend(row)
            extend(pos + 1)
            del bits[len(bits) - pos:]
            order.pop()
            used[v] = False

    extend(0)
    assert best_bits is not None
    return (tuple(sorted(color_keys)), best_bits)


def _blow_up(rng, n_max):
    """A random quotient graph with each vertex replaced by a module of one
    to three twins, all adjacent (true twins) or none (false twins)."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
    while sum(sizes) > n_max:
        sizes.pop()
    mods, v = [], 0
    for size in sizes:
        mods.append(range(v, v + size))
        v += size
    edges = []
    for i, j in itertools.combinations(range(len(mods)), 2):
        if rng.random() < 0.5:
            edges += [(a, b) for a in mods[i] for b in mods[j]]
    for mod in mods:
        if rng.random() < 0.5:
            edges += itertools.combinations(mod, 2)
    return Graph(v, edges)


def _attachment_colors(rng, n):
    """Colors shaped like prune's: sorted tuples of attachment vertices."""
    return [tuple(sorted(rng.sample(range(3), rng.randint(0, 2)))) for _ in range(n)]


def test_canonical_form_splits_inputs_like_the_reference_search():
    # the keys carry the refinement rounds, so their format differs from the
    # reference's: two inputs must share a key exactly when they share a
    # reference key
    rng = random.Random(17)
    graphs = [g for n in range(7) for g in all_graph_classes(n)]
    graphs += [_blow_up(rng, 8) for _ in range(300)]
    inputs = [(g, colors) for g in graphs for colors in (None, _attachment_colors(rng, g.n))]
    keys = [canonical_form(g, colors) for g, colors in inputs]
    ref = [_reference_canonical_form(g, colors) for g, colors in inputs]
    assert len(set(keys)) == len(set(ref)) == len(set(zip(keys, ref)))
    assert len(set(ref)) > 300  # the check is not vacuous


def test_canonical_form_agrees_with_networkx_isomorphism():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)

    def nx_graph(g, colors):
        h = nx.Graph()
        h.add_nodes_from((v, {"c": colors[v]}) for v in range(g.n))
        h.add_edges_from(g.edges())
        return h

    same = 0
    for trial in range(400):
        if trial % 2:
            g = _blow_up(rng, 8)
        else:
            n = rng.randint(1, 8)
            p = rng.random()
            g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        n = g.n
        colored = trial % 4 >= 2
        colors = _attachment_colors(rng, n) if colored else [()] * n
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()}
        h_colors = [None] * n
        for v in range(n):
            h_colors[perm[v]] = colors[v]
        if n >= 2 and rng.random() < 0.5:  # perturb: often no longer isomorphic
            if colored and rng.random() < 0.5:
                h_colors[rng.randrange(n)] = (rng.randrange(3),)
            else:
                edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
        h = Graph(n, sorted(edges))
        iso = nx.is_isomorphic(nx_graph(g, colors), nx_graph(h, h_colors),
                               node_match=lambda a, b: a["c"] == b["c"])
        same += iso
        assert (canonical_form(g, colors if colored else None)
                == canonical_form(h, h_colors if colored else None)) == iso, (
            g.edges(), colors, h.edges(), h_colors)
    assert 100 < same < 350  # both outcomes are well represented


def test_canonical_form_is_fast_on_twin_classes():
    # the reference search tries every equal-keyed vertex at every
    # position, so each of these inputs runs for minutes or longer
    code = textwrap.dedent("""
        import itertools
        from fbranch.atlas import tree_classes
        from fbranch.canonical import canonical_form
        from fbranch.graph import Graph
        canonical_form(Graph(41, [(0, v) for v in range(1, 41)]))
        canonical_form(Graph(22, [(a, b) for a in (0, 1) for b in range(2, 22)]))
        canonical_form(Graph(12, list(itertools.combinations(range(12), 2))))
        assert len(tree_classes(10)) == 106
    """)
    _run_within_a_minute(code)


def test_canonical_form_is_fast_on_trees():
    # trees hold few twins but refine to small cells: without refinement
    # the path P16 alone takes about half a minute
    code = textwrap.dedent("""
        import random
        from fbranch.atlas import tree_classes
        from fbranch.canonical import canonical_form
        from fbranch.graph import Graph
        for n in (16, 40):
            canonical_form(Graph(n, [(v, v + 1) for v in range(n - 1)]))
        rng = random.Random(40)
        canonical_form(Graph(40, [(rng.randrange(v), v) for v in range(1, 40)]))
        assert len(tree_classes(12, 3)) == 135
        assert len(tree_classes(11)) == 235
    """)
    _run_within_a_minute(code)


def _run_within_a_minute(code):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr


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
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_form(g) == canonical_form(h)


def brute_force_graph_classes(n):
    """Independent oracle: enumerate all labeled graphs on n vertices and
    deduplicate by canonical form.  Only sensible for n <= 5 or so."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = {}
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph(n, edges)
        seen.setdefault(canonical_form(g), g)
    return [seen[k] for k in sorted(seen)]


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


def test_tree_classes_with_no_room_are_empty():
    assert tree_classes(3, max_degree=0) == ()
    assert tree_classes(4, max_degree=1) == ()
    assert len(tree_classes(5, max_degree=2)) == 1


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


def _augment(base, n, mask):
    """``base`` with a new last vertex n - 1 joined to the vertices of ``mask``."""
    return Graph(n, list(base.edges()) + [(v, n - 1) for v in range(n - 1) if mask >> v & 1])


def _unpruned_extend(n, bases, masks):
    """The augmentation before it skipped twin swaps: every mask of every
    base is canonicalised."""
    seen = {}
    for base in bases:
        for mask in masks(n, base):
            g = _augment(base, n, mask)
            seen.setdefault(canonical_form(g), g)
    return tuple(seen[k] for k in sorted(seen))


# (public catalogue, its arguments after n as its own recursion passes
# them, largest n, the masks of the augmentation of a base)
CATALOGUES = [
    (connected_graph_classes, (), 7, lambda n, base: range(1, 1 << (n - 1))),
    (all_graph_classes, (), 6, lambda n, base: range(1 << (n - 1))),
    (tree_classes, (None,), 12, lambda n, base: [1 << v for v in range(n - 1)]),
    (tree_classes, (3,), 12, lambda n, base: [1 << v for v in range(n - 1) if base.degree(v) < 3]),
]


def _swap_is_automorphism(g, u, v):
    swap = {u: v, v: u}
    edges = set(map(frozenset, g.edges()))
    return {frozenset(swap.get(x, x) for x in e) for e in edges} == edges


def test_twin_skip_keeps_the_unpruned_atlas(monkeypatch):
    # same tuples, graphs and order as the unpruned augmentation; and the
    # augmentations canonicalised are exactly those whose mask holds no v
    # without u, for every swap of two base vertices u < v that is an
    # automorphism of the base
    canonicalised = []

    def recording(g, colors=None):
        canonicalised.append(g)
        return canonical_form(g, colors)

    monkeypatch.setattr(atlas, "canonical_form", recording)
    for catalogue, args, top, masks in CATALOGUES:
        ref = (Graph(1),)
        for n in range(2, top + 1):
            expected = []
            for base in ref:
                swaps = [(u, v) for u, v in itertools.combinations(range(n - 1), 2)
                         if _swap_is_automorphism(base, u, v)]
                expected += [_augment(base, n, mask) for mask in masks(n, base)
                             if not any(mask >> v & 1 and not mask >> u & 1 for u, v in swaps)]
            ref = _unpruned_extend(n, ref, masks)
            catalogue.cache_clear()
            catalogue(n - 1, *args)
            canonicalised.clear()
            assert catalogue(n, *args) == ref, (catalogue.__name__, n, args)
            assert canonicalised == expected, (catalogue.__name__, n, args)
        catalogue.cache_clear()
