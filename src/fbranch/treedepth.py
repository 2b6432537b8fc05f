"""Treedepth decompositions, duplicate-component pruning, and the bound
calculators that justify the pruning thresholds.

A rooted forest whose closure contains the graph certifies treedepth; the
exact solver is a branch and bound over vertex masks: each root of a
connected set is searched only below the best height found so far, and a
set whose search hits its cap keeps the lower bound it proved.  It returns
the forest as a parent map that lists every vertex after its parent.
Pruning reads that map on vertex masks (each node's attachment set in one
pass down, its subtree in one pass up), walks it bottom-up, groups sibling
subtrees by their attachment-colored canonical form, and keeps only a
bounded number per class.  The provably safe class bound g(t, p) is
computed but never prunes: its least value, g(1, 1) = 78,653, exceeds the
at most 11 siblings of any graph within the exact solver's limit
(n <= 12), so it would keep every vertex.
The default is a small surrogate whose safety the test suite checks
empirically, width before versus width after.
"""

from __future__ import annotations

from math import comb

from .canonical import canonical_form
from .errors import SizeLimitError, ValidationError
from .graph import Graph, _adjacency_masks, _component, induced_subgraph, mask_of, set_of


TREEDEPTH_MAX_N = 12


def treedepth_decomposition(g: Graph) -> dict[int, int | None]:
    """Exact minimum-height rooted forest by branch and bound on vertex
    masks, as a parent map (roots map to None) that lists every vertex
    after its parent.

    ``depth(s, bound)`` returns td(s) when it is below ``bound``, and
    otherwise a lower bound that is at least ``bound``.  A connected set
    tries each root in ascending order with cap ``incumbent - 1``, and a
    root replaces the incumbent only when strictly lower, so the first root
    that attains the minimum is kept.  ``exact`` holds each solved set's
    treedepth and that root, or None for a disconnected set; ``low`` holds
    the lower bound of a set whose search hit its cap.  The forest is then
    hung from ``exact`` in one pass from the top, which sets each root's
    parent before it descends below that root."""
    if g.n > TREEDEPTH_MAX_N:
        raise SizeLimitError(
            f"exact treedepth limited to n <= {TREEDEPTH_MAX_N}, got {g.n}")
    nbr = _adjacency_masks(g)
    exact: dict[int, tuple[int, int | None]] = {0: (0, None)}
    low: dict[int, int] = {}

    def components(s: int) -> list[int]:
        comps = []
        while s:
            comp = _component(nbr, s & -s, s)[0]
            comps.append(comp)
            s ^= comp
        return comps

    def depth(s: int, bound: int) -> int:
        hit = exact.get(s)
        if hit is not None:
            return hit[0]
        floor = low.get(s, 1)
        if floor >= bound:
            return floor
        comps = components(s)
        if len(comps) > 1:
            height = 0
            for comp in comps:
                height = max(height, depth(comp, bound))
                if height >= bound:
                    low[s] = height
                    return height
            exact[s] = (height, None)
            return height
        best = fail = s.bit_count() + 1
        root = None
        rest = s
        while rest and best > floor:
            bit = rest & -rest
            rest ^= bit
            cap = min(best, bound)
            h = depth(s ^ bit, cap - 1) + 1
            if h < cap:
                best, root = h, bit.bit_length() - 1
            else:
                fail = min(fail, h)
        if root is None:
            low[s] = fail
            return fail
        exact[s] = (best, root)
        return best

    everything = (1 << g.n) - 1
    depth(everything, g.n + 1)
    parent: dict[int, int | None] = {}
    stack: list[tuple[int, int | None]] = [(everything, None)]
    while stack:
        s, above = stack.pop()
        if not s:
            continue
        root = exact[s][1]
        if root is None:
            stack += ((comp, above) for comp in components(s))
        else:
            parent[root] = above
            stack.append((s ^ (1 << root), root))
    return parent


def _signature(g: Graph, attach: int, comp: int) -> tuple:
    """Equality class of a component, given with the attachment set as
    vertex masks: colored canonical form of its graph, where each vertex's
    color is the mask of the attachment vertices it neighbors.  Equal
    signatures mean an isomorphism exists matching both the component
    graphs and every attachment adjacency."""
    sub, remap = induced_subgraph(g, set_of(comp))
    return canonical_form(sub, [mask_of(g.adj[v]) & attach for v in remap])


# ---------------------------------------------------------------------------
# bound calculators (exact big-integer arithmetic)


def bound_f_star(k: int, p: int, level: int) -> int:
    """Recursive subtree-partition bound: p at level k, and one level down
    multiplies a tower (3 * 2^k * next^4)^level."""
    if not (1 <= level <= k):
        raise ValueError("level must lie in [1, k]")
    if p < 1:
        raise ValueError("p must be >= 1")
    if level == k:
        return p
    nxt = bound_f_star(k, p, level + 1)
    return (3 * (2 ** k) * nxt ** 4) ** level * p


def bound_f(k: int, p: int) -> int:
    return bound_f_star(k, p, 1) ** 2


def bound_g(t: int, p: int) -> tuple[int, int, int, int, int]:
    """The full chain (g4, g3, g2, g1, g) of duplicate-component bounds."""
    if t < 1 or p < 1:
        raise ValueError("arguments must be >= 1")
    g4 = 4 * t + 4 * p + 1
    g3 = 2 * g4 + 2
    g2 = max(g3 * (6 * t - 1) + 6 * t, 3 * g4 + 3)
    g1 = bound_f(p, g2)
    g = (6 * t + 1) ** p * g1 + 1
    return g4, g3, g2, g1, g


def bound_h(k: int, j: int) -> int:
    """Per-rank size bound: h(1) = 1 and
    h(j) = 2^C(h(j-1), 2) * 2^((k+j-1) h(j-1)) * g(k+1, h(j-1)).

    Values explode immediately (h(3) is already astronomically large);
    exact integers only.
    """
    if j < 1 or k < 1:
        raise ValueError("arguments must be >= 1")
    if j == 1:
        return 1
    prev = bound_h(k, j - 1)
    return (2 ** comb(prev, 2)) * (2 ** ((k + j - 1) * prev)) * bound_g(k + 1, prev)[4]


def surrogate_threshold(t: int, p: int) -> int:
    """Desk-scale stand-in for the provable bound: 2t + 2p + 1.  Far below
    g(t, p), and empirically width-preserving on the tested instances."""
    return 2 * t + 2 * p + 1


def prune_by_treedepth(g: Graph, threshold: int | None = None
                       ) -> tuple[Graph, list[frozenset[int]]]:
    """Walk the ranks of an exact treedepth decomposition bottom-to-top; at
    each node group the child subtrees by attachment-colored signature and
    keep at most the class threshold.  Returns the pruned graph and the
    vertex sets of the removed subtrees, in the order they were removed.

    ``threshold`` fixes one global class bound; otherwise each class uses
    the surrogate, never the provable g bound, which at n <= 12 exceeds
    every sibling count (see the module docstring).
    """
    if threshold is not None and threshold < 1:
        raise ValidationError("threshold must be >= 1")
    parent = treedepth_decomposition(g)
    # one pass down, parents first: a node's ancestors and itself, the
    # vertices its child subtrees attach to; its depth is their number
    attach: dict[int, int] = {}
    for v, p in parent.items():
        attach[v] = (0 if p is None else attach[p]) | 1 << v

    below = {v: 1 << v for v in parent}  # node -> its decomposition subtree
    kids: dict[int, list[int]] = {v: [] for v in parent}
    alive = (1 << g.n) - 1
    removed: list[frozenset[int]] = []
    # deepest nodes first, so every subtree is pruned before its ancestors;
    # a node's children are all passed, in ascending order, before it
    for node in sorted(parent, key=lambda v: (-attach[v].bit_count(), v)):
        up = parent[node]
        if up is not None:
            below[up] |= below[node]
            kids[up].append(node)
        if not alive >> node & 1:
            continue
        classes: dict[tuple, list[int]] = {}
        for c in kids[node]:
            if alive >> c & 1:
                sub = below[c] & alive
                classes.setdefault(_signature(g, attach[node], sub), []).append(sub)
        # of each class keep the members with the smallest vertices
        for members in classes.values():
            members.sort(key=lambda m: m & -m)
            bound = (threshold if threshold is not None
                     else surrogate_threshold(attach[node].bit_count(),
                                              members[0].bit_count()))
            for extra in members[bound:]:
                removed.append(set_of(extra))
                alive &= ~extra
    out, _ = induced_subgraph(g, set_of(alive))
    return out, removed
