"""Treedepth decompositions, duplicate-component pruning, and the bound
calculators that justify the pruning thresholds.

A rooted forest whose closure contains the graph certifies treedepth; the
exact solver recurses on vertex removal with memoization.  Pruning walks
the decomposition bottom-up, groups sibling subtrees by their attachment-
colored canonical form, and keeps only a bounded number per class.  The
provably safe class bound is astronomically large, so the default is a
small surrogate whose safety the test suite checks empirically, width
before versus width after.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .canonical import canonical_form
from .errors import SizeLimitError, ValidationError
from .graph import Graph, connected_components, induced_subgraph


@dataclass
class TreedepthDecomposition:
    """Rooted forest over the graph's vertices: parent map (roots map to
    None) whose closure contains every graph edge."""

    parent: dict[int, int | None]

    def depth(self, v: int) -> int:
        d = 1
        while self.parent[v] is not None:
            v = self.parent[v]
            d += 1
        return d

    @property
    def height(self) -> int:
        return max((self.depth(v) for v in self.parent), default=0)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                out[p].append(v)
        for lst in out.values():
            lst.sort()
        return out

    def validate(self, g: Graph) -> None:
        if set(self.parent) != set(range(g.n)):
            raise ValidationError("parent map must cover exactly the graph's vertices")
        for u, v in g.edges():
            au = self._ancestors(u)
            if v not in au and u not in self._ancestors(v):
                raise ValueError(f"edge ({u}, {v}) not in the forest closure")

    def _ancestors(self, v: int) -> set[int]:
        out = set()
        while self.parent[v] is not None:
            v = self.parent[v]
            out.add(v)
        return out


TREEDEPTH_MAX_N = 12


def treedepth_decomposition(g: Graph) -> TreedepthDecomposition:
    """Exact minimum-height rooted forest via recursive vertex removal with
    memoization on the vertex subset."""
    if g.n > TREEDEPTH_MAX_N:
        raise SizeLimitError(
            f"exact treedepth limited to n <= {TREEDEPTH_MAX_N}, got {g.n}")
    memo: dict[frozenset[int], tuple[int, dict[int, int | None]]] = {}

    def solve(vertices: frozenset[int]) -> tuple[int, dict[int, int | None]]:
        if not vertices:
            return 0, {}
        hit = memo.get(vertices)
        if hit is not None:
            return hit
        comps = connected_components(g, vertices)
        if len(comps) > 1:
            height = 0
            parent: dict[int, int | None] = {}
            for comp in comps:
                h, p = solve(comp)
                height = max(height, h)
                parent.update(p)
            memo[vertices] = (height, parent)
            return height, parent
        if len(vertices) == 1:
            v = next(iter(vertices))
            res = (1, {v: None})
            memo[vertices] = res
            return res
        best_h = len(vertices) + 1
        best_parent: dict[int, int | None] = {}
        best_root = -1
        for v in sorted(vertices):
            h, p = solve(vertices - {v})
            if h + 1 < best_h:
                best_h = h + 1
                best_root = v
                best_parent = p
        parent = {}
        for u, pu in best_parent.items():
            parent[u] = best_root if pu is None else pu
        parent[best_root] = None
        memo[vertices] = (best_h, parent)
        return best_h, parent

    _, parent = solve(frozenset(range(g.n)))
    return TreedepthDecomposition(parent)


def _signature(g: Graph, attach: frozenset[int], comp: frozenset[int]) -> tuple:
    """Equality class of a component: colored canonical form of its graph,
    where each vertex's color is the exact set of attachment vertices it
    neighbors.  Equal signatures mean an isomorphism exists matching both
    the component graphs and every attachment adjacency."""
    sub, remap = induced_subgraph(g, comp)
    return canonical_form(sub, [tuple(sorted(g.adj[v] & attach)) for v in remap])


@dataclass
class PruneRecord:
    removed: list[frozenset[int]]
    vertex_map: tuple[int, ...]  # new index -> old index

    def removed_count(self) -> int:
        return sum(len(c) for c in self.removed)


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


def prune_by_treedepth(g: Graph, threshold: int | None = None,
                       paper_bound: bool = False) -> tuple[Graph, PruneRecord]:
    """Walk the ranks of an exact treedepth decomposition bottom-to-top; at
    each node group the child subtrees by attachment-colored signature and
    keep at most the class threshold.

    ``threshold`` fixes one global class bound; otherwise each class uses
    the surrogate (or, with ``paper_bound``, the provable g bound, which on
    desk-scale inputs exceeds every multiplicity and prunes nothing).
    """
    if threshold is not None and threshold < 1:
        raise ValidationError("threshold must be >= 1")
    td = treedepth_decomposition(g)
    kids = td.children()
    depth = {v: td.depth(v) for v in td.parent}

    def class_bound(t: int, size: int) -> int:
        if threshold is not None:
            return threshold
        if paper_bound:
            return bound_g(t, size)[4]
        return surrogate_threshold(t, size)

    below: dict[int, frozenset[int]] = {}  # node -> its decomposition subtree
    alive: set[int] = set(range(g.n))
    removed: list[frozenset[int]] = []
    # deepest nodes first, so every subtree is pruned before its ancestors
    for node in sorted(td.parent, key=lambda v: (-depth[v], v)):
        below[node] = frozenset([node]).union(*(below[c] for c in kids[node]))
        if node not in alive:
            continue
        # the subtrees attach to the node and its ancestors: depth[node] vertices
        attach = frozenset(td._ancestors(node) | {node})
        classes: dict[tuple, list[frozenset[int]]] = {}
        for c in kids[node]:
            if c in alive:
                sub = below[c] & alive
                classes.setdefault(_signature(g, attach, sub), []).append(sub)
        # of each class keep the members with the smallest vertices; every
        # bound is at least 1, so a one-member class never asks for its bound
        for members in classes.values():
            if len(members) > 1:
                members.sort(key=min)
                for extra in members[class_bound(depth[node], len(members[0])):]:
                    removed.append(extra)
                    alive -= extra
    survivors = sorted(alive)
    out, _ = induced_subgraph(g, survivors)
    return out, PruneRecord(removed=removed, vertex_map=tuple(survivors))
