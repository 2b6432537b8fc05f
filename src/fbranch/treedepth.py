"""Treedepth decompositions, duplicate-component pruning, and the bound
calculators that justify the pruning thresholds.

A rooted forest whose closure contains the graph certifies treedepth; the
exact solver is a branch and bound over vertex masks: each root of a
connected set is searched only below the best height found so far, and a
set whose search hits its cap keeps the lower bound it proved.  Pruning walks
the decomposition bottom-up, groups sibling subtrees by their attachment-
colored canonical form, and keeps only a bounded number per class.  The
provably safe class bound g(t, p) is computed but never prunes: its least
value, g(1, 1) = 78,653, exceeds the at most 11 siblings of any graph
within the exact solver's limit (n <= 12), so it would keep every vertex.
The default is a small surrogate whose safety the test suite checks
empirically, width before versus width after.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .canonical import canonical_form
from .errors import SizeLimitError, ValidationError
from .graph import Graph, _adjacency_masks, _component, induced_subgraph


@dataclass
class TreedepthDecomposition:
    """Rooted forest over the graph's vertices: parent map (roots map to
    None) whose closure contains every graph edge."""

    parent: dict[int, int | None]

    def depth(self, v: int) -> int:
        return len(self._ancestors(v)) + 1

    @property
    def height(self) -> int:
        return max((self.depth(v) for v in self.parent), default=0)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                if p not in out:
                    raise ValidationError(f"parent {p} of vertex {v} is not a vertex")
                out[p].append(v)
        for lst in out.values():
            lst.sort()
        return out

    def validate(self, g: Graph) -> None:
        if set(self.parent) != set(range(g.n)):
            raise ValidationError("parent map must cover exactly the graph's vertices")
        for v, p in self.parent.items():
            if p is not None and p not in self.parent:
                raise ValidationError(f"parent {p} of vertex {v} is not a vertex")
            if v in self._ancestors(v):
                raise ValidationError(f"parent map has a cycle through vertex {v}")
        for u, v in g.edges():
            au = self._ancestors(u)
            if v not in au and u not in self._ancestors(v):
                raise ValidationError(f"edge ({u}, {v}) not in the forest closure")

    def _ancestors(self, v: int) -> set[int]:
        """Ancestors of v; the walk stops after a root, after a parent
        outside the map, or where it meets a vertex it already passed (a
        cycle)."""
        out = set()
        v = self.parent[v]
        while v is not None and v not in out:
            out.add(v)
            v = self.parent.get(v)
        return out


TREEDEPTH_MAX_N = 12


def treedepth_decomposition(g: Graph) -> TreedepthDecomposition:
    """Exact minimum-height rooted forest by branch and bound on vertex
    masks.

    ``depth(s, bound)`` returns td(s) when it is below ``bound``, and
    otherwise a lower bound that is at least ``bound``.  A connected set
    tries each root in ascending order with cap ``incumbent - 1``, and a
    root replaces the incumbent only when strictly lower, so the first root
    that attains the minimum is kept.  ``exact`` holds each solved set's
    treedepth and that root, or None for a disconnected set; ``low`` holds
    the lower bound of a set whose search hit its cap.  The forest is then
    hung from ``exact`` in one pass from the top."""
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


def prune_by_treedepth(g: Graph, threshold: int | None = None
                       ) -> tuple[Graph, PruneRecord]:
    """Walk the ranks of an exact treedepth decomposition bottom-to-top; at
    each node group the child subtrees by attachment-colored signature and
    keep at most the class threshold.

    ``threshold`` fixes one global class bound; otherwise each class uses
    the surrogate, never the provable g bound, which at n <= 12 exceeds
    every sibling count (see the module docstring).
    """
    if threshold is not None and threshold < 1:
        raise ValidationError("threshold must be >= 1")
    td = treedepth_decomposition(g)
    kids = td.children()
    depth = {v: td.depth(v) for v in td.parent}

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
        # of each class keep the members with the smallest vertices
        for members in classes.values():
            members.sort(key=min)
            bound = (threshold if threshold is not None
                     else surrogate_threshold(depth[node], len(members[0])))
            for extra in members[bound:]:
                removed.append(extra)
                alive -= extra
    out, _ = induced_subgraph(g, alive)
    return out, PruneRecord(removed=removed)
