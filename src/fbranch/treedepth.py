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

from dataclasses import dataclass, field
from math import comb

from .canonical import canonical_form
from .errors import SizeLimitError, ValidationError
from .graph import Graph, induced_subgraph


@dataclass
class TreedepthDecomposition:
    """Rooted forest over the graph's vertices: parent map (roots map to
    None) whose closure contains every graph edge."""

    parent: dict[int, int | None]

    @property
    def roots(self) -> list[int]:
        return sorted(v for v, p in self.parent.items() if p is None)

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

    def subtree_vertices(self, v: int) -> frozenset[int]:
        kids = self.children()
        out = set()
        stack = [v]
        while stack:
            u = stack.pop()
            out.add(u)
            stack.extend(kids[u])
        return frozenset(out)

    def rank(self, v: int) -> int:
        """height - distance from the root; the deepest leaves have rank 1."""
        return self.height - (self.depth(v) - 1)

    def validate(self, g: Graph) -> None:
        assert set(self.parent) == set(range(g.n))
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


def treedepth_decomposition(g: Graph, limit: int = 12) -> TreedepthDecomposition:
    """Exact minimum-height rooted forest via recursive vertex removal with
    memoization on the vertex subset."""
    if g.n > limit:
        raise SizeLimitError(f"exact treedepth limited to n <= {limit}, got {g.n}")
    adj = g.adj
    memo: dict[frozenset[int], tuple[int, dict[int, int | None]]] = {}

    def solve(vertices: frozenset[int]) -> tuple[int, dict[int, int | None]]:
        if not vertices:
            return 0, {}
        hit = memo.get(vertices)
        if hit is not None:
            return hit
        comps = _components_within(adj, vertices)
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


def _components_within(adj, vertices: frozenset[int]) -> list[frozenset[int]]:
    seen: set[int] = set()
    comps = []
    for start in sorted(vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in vertices and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def exact_treedepth(g: Graph, limit: int = 12) -> int:
    return treedepth_decomposition(g, limit).height


@dataclass(frozen=True)
class ComponentSignature:
    """Equality class of a component: colored canonical form of its graph,
    where each vertex's color is the exact set of attachment vertices it
    neighbors.  Equal signatures mean an isomorphism exists matching both
    the component graphs and every attachment adjacency."""

    canonical: tuple

    @staticmethod
    def of(g: Graph, attach_to: frozenset[int], comp: frozenset[int]) -> "ComponentSignature":
        sub, remap = induced_subgraph(g, comp)
        colors = [tuple(sorted(g.adj[remap[i]] & attach_to)) for i in range(sub.n)]
        return ComponentSignature(canonical_form(sub, colors))


def component_signature(g: Graph, r: frozenset[int], comp: frozenset[int]
                        ) -> ComponentSignature:
    """Signature of one connected component of g - r."""
    comps = _components_within(g.adj, frozenset(range(g.n)) - frozenset(r))
    if frozenset(comp) not in comps:
        raise ValueError("comp is not a connected component of g - r")
    return ComponentSignature.of(g, frozenset(r), frozenset(comp))


@dataclass
class PruneRecord:
    removed: list[frozenset[int]] = field(default_factory=list)
    vertex_map: tuple[int, ...] = ()  # new index -> old index

    def removed_count(self) -> int:
        return sum(len(c) for c in self.removed)


def prune_duplicates(g: Graph, r: frozenset[int], threshold: int
                     ) -> tuple[Graph, PruneRecord]:
    """Among the components of g - r, keep at most ``threshold`` per
    signature class (the ones with smallest vertices), drop the rest."""
    if threshold < 1:
        raise ValidationError("threshold must be >= 1")
    r = frozenset(r)
    record = PruneRecord()
    by_sig: dict[ComponentSignature, list[frozenset[int]]] = {}
    for comp in _components_within(g.adj, frozenset(range(g.n)) - r):
        sig = ComponentSignature.of(g, r, comp)
        by_sig.setdefault(sig, []).append(comp)
    drop: set[int] = set()
    for sig in by_sig:
        comps = sorted(by_sig[sig], key=min)
        for extra in comps[threshold:]:
            record.removed.append(extra)
            drop |= extra
    survivors = [v for v in range(g.n) if v not in drop]
    record.vertex_map = tuple(survivors)
    out, _ = induced_subgraph(g, survivors)
    return out, record


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
                       paper_bound: bool = False, limit: int = 12
                       ) -> tuple[Graph, PruneRecord]:
    """Walk the ranks of an exact treedepth decomposition bottom-to-top; at
    each node group the child subtrees by attachment-colored signature and
    keep at most the class threshold.

    ``threshold`` fixes one global class bound; otherwise each class uses
    the surrogate (or, with ``paper_bound``, the provable g bound, which on
    desk-scale inputs exceeds every multiplicity and prunes nothing).
    """
    if threshold is not None and threshold < 1:
        raise ValidationError("threshold must be >= 1")
    td = treedepth_decomposition(g, limit)
    alive: set[int] = set(range(g.n))
    removed: list[frozenset[int]] = []
    height = td.height
    nodes_by_rank: dict[int, list[int]] = {}
    for v in td.parent:
        nodes_by_rank.setdefault(td.rank(v), []).append(v)
    for rank in range(2, height + 1):
        for node in sorted(nodes_by_rank.get(rank, ())):
            if node not in alive:
                continue
            root_path = frozenset(_root_path(td, node))
            kids = [c for c in td.children()[node] if c in alive]
            groups: dict[ComponentSignature, list[frozenset[int]]] = {}
            for c in kids:
                sub = frozenset(v for v in td.subtree_vertices(c) if v in alive)
                if not sub:
                    continue
                sig = _subtree_signature(g, alive, root_path, sub)
                groups.setdefault(sig, []).append(sub)
            for sig, subs in groups.items():
                subs.sort(key=min)
                if threshold is not None:
                    keep = threshold
                elif paper_bound:
                    keep = bound_g(len(root_path), len(subs[0]))[4]
                else:
                    keep = surrogate_threshold(len(root_path), len(subs[0]))
                for extra in subs[keep:]:
                    removed.append(extra)
                    alive -= extra
    survivors = sorted(alive)
    out, _ = induced_subgraph(g, survivors)
    record = PruneRecord(removed=removed, vertex_map=tuple(survivors))
    return out, record


def _root_path(td: TreedepthDecomposition, node: int) -> list[int]:
    out = [node]
    v = node
    while td.parent[v] is not None:
        v = td.parent[v]
        out.append(v)
    return out


def _subtree_signature(g: Graph, alive: set[int], root_path: frozenset[int],
                       sub: frozenset[int]) -> ComponentSignature:
    subg, remap = induced_subgraph(g, sub)
    colors = [tuple(sorted(g.adj[remap[i]] & root_path)) for i in range(subg.n)]
    return ComponentSignature(canonical_form(subg, colors))
