"""Branch decompositions: structure, width evaluation, solvers, and tree
utilities.

A branch decomposition of a graph is a subcubic tree whose leaves are
mapped bijectively onto the graph's vertices; removing a tree edge splits
the leaves, hence the vertices, into the cut evaluated by the cut function.
A ``BranchDecomposition`` checks that shape once, when it is built, so every
tree here is valid and only the leaf count is left to match a graph.
Every solver describes its tree as a split hierarchy -- the vertex set
split in two, each side split again down to single vertices -- and one
builder turns that into a tree; one walk of a tree gives every edge's
side.  The exact solvers are an enumerator over split hierarchies, which
skips only shapes that cannot beat its best so far, and a subset-split
dynamic program, searched top down with branch and bound over one byte
table of lower bounds on the cut values.  Twin-class values fill it at
once; pattern-family values are evaluated lazily, each only as far as the
incumbent width needs, and every pattern of two or more pairs that a
search finds raises the bound of each cut it crosses.  One split loop
serves both and visits only the splits whose two bounds are below the
incumbent; twin-class candidates come from a per-lowest-vertex list of
the masks below the incumbent, built only up to the set being split, and
the whole stride of that vertex when no mask of it reaches the incumbent.
For primal unions the dynamic program runs per component, and the
component law gives the width.  The two solvers agree by construction on
any symmetric cut function and cross-check each other in the test suite.

Each exact solver is a core, ``exact_width_dp`` or ``exact_width_enum``,
that returns the width with what a tree is built from, and a wrapper that
builds it.  Only ``solve`` and primal-3approx's PRIMAL solve call a
wrapper; every other exact solve of the verify suites calls a core.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, filterfalse, islice
from typing import Callable, Iterable, Iterator

from .cutfn import CutEvaluator, FamilySelector, PatternWitness, ntc_table
from .errors import (DecompositionError, MalformedLineError, SizeLimitError, read_document,
                     tagged_int_pairs)
from .families import Family
from .graph import Graph, _iter_bits, connected_components, induced_subgraph, mask_of

ENUM_MAX_N = 9  # (2n - 5)!! shapes: 135,135 at n = 9
# the dp keeps 2^n-entry tables: a byte per mask for value bounds, exact
# marks and width bounds, and a 4-byte array of splits; a split search may
# walk 2^|S| submasks.  The ntc candidate lists of an incumbent partition
# the masks, so they hold at most 4 (n + 1) 2^n bytes of masks, 2 MB at
# n = 15.  A side of an ntc cut has at most min(|X|, 2^(n - |X|)) twin
# classes, 11 at n = 15 and 15 for n <= 19: cutfn.ntc_table counts in 4 bits
DP_MAX_N = 15
# greedy: each split's swap search evaluates up to n^2 / 4 cuts per swap;
# width: each cut search is exponential in the cut
GREEDY_MAX_N = 40


class BranchDecomposition:
    """Subcubic tree plus a bijection from its leaves onto the vertices
    0..k-1, checked by ``validate_decomposition`` when it is built, so a
    ``BranchDecomposition`` is always a valid one.

    A one-vertex graph is decomposed by a single (leaf) node; a two-vertex
    graph by a single edge; the empty graph by the empty tree.
    """

    __slots__ = ("num_nodes", "edges", "leaf_map", "adjacency")

    def __init__(self, num_nodes: int, edges: Iterable[tuple[int, int]],
                 leaf_map: dict[int, int]):
        self.num_nodes = num_nodes
        self.edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        self.leaf_map = dict(leaf_map)
        self.adjacency = validate_decomposition(self)

    def __repr__(self) -> str:
        return f"BranchDecomposition(nodes={self.num_nodes}, leaves={len(self.leaf_map)})"


def validate_decomposition(bd: BranchDecomposition) -> dict[int, set[int]]:
    """The adjacency of ``bd``'s tree, once every structural invariant is
    checked; raises DecompositionError at the first violation.  Only the
    constructor calls it.  The node count is checked against the edges
    before one set per node is allocated, so a huge count costs nothing."""
    n_nodes = bd.num_nodes
    if n_nodes < 0:
        raise DecompositionError(f"node count must be nonnegative, got {n_nodes}")
    need = max(n_nodes - 1, 0)
    if len(bd.edges) != need:
        raise DecompositionError(
            f"a tree on {n_nodes} nodes needs {need} edges, got {len(bd.edges)}")
    adjacency: dict[int, set[int]] = {v: set() for v in range(n_nodes)}
    for u, v in bd.edges:
        if u < 0 or v >= n_nodes:  # edges are stored as (min, max)
            raise DecompositionError(f"tree edge ({u}, {v}) out of range for {n_nodes} nodes")
        adjacency[u].add(v)
        adjacency[v].add(u)
    # connectivity (with the right edge count this also implies acyclicity)
    if n_nodes and len(_edge_sides(adjacency, 0, {})) != n_nodes - 1:
        raise DecompositionError("not connected, hence not a tree")
    for v in range(n_nodes):
        if len(adjacency[v]) > 3:
            raise DecompositionError(f"node {v} has degree {len(adjacency[v])} > 3")
    if set(bd.leaf_map) != {v for v in range(n_nodes) if len(adjacency[v]) <= 1}:
        raise DecompositionError("leaf map must cover exactly the leaves")
    k = len(bd.leaf_map)
    if sorted(bd.leaf_map.values()) != list(range(k)):
        raise DecompositionError(f"leaf map must be a bijection onto the vertices 0..{k - 1}")
    return adjacency


def _edge_sides(adjacency: dict[int, set[int]], root: int,
                weights: dict[int, int]) -> dict[tuple[int, int], int]:
    """Every tree edge (min, max) reachable from ``root``, mapped to the
    summed weight of its side away from ``root``, by one breadth-first walk."""
    parent = {root: root}
    order = [root]
    for u in order:
        for w in adjacency[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    acc = {v: weights.get(v, 0) for v in order}
    sides = {}
    for v in reversed(order[1:]):
        u = parent[v]
        acc[u] += acc[v]
        sides[(u, v) if u < v else (v, u)] = acc[v]
    return sides


def edge_cuts(bd: BranchDecomposition) -> dict[tuple[int, int], int]:
    """Every tree edge's cut as a vertex mask: the side of ``bd - e`` that
    holds the smallest vertex's leaf."""
    if not bd.leaf_map:
        return {}
    root = min(bd.leaf_map, key=bd.leaf_map.__getitem__)
    weights = {node: 1 << v for node, v in bd.leaf_map.items()}
    full = sum(weights.values())
    return {e: full ^ side for e, side in _edge_sides(bd.adjacency, root, weights).items()}


@dataclass
class WidthReport:
    width: int
    argmax_edge: tuple[int, int] | None
    per_edge: dict[tuple[int, int], tuple[int, PatternWitness]]
    selector: FamilySelector

    def to_json_dict(self) -> dict:
        return {
            "families": self.selector.name(),
            "width": self.width,
            "argmax_edge": list(self.argmax_edge) if self.argmax_edge else None,
            "edges": [
                {"edge": [u, v], "value": val, "witness": w.to_json_dict()}
                for (u, v), (val, w) in sorted(self.per_edge.items())
            ],
        }


def decomposition_width(bd: BranchDecomposition, g: Graph, sel: FamilySelector,
                        evaluator: CutEvaluator | None = None) -> WidthReport:
    """Evaluate the cut function on every tree edge, each cut read from
    one ``edge_cuts`` walk; width is the maximum.  Limited to GREEDY_MAX_N
    vertices, counted per connected component for a primal union, so that
    ``solve`` can still check the trees the dp solver builds component by
    component."""
    size = g.n
    if size > GREEDY_MAX_N and sel.is_primal_union():
        size = max(map(len, connected_components(g)))
    if size > GREEDY_MAX_N:
        where = " per component" if sel.is_primal_union() else ""
        raise SizeLimitError(
            f"width evaluation limited to {GREEDY_MAX_N} vertices{where}, got {size}")
    if len(bd.leaf_map) != g.n:
        raise DecompositionError(
            f"decomposition has {len(bd.leaf_map)} leaves, graph has {g.n} vertices")
    ev = evaluator if evaluator is not None else CutEvaluator(g)
    cuts = edge_cuts(bd)
    per_edge: dict[tuple[int, int], tuple[int, PatternWitness]] = {}
    width = 0
    argmax = None
    for e in bd.edges:
        value, witness = ev.value_of_mask(cuts[e], sel)
        per_edge[e] = (value, witness)
        if value > width:
            width = value
            argmax = e
    if argmax is None and bd.edges:
        argmax = bd.edges[0]
    return WidthReport(width, argmax, per_edge, sel)


# ---------------------------------------------------------------------------
# enumeration of decomposition shapes


def _hierarchy_tree(n: int, clusters: tuple[int, ...]) -> BranchDecomposition:
    """The decomposition of a hierarchy on 1..n-1 given by its cluster
    masks: the root edge splits off vertex 0, and a cluster's larger proper
    subcluster is one of its two children (the side holding its lowest
    vertex comes first)."""
    split = {(1 << n) - 1: 1}
    for s in clusters:
        if s & (s - 1):
            child = max((c for c in clusters if c != s and c & s == c), key=int.bit_count)
            split[s] = child if child & s & -s else s ^ child
    return _tree_from_splits(n, lambda m: (split[m], m ^ split[m]))


def exact_branchwidth_enum(g: Graph, sel: FamilySelector,
                           evaluator: CutEvaluator | None = None
                           ) -> tuple[int, BranchDecomposition]:
    """``exact_width_enum`` and the tree of its hierarchy, for ``solve
    --solver enum``."""
    width, clusters = exact_width_enum(g, sel, evaluator)
    return width, _hierarchy_tree(g.n, clusters)


def exact_width_enum(g: Graph, sel: FamilySelector,
                     evaluator: CutEvaluator | None = None
                     ) -> tuple[int, tuple[int, ...]]:
    """Global minimum width over all decomposition shapes, and the cluster
    masks of the first achiever in enumeration order; builds no tree.

    Every unrooted leaf-labeled binary tree on the vertices 0..n-1 comes once:
    hung off vertex 0, a tree is a rooted binary hierarchy on 1..n-1, given
    by its cluster masks, which are exactly the tree's edge cuts (the side
    away from vertex 0).  Vertex k is inserted above each node of every
    hierarchy on 1..k-1; (2n-5)!! hierarchies for n >= 3.  The walk skips a
    partial hierarchy once some cluster's least possible final value reaches
    the best width so far, so it returns what the full scan would."""
    n = g.n
    if n > ENUM_MAX_N:
        raise SizeLimitError(f"enumeration solver limited to n <= {ENUM_MAX_N}, got {n}")
    ev = evaluator if evaluator is not None else CutEvaluator(g)
    # a full scan touches nearly every subset, so precompute the whole
    # value table, one evaluation per complement pair: the masks without
    # vertex n - 1 (just the empty mask when n = 0) and their complements
    full = (1 << n) - 1
    vals = [0] * (full + 1)
    for m in range((full >> 1) + 1):
        vals[m] = vals[full ^ m] = ev.value_of_mask(m, sel)[0]
    # every shape cuts off each single vertex, so no width is below this;
    # the first shape that reaches it is the first minimum
    floor = max((vals[1 << v] for v in range(n)), default=0)
    # low[k][c]: the least value of c joined with any of the vertices k..n-1,
    # a lower bound on what a cluster c becomes once they are all inserted
    low = {n: vals}
    for k in range(n - 1, 1, -1):
        above, bit = low[k + 1], 1 << k
        low[k] = [min(above[c], above[c | bit]) for c in range(1 << n)]
    best = max(vals) + 1  # above every width
    best_clusters: tuple[int, ...] = ()

    def grow(clusters: tuple[int, ...], k: int) -> bool:
        """Walk the hierarchies below ``clusters`` in enumeration order,
        skipping those no better than the best so far; True once a shape
        reaches the floor."""
        nonlocal best, best_clusters
        if k >= n:
            width = max(map(vals.__getitem__, clusters), default=0)
            if width < best:
                best = width
                best_clusters = clusters
            return best <= floor
        if max(map(low[k].__getitem__, clusters)) >= best:
            return False
        bit = 1 << k
        for x in clusters:
            # x and its ancestors are the clusters containing x: k joins
            # them, and x stays below as the sibling of k
            lifted = tuple(c | bit if c & x == x else c for c in clusters)
            if grow(lifted + (x, bit), k + 1):
                return True
        return False

    grow((2,) if n >= 2 else (), 2)
    return best, best_clusters


# ---------------------------------------------------------------------------
# subset-split dynamic program


def _tree_from_splits(n: int, split: Callable[[int], tuple[int, int]]
                      ) -> BranchDecomposition:
    """The decomposition grown from ``split``: the root edge joins the two
    sides of split(V), and every other leaf set S of two or more vertices
    hangs below an internal node whose children are the sides of split(S).
    Leaves are the vertex ids; internal nodes are numbered from n in
    preorder."""
    if n <= 1:
        return BranchDecomposition(n, [], {0: 0} if n else {})
    edges: list[tuple[int, int]] = []
    root_edge: list[int] = []
    next_internal = n
    # (leaf set, parent node or -1 for a side of the root edge), popped in
    # preorder; a stack, not recursion, since a tree may be n levels deep
    stack = [(side, -1) for side in reversed(split((1 << n) - 1))]
    while stack:
        mask, parent = stack.pop()
        if mask & (mask - 1) == 0:
            node = mask.bit_length() - 1
        else:
            node = next_internal
            next_internal += 1
            s1, s2 = split(mask)
            stack += [(s2, node), (s1, node)]
        if parent < 0:
            root_edge.append(node)
        else:
            edges.append((parent, node))
    edges.append(tuple(root_edge))
    return BranchDecomposition(next_internal, edges, {i: i for i in range(n)})


def _dp_splits(g: Graph, sel: FamilySelector, evaluator: CutEvaluator
               ) -> tuple[int, array]:
    """Exact solver on the whole vertex set: best(S) is the minimum over
    unordered splits {S1, S2} of max(f(S1), f(S2), best(S1), best(S2)) with
    singleton base 0.  The best split of V is the root edge: f(S1) equals
    f(S2) there, so best(V) already counts the root cut.  Returns best(V)
    and, for every subset S the tree reaches, the side S1 of its first best
    split; S1 holds S's lowest vertex, and splits are ordered by S1
    ascending.  Searched top down with branch and bound: solve(S, bound)
    is best(S) if below bound, else a lower bound >= bound, and it only
    looks at splits whose two cut values are below its incumbent.

    One table serves every selector: ``vals[m]`` is a lower bound on f(m),
    exact where ``exact[m]`` is set.  Twin-class values all come first,
    exact, from one bit-sliced fill (``cutfn.ntc_table``); pattern-family
    values are evaluated lazily, capped at the incumbent.  A pattern that a
    search returns, at the cap or exact, is a certificate: it depends only
    on the edges between its own vertices, so it lies across every cut that
    puts its x-vertices A on one side and its y-vertices B on the other, and
    one with q >= 2 pairs raises the bounds of all those cuts to q (a
    one-pair pattern would walk 2^(n - 2) masks for a bound of 1).  No such
    pattern fits a singleton cut, so the singles and the balanced-edge
    floor read what they did.  One loop walks the candidate sides S1
    ascending, taken from the masks below the incumbent whose lowest vertex
    is S's (twin classes; a list built only up to S, or that vertex's whole
    stride when none of it reaches the incumbent), or from the submasks of
    S holding its lowest vertex (pattern families).  The root starts from
    the balanced-edge lower bound.  Every decision compares a cut value
    with the incumbent, and a bound is only ever raised to a value the cut
    has, so a split that a raised bound skips is one its own search would
    have put at or above the incumbent: the splits stay those of the full
    table."""
    n = g.n
    full = (1 << n) - 1
    top = n + 1  # above every cut value, so every value and bound fits a byte
    value_of_mask = evaluator.value_of_mask

    def resolve(m: int, cap: int) -> int:
        """f(m) if below cap, else a lower bound >= cap (one capped
        ``value_of_mask``); stored on m and on its complement (f is symmetric).
        Its pattern then raises to q the masks A | t, t a submask of the
        vertices outside the pattern, and their complements."""
        value, witness = value_of_mask(m, sel, cap)
        vals[m] = vals[full ^ m] = value
        if value < cap:
            exact[m] = exact[full ^ m] = 1
        if value >= 2:
            a = mask_of(x for x, _ in witness.pairs)
            free = full ^ a ^ mask_of(y for _, y in witness.pairs)
            t = free
            while True:
                if vals[a | t] < value:
                    vals[a | t] = vals[full ^ a ^ t] = value
                if not t:
                    break
                t = (t - 1) & free
        return value

    if sel.ntc:
        vals = ntc_table(g)
        exact = b"\1" * (full + 1)
    else:
        vals = bytearray(full + 1)
        exact = bytearray(full + 1)
        for v in range(n):
            resolve(1 << v, top)
    split = array("I", [0]) * (full + 1)

    # low[m] is a lower bound on best(m), exact once split[m] is set; a
    # rooted tree on m cuts off each vertex of m, so the first visit starts
    # it at m's largest singleton value: that of the first bit of m in
    # ``singles``, the vertex bits by decreasing value
    low = bytearray(full + 1)
    singles = sorted((1 << v for v in range(n)), key=vals.__getitem__, reverse=True)

    lists: dict[tuple[int, int], list] = {}  # (w, bit) -> [masks, end, picks]

    def below_window(s: int, after: int, inc: int) -> Iterator[int]:
        # a side S1 holding s's lowest vertex has it as its own lowest bit,
        # so the splits of s that can pass are the masks with f < inc and
        # lowest bit s & -s: the whole stride if none is at or above inc,
        # else an array of those below ``end``, grown up to s from ``picks``
        # (byte k: is the k-th mask below inc?).  islice, not a slice: a copy
        # would stay alive down the recursion; deeper searches append past it
        bit = s & -s
        entry = lists.get((inc, bit))
        if entry is None:
            picks = vals[bit::2 * bit].translate(b"\1" * inc + bytes(256 - inc))
            entry = lists[inc, bit] = ([range(bit, full + 1, 2 * bit), full + 1, None]
                                       if 0 not in picks else [array("I"), bit, memoryview(picks)])
        masks, end, picks = entry
        if end < s:
            masks.extend(compress(range(end, s, 2 * bit), picks[end // (2 * bit):]))
            entry[1] = s
        window = islice(masks, bisect_right(masks, after), bisect_left(masks, s))
        return filterfalse((full ^ s).__and__, window)

    def submasks(s: int, after: int, inc: int) -> Iterator[int]:
        # bit | t for the submasks t of rest ascending (t == rest excluded:
        # s2 would be empty); bit in every s1 keeps the splits unordered
        bit = s & -s
        rest = s ^ bit
        t = ((after ^ bit) - rest) & rest if after else 0
        while t != rest:
            yield bit | t
            t = (t - rest) & rest

    candidates = below_window if sel.ntc else submasks

    def solve(s: int, bound: int) -> int:
        lo = low[s]
        if split[s]:
            return lo
        if not lo:
            lo = low[s] = vals[next(filter(s.__and__, singles))]
        if lo >= bound:
            return lo
        inc = bound
        s1 = 0
        # each pass resumes just after the split that last lowered the
        # incumbent and ends at the next one
        while inc > lo:
            for s1 in candidates(s, s1, inc):
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
    # every tree has an edge with between n/3 and 2n/3 vertices on each
    # side, so no width is below the least bound of such a cut: the bound
    # of the first balanced mask met, scanning bounds upwards
    for floor in range(top):
        m = vals.find(floor)
        while m >= 0 and not n <= 3 * m.bit_count() <= 2 * n:
            m = vals.find(floor, m + 1)
        if m >= 0:
            break
    low[full] = max(vals[singles[0]], floor)
    return solve(full, top), split


def exact_branchwidth_dp(g: Graph, sel: FamilySelector,
                         evaluator: CutEvaluator | None = None
                         ) -> tuple[int, BranchDecomposition]:
    """``exact_width_dp`` and the tree grown from its splits, for ``solve``
    and primal-3approx's PRIMAL solve.  Over components, the root splits
    off the first, the next node the second, and so on."""
    width, parts = exact_width_dp(g, sel, evaluator)
    if len(parts) == 1:
        split = parts[0][1]
    else:
        split = {}
        rest = (1 << g.n) - 1
        for remap, local in parts:
            # copy the component's reachable splits into global vertex bits
            stack = [(1 << len(remap)) - 1]
            while stack:
                m = stack.pop()
                if m & (m - 1):
                    s1 = local[m]
                    split[_global_mask(m, remap)] = _global_mask(s1, remap)
                    stack += (s1, m ^ s1)
            cmask = mask_of(remap)
            if rest != cmask:
                split[rest] = cmask
                rest ^= cmask
    return width, _tree_from_splits(g.n, lambda m: (split[m], m ^ split[m]))


def exact_width_dp(g: Graph, sel: FamilySelector,
                   evaluator: CutEvaluator | None = None
                   ) -> tuple[int, list[tuple[tuple[int, ...], array]]]:
    """Exact minimum width, and a (vertices, ``_dp_splits`` array) pair per
    part solved; builds no tree.

    Disconnected graphs are routed through their components when the
    selector is a union of the matching, chain and anti-matching families;
    for those families a pattern never straddles two components (the
    degenerate one-pair anti-matching is the only cross-component pattern,
    and the composed decomposition stays optimal in that case too, since
    then every cut of every decomposition pays for it).  Each component is
    a part, and the width follows from the component widths by the
    component law (``component_law_expected``).  Other selectors run the
    dynamic program on the whole graph, the one part.
    """
    comps = connected_components(g)
    if len(comps) > 1 and sel.is_primal_union():
        for comp in comps:
            if len(comp) > DP_MAX_N:
                raise SizeLimitError(
                    f"component of size {len(comp)} exceeds solver limit {DP_MAX_N}")
        widths = []
        parts = []
        for comp in comps:
            sub, remap = induced_subgraph(g, comp)
            width, local = _dp_splits(sub, sel, CutEvaluator(sub))
            widths.append(width)
            parts.append((remap, local))
        return component_law_expected(g, widths, sel), parts
    if g.n > DP_MAX_N:
        raise SizeLimitError(f"dynamic program limited to n <= {DP_MAX_N}, got {g.n}")
    ev = evaluator if evaluator is not None else CutEvaluator(g)
    width, split_of = _dp_splits(g, sel, ev)
    return width, [(tuple(range(g.n)), split_of)]


def component_law_expected(g: Graph, comp_widths: list[int],
                           sel: FamilySelector) -> int:
    """Whole-graph width from component widths: their maximum, lifted to 1
    for anti-matching unions on disconnected graphs (the one-pair pattern
    crosses components in every cut of every decomposition)."""
    expected = max(comp_widths, default=0)
    if Family.ANTIMATCH in sel.families and g.n >= 2:
        expected = max(expected, 1)
    return expected


def _global_mask(m: int, remap: tuple[int, ...]) -> int:
    """A subgraph's vertex mask in the parent graph's bits (``remap``: new
    local -> original)."""
    return mask_of(v for i, v in enumerate(remap) if m >> i & 1)


# ---------------------------------------------------------------------------
# greedy upper-bound heuristic


def greedy_branchwidth(g: Graph, sel: FamilySelector
                       ) -> tuple[int, BranchDecomposition]:
    """Upper-bound heuristic: recursive balanced bipartitioning, improving
    each split by deterministic swap local search.  The returned width is
    that of a genuine decomposition, hence >= the exact optimum."""
    if g.n > GREEDY_MAX_N:
        raise SizeLimitError(f"greedy heuristic limited to n <= {GREEDY_MAX_N}, got {g.n}")
    ev = CutEvaluator(g)
    bd = _tree_from_splits(g.n, lambda mask: _balanced_split(ev, sel, mask))
    return decomposition_width(bd, g, sel, evaluator=ev).width, bd


def _balanced_split(ev: CutEvaluator, sel: FamilySelector, mask: int) -> tuple[int, int]:
    """The lower half of the vertices of ``mask`` against the upper half,
    then the first improving swap (ascending u in a, then v in b) until
    none; a swap only has to beat the current cost, so it is evaluated
    with that cost as the cap."""
    bits = list(_iter_bits(mask))
    a = sum(bits[:len(bits) // 2])
    b = mask ^ a
    cost = ev.value_of_mask(a, sel)[0]
    improved = True
    while improved:
        improved = False
        for u in _iter_bits(a):
            for v in _iter_bits(b):
                c2 = ev.value_of_mask(a ^ u ^ v, sel, cost)[0]
                if c2 < cost:
                    a ^= u ^ v
                    b ^= u ^ v
                    cost = c2
                    improved = True
                    break
            if improved:
                break
    return a, b


# ---------------------------------------------------------------------------
# tree utilities


def find_balanced_edge(bd: BranchDecomposition, weights: dict[int, float]) -> tuple[int, int]:
    """The tree edge maximizing the lighter side's weight (ties broken by
    smallest edge); ``weights`` are keyed by tree node.

    Whenever some edge splits the weight 1/3-to-2/3 -- guaranteed for the
    weightings this package uses, namely 0/1 markings of at least two
    leaves -- the returned edge is such a split.  With more skewed
    weightings (most of the mass on one node) no balanced edge need exist,
    and the best available split is returned instead.  Raises ValueError
    unless the weight is positive and the tree has an edge.
    """
    total = sum(weights.get(v, 0) for v in bd.adjacency)
    if total <= 0:
        raise ValueError("total weight must be positive")
    sides = _edge_sides(bd.adjacency, 0, weights)
    if not sides:
        raise ValueError("tree has no edges")
    return max(sorted(sides), key=lambda e: min(sides[e], total - sides[e]))


# ---------------------------------------------------------------------------
# text and JSON formats


def decomposition_to_text(bd: BranchDecomposition) -> str:
    lines = [f"tree {bd.num_nodes}"]
    lines.extend(f"t {u} {v}" for u, v in bd.edges)
    lines.extend(f"leaf {node} {vertex}" for node, vertex in sorted(bd.leaf_map.items()))
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> BranchDecomposition:
    (num_nodes,), body = read_document(text, "tree <#nodes>")
    edges, leaves = tagged_int_pairs(body, "t|leaf <a> <b>")
    leaf_map = dict(leaves)
    if len(leaf_map) < len(leaves):
        seen: set[int] = set()
        node = next(a for a, _ in leaves if a in seen or seen.add(a))
        raise MalformedLineError(f"leaf node {node} given twice")
    try:
        return BranchDecomposition(num_nodes, edges, leaf_map)
    except DecompositionError as exc:
        raise MalformedLineError(str(exc)) from None


def decomposition_to_json_dict(bd: BranchDecomposition) -> dict:
    return {
        "nodes": bd.num_nodes,
        "edges": [[u, v] for u, v in bd.edges],
        "leaves": {str(node): vertex for node, vertex in sorted(bd.leaf_map.items())},
    }
