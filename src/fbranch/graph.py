"""Undirected simple graphs with 0-based vertex indices.

Graphs are immutable after construction, so every function here is pure and
safe to call concurrently.  Vertex subsets travel through the public API as
frozensets; internally most algorithms use Python ints as bitmasks, which
covers both the small fixed-width case and arbitrarily large vertex counts.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import (LoopEdgeError, MalformedLineError, SizeLimitError, VertexRangeError,
                     int_pairs, read_document)

GRAPH_MAX_N = 100_000  # parse_graph's vertex limit; the largest inputs in use have 2,000


class Graph:
    """Simple undirected graph: vertex count plus symmetric adjacency sets."""

    __slots__ = ("n", "adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise LoopEdgeError(f"loop edge at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj = tuple(frozenset(s) for s in adj)
        self._edges = tuple(sorted((u, v) for u in range(n) for v in adj[u] if u < v))

    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def num_edges(self) -> int:
        return len(self._edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def key(self) -> tuple:
        """Hashable structural identity (used as a cache key)."""
        return (self.n, self._edges)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self._edges)})"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: first line ``n m``, then m lines ``u v``.

    Multi-edges are silently deduplicated; loops are rejected.
    """
    (n, m), body = read_document(text, "<n> <m>")
    if n < 0 or m < 0:
        raise MalformedLineError("header counts must be nonnegative")
    # checked before the graph is built: it holds one set per vertex
    if n > GRAPH_MAX_N:
        raise MalformedLineError(f"vertex count {n} exceeds the limit {GRAPH_MAX_N}")
    if len(body) != m:
        raise MalformedLineError(f"expected {m} edge lines, found {len(body)}")
    return Graph(n, int_pairs(body, "<u> <v>"))


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on ``s``; returns it with the new->old index map."""
    keep = sorted(set(s))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return Graph(len(keep), edges), tuple(keep)


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets of g, sorted by smallest member, from
    one breadth-first walk."""
    seen = [False] * g.n
    adj = g.adj
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for u in comp:  # grows while it is read: a breadth-first walk
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
        comps.append(frozenset(comp))
    return comps


def bridges(g: Graph) -> list[tuple[int, int]]:
    """Edges whose removal increases the component count, in sorted order."""
    disc = [-1] * g.n
    low = [0] * g.n
    out: list[tuple[int, int]] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        # iterative DFS; (vertex, parent, neighbor iterator)
        stack: list[tuple[int, int, Iterator[int]]] = [(root, -1, iter(g.adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(g.adj[w])))
                    advanced = True
                    break
                elif w != parent:
                    low[v] = min(low[v], disc[w])
                # w == parent: the unique tree edge back up, never a back edge
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        out.append((min(pv, v), max(pv, v)))
    return sorted(out)


class BipartiteCutGraph:
    """Crossing edges of a cut as bitmasks: ``x_mask`` and ``y_mask`` are the
    two sides, and ``nbr`` is a list of neighbour masks held by reference
    (for a cut of a graph, the graph's own).  Only the bits of ``nbr[v]`` on
    the other side of the cut count: every search ANDs ``nbr[x]`` with
    candidates inside the other side, and ``~nbr[x]`` serves the bipartite
    complement.  ``comp`` is ``[~m for m in nbr]``, built once per graph
    by the caller, so that ``complement`` only swaps the two lists.
    Swapping the two side masks gives the same cut seen from Y."""

    __slots__ = ("x_mask", "y_mask", "nbr", "comp")

    def __init__(self, x_mask: int, y_mask: int, nbr: Sequence[int],
                 comp: Sequence[int]):
        self.x_mask = x_mask
        self.y_mask = y_mask
        self.nbr = nbr
        self.comp = comp

    @property
    def x_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set_of(self.x_mask)))

    @property
    def y_vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set_of(self.y_mask)))

    def has_edge(self, x: int, y: int) -> bool:
        """Defined only for x and y on opposite sides of the cut."""
        return bool(self.nbr[x] >> y & 1)

    def complement(self) -> "BipartiteCutGraph":
        """Bipartite complement: crossing pairs become edges iff absent here."""
        return BipartiteCutGraph(self.x_mask, self.y_mask, self.comp, self.nbr)

    def __repr__(self) -> str:
        m = sum((self.nbr[x] & self.y_mask).bit_count() for x in set_of(self.x_mask))
        return (f"BipartiteCutGraph(|X|={self.x_mask.bit_count()}, "
                f"|Y|={self.y_mask.bit_count()}, m={m})")


def cut_graph(g: Graph, side_x: Iterable[int]) -> BipartiteCutGraph:
    """Bipartite graph of edges crossing the cut (X, V - X)."""
    x = mask_of(side_x)
    nbr = _adjacency_masks(g)
    return BipartiteCutGraph(x, ((1 << g.n) - 1) ^ x, nbr, [~m for m in nbr])


TREEWIDTH_MAX_N = 15


def exact_treewidth(g: Graph) -> int:
    """Exact treewidth via the elimination-ordering dynamic program over
    vertex subsets.

    ``tw[S]`` is the best width achievable when the vertices of ``S`` have
    already been eliminated; eliminating ``v`` next costs the number of
    vertices outside ``S + v`` adjacent to v's component inside ``S + v``.
    A vertex whose ``tw[S]`` already reaches the best width found is skipped.
    """
    n = g.n
    if n > TREEWIDTH_MAX_N:
        raise SizeLimitError(f"exact treewidth limited to n <= {TREEWIDTH_MAX_N}, got {n}")
    if n == 0:
        return -1
    nbr = _adjacency_masks(g)
    full = (1 << n) - 1
    tw = [0] * (full + 1)
    for s in range(1, full + 1):
        best = n
        rest = s
        while rest:
            v_bit = rest & -rest
            rest ^= v_bit
            prev = tw[s ^ v_bit]
            if prev >= best:
                continue
            near = _component(nbr, v_bit, s)[1]
            cand = max(prev, (near & ~s).bit_count())
            if cand < best:
                best = cand
        tw[s] = best
    return tw[full]


def _component(nbr: Sequence[int], start: int, inside: int) -> tuple[int, int]:
    """Component of the vertex mask ``start`` in the subgraph induced on the
    mask ``inside``, grown by frontiers, with the union of its vertices'
    neighbour masks."""
    comp = front = start
    near = 0
    while front:
        while front:
            bit = front & -front
            near |= nbr[bit.bit_length() - 1]
            front ^= bit
        front = near & inside & ~comp
        comp |= front
    return comp, near


def _adjacency_masks(g: Graph) -> list[int]:
    """Neighbour mask of every vertex, built on demand: ``Graph`` does not
    store it, so graphs built and dropped in bulk never pay for it."""
    return [mask_of(g.adj[v]) for v in range(g.n)]


def _iter_bits(mask: int):
    while mask:
        bit = mask & -mask
        yield bit
        mask ^= bit


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bit.bit_length() - 1 for bit in _iter_bits(mask))
