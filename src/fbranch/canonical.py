"""Canonical labeling for small graphs, optionally with vertex colors.

Colour refinement runs first.  The initial key of a vertex is its color and
degree; each round keys a vertex by its rank and the sorted ranks of its
neighbors, and ranks the keys in sorted order, until the number of classes
stops growing.  Every round is an isomorphism invariant, and the stable
ranks order the vertices the way their initial keys do, so an ordering by
rank lists the sorted initial keys that the key records.

The canonical form is then the lexicographically smallest adjacency bit
string over the vertex orderings that list the stable ranks in sorted
order, found by branch-and-bound over partial orderings on adjacency
masks.  At each position the search skips a twin of a vertex already tried
there (same rank, same neighbors apart from each other): swapping the two
is an automorphism that fixes the placed prefix, so both give the same bit
strings.  Trees, paths, stars and complete (bipartite) graphs are then
fast.  Refinement does not split regular graphs such as cycles, so on
those the search stays exponential.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .graph import Graph, _adjacency_masks


def canonical_form(g: Graph, colors: Sequence[Hashable] | None = None) -> tuple:
    """Canonical key of ``g``; keys are equal iff the graphs are isomorphic
    (color-preservingly, when ``colors`` is given).

    ``colors[v]`` may be any sortable value.  The key holds the sorted
    initial keys, the sorted signatures of each refinement round and the
    best bit string as an int.
    """
    n = g.n
    adj = g.adj
    if colors is None:
        keys: list = [(len(nbrs),) for nbrs in adj]
    else:
        keys = [(colors[v], len(adj[v])) for v in range(n)]
    rounds = []
    distinct = sorted(set(keys))
    rank = list(map({k: i for i, k in enumerate(distinct)}.__getitem__, keys))
    classes = len(distinct)
    while classes < n:
        at = rank.__getitem__
        sigs = [(at(v), tuple(sorted(map(at, adj[v])))) for v in range(n)]
        distinct = sorted(set(sigs))
        if len(distinct) == classes:
            break
        rounds.append(tuple(sorted(sigs)))
        rank = list(map({s: i for i, s in enumerate(distinct)}.__getitem__, sigs))
        classes = len(distinct)

    nbr = _adjacency_masks(g)
    cell = [0] * classes
    for v in range(n):
        cell[rank[v]] |= 1 << v
    # The orderings searched list the ranks in sorted order, so position pos
    # takes a vertex of the cell slots[pos].
    slots = sorted(rank)
    total = n * (n - 1) // 2
    best = 1 << total  # above every bit string
    order: list[int] = []

    def extend(pos: int, placed: int, prefix: int) -> None:
        nonlocal best
        if pos == n:
            best = prefix
            return
        shift = total - pos * (pos + 1) // 2
        tried: list[tuple[int, int]] = []
        rest = cell[slots[pos]] & ~placed
        while rest:
            b = rest & -rest
            rest ^= b
            v = b.bit_length() - 1
            nb = nbr[v]
            if tried and any(not (nu ^ nb) & ~(bu | b) for bu, nu in tried):
                continue
            tried.append((b, nb))
            row = prefix
            for u in order:
                row = row << 1 | nb >> u & 1
            if row <= best >> shift:
                order.append(v)
                extend(pos + 1, placed | b, row)
                order.pop()

    extend(0, 0, 0)
    return (tuple(sorted(keys)), tuple(rounds), best)
