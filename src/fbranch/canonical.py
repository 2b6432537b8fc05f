"""Canonical labeling for small graphs, optionally with vertex colors.

The canonical form is the lexicographically smallest (color sequence,
adjacency bit string) over all vertex orderings, found by branch-and-bound
over partial orderings.  Vertex degree is folded into the color key: it is
an isomorphism invariant, so equality of forms is unchanged while the
search prunes much harder.  At each position the search skips a twin of a
vertex already tried there (same key, same neighbors apart from each
other): swapping the two is an automorphism that fixes the placed prefix,
so both give the same bit strings.  Stars and complete (bipartite) graphs
are then fast, but the search stays exponential when large color classes
hold no twins, as in the trees of ``atlas.tree_classes`` past n = 10.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .graph import Graph


def canonical_form(g: Graph, colors: Sequence[Hashable] | None = None) -> tuple:
    """Canonical key of ``g``; keys are equal iff the graphs are isomorphic
    (color-preservingly, when ``colors`` is given).

    ``colors[v]`` may be any sortable value.
    """
    adj = g.adj
    if colors is None:
        keys: list = [(len(nbrs),) for nbrs in adj]
    else:
        keys = [(colors[v], len(adj[v])) for v in range(g.n)]
    # Any optimal ordering lists the keys in sorted order (the key sequence
    # dominates the comparison), so position pos takes a vertex keyed slots[pos].
    slots = sorted(keys)
    order: list[int] = []
    bits: list[int] = []
    best = [2] * (g.n * (g.n - 1) // 2)  # above every bit string

    def extend(pos: int) -> None:
        nonlocal best
        if pos == g.n:
            best = bits[:]
            return
        tried: list[int] = []
        for v in range(g.n):
            if keys[v] != slots[pos] or v in order or any(
                    adj[u] - {v} == adj[v] - {u} for u in tried):
                continue
            tried.append(v)
            bits.extend([int(u in adj[v]) for u in order])
            if bits <= best[:len(bits)]:
                order.append(v)
                extend(pos + 1)
                order.pop()
            del bits[len(bits) - pos:]

    extend(0)
    return (tuple(slots), tuple(best))
