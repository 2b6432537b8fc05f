"""Canonical labeling for small graphs, optionally with vertex colors.

The canonical form is the lexicographically smallest (color sequence,
adjacency bit string) over all vertex orderings, found by branch-and-bound
over partial orderings.  Vertex degree is folded into the color key: it is
an isomorphism invariant, so equality of forms is unchanged while the
search prunes much harder.  Exact for any input; intended for graphs of
around a dozen vertices, which is all the rest of the package feeds it.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from .graph import Graph


def canonical_form(g: Graph, colors: Sequence[Hashable] | None = None) -> tuple:
    """Canonical key of ``g``; keys are equal iff the graphs are isomorphic
    (color-preservingly, when ``colors`` is given).

    ``colors[v]`` may be any sortable value.
    """
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

