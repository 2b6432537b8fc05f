"""Exhaustive catalogues of small graphs and trees up to isomorphism.

Classes on n vertices are produced by extending the classes on n - 1
vertices with one new vertex and deduplicating canonical forms; every graph
contains a vertex whose removal leaves a representative already catalogued
(a non-cut vertex for connected classes, a leaf for trees), so the
augmentation is complete.  Results are cached per session.

Twin swaps are skipped: if vertices u < v of a base have the same
neighbours apart from each other, swapping them is an automorphism of the
base, so a mask holding v but not u gives the class of the mask with v
swapped for u.  That mask is smaller and in the base's ascending mask
list, so it was met earlier: a skipped mask is never the first of its
class, and the representatives and their order stay those of the full
augmentation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable

from .canonical import canonical_form
from .graph import Graph


@lru_cache(maxsize=None)
def all_graph_classes(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes of simple graphs on exactly n vertices."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return (Graph(n),)
    return _extend(n, all_graph_classes(n - 1), lambda base: range(1 << (n - 1)))


@lru_cache(maxsize=None)
def connected_graph_classes(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes of connected graphs on exactly n vertices."""
    if n <= 1:
        return all_graph_classes(n)
    # every connected graph has a non-cut vertex, so extending connected
    # classes by a vertex with a nonempty neighborhood reaches everything
    return _extend(n, connected_graph_classes(n - 1), lambda base: range(1, 1 << (n - 1)))


def _extend(n: int, bases: tuple[Graph, ...],
            masks: Callable[[Graph], Iterable[int]]) -> tuple[Graph, ...]:
    """The classes on n vertices reached by joining a new last vertex to
    each base graph with every neighborhood mask in ``masks(base)`` (an
    ascending list closed under twin swaps) that holds no twin v without
    its twin u < v."""
    seen: dict[tuple, Graph] = {}
    for base in bases:
        base_edges = base.edges()
        adj = base.adj
        # (both bits, larger bit) of each twin pair u < v
        twins = [((1 << u) | (1 << v), 1 << v) for u, v in combinations(range(n - 1), 2)
                 if adj[u] - {v} == adj[v] - {u}]
        for mask in masks(base):
            if any(mask & pair == larger for pair, larger in twins):
                continue
            edges = list(base_edges)
            for v in range(n - 1):
                if mask >> v & 1:
                    edges.append((v, n - 1))
            g = Graph(n, edges)
            seen.setdefault(canonical_form(g), g)
    return tuple(seen[k] for k in sorted(seen))


@lru_cache(maxsize=None)
def tree_classes(n: int, max_degree: int | None = None) -> tuple[Graph, ...]:
    """All isomorphism classes of trees on n vertices, optionally bounded
    degree (``max_degree=3`` gives the subcubic trees)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (Graph(1),)
    # every tree has a leaf: join the new vertex to one vertex with room
    return _extend(n, tree_classes(n - 1, max_degree), lambda base: [
        1 << v for v in range(n - 1) if max_degree is None or base.degree(v) < max_degree])
