"""The six obstruction-pattern families on ordered bipartite graphs.

A pattern on q partner pairs (a_1, b_1), ..., (a_q, b_q) is one of:

    EMPTY        no edges
    MATCH        a_i b_i for every i
    CHAIN        a_i b_j for i <= j
    CHAINSTRICT  a_i b_j for i < j
    ANTIMATCH    a_i b_j for i != j
    COMPLETE     every a_i b_j

Each family is closed under restricting to any subset of pairs (with the
inherited order), and contains exactly one member per size.  For q = 1 the
patterns coincide in two groups: a single edge (MATCH = CHAIN = COMPLETE)
and an edgeless pair (EMPTY = CHAINSTRICT = ANTIMATCH); the classifier
reports every matching tag.  For q >= 2 at most one family matches.

EMPTY, MATCH, ANTIMATCH and COMPLETE look the same under every pair order.
A chain or strict chain has distinct a-side degrees (q - k, or q - 1 - k,
at position k), and those degrees fix its order.  So a graph matches a
family under some pair order exactly when it matches with its pairs placed
by decreasing a-side degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Sequence

from .errors import MalformedLineError, int_pairs, read_document


class Family(Enum):
    EMPTY = "empty"
    MATCH = "match"
    CHAIN = "chain"
    CHAINSTRICT = "chainstrict"
    ANTIMATCH = "antimatch"
    COMPLETE = "complete"

    # members are singletons compared by identity, so the identity hash is
    # safe, and it is C-level where Enum's own is a Python call per lookup
    __hash__ = object.__hash__


FAMILY_ORDER = tuple(Family)

PRIMAL_FAMILIES = frozenset({Family.MATCH, Family.CHAIN, Family.ANTIMATCH})


# (diagonal, above, below): whether a family's pattern joins a_i to b_j
# for i == j, for i < j and for i > j
_CELLS = {
    Family.EMPTY: (False, False, False),
    Family.MATCH: (True, False, False),
    Family.CHAIN: (True, True, False),
    Family.CHAINSTRICT: (False, True, False),
    Family.ANTIMATCH: (False, True, True),
    Family.COMPLETE: (True, True, True),
}


def pattern_has_edge(family: Family, i: int, j: int) -> bool:
    """Whether the pattern of ``family`` joins a_i to b_j (0-based)."""
    diagonal, above, below = _CELLS[family]
    return diagonal if i == j else above if i < j else below


def _pattern_size(family: Family, q: int) -> int:
    """Edge count of the family's size-q pattern."""
    diagonal, above, below = _CELLS[family]
    return diagonal * q + (above + below) * (q * (q - 1) // 2)


def pattern_edges(family: Family, q: int) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i in range(q) for j in range(q)
                     if pattern_has_edge(family, i, j))


@dataclass(frozen=True)
class OrderedBipartiteGraph:
    """Bipartite graph on q ordered pairs (a_i, b_i).  ``edges`` holds
    (i, j) index pairs meaning a_i is adjacent to b_j."""

    q: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("pair count must be nonnegative")
        for i, j in self.edges:
            if not (0 <= i < self.q and 0 <= j < self.q):
                raise ValueError(f"edge index ({i}, {j}) out of range")

    def induced(self, pairs: Sequence[int]) -> "OrderedBipartiteGraph":
        """Restriction to the given pair indices, in the given order."""
        pos = {p: k for k, p in enumerate(pairs)}
        new_edges = frozenset((pos[i], pos[j]) for i, j in self.edges
                              if i in pos and j in pos)
        return OrderedBipartiteGraph(len(pairs), new_edges)


def pattern_graph(family: Family, q: int) -> OrderedBipartiteGraph:
    return OrderedBipartiteGraph(q, pattern_edges(family, q))


def parse_ordered_bipartite(text: str) -> OrderedBipartiteGraph:
    """Parse the text format: first line ``q``, then edge lines ``i j``
    with 1-based pair indices."""
    (q,), body = read_document(text, "<q>")
    if q < 1:
        raise MalformedLineError(f"pair count must be at least 1, got {q}")
    pairs = int_pairs(body, "<i> <j>")
    for ln, (i, j) in zip(body, pairs):
        if not (1 <= i <= q and 1 <= j <= q):
            raise MalformedLineError(f"pair index out of range in {ln!r}")
    return OrderedBipartiteGraph(q, frozenset((i - 1, j - 1) for i, j in pairs))


def matches_pattern_exactly(h: OrderedBipartiteGraph, family: Family) -> bool:
    """Whether h equals the family's pattern under the given pair order:
    as many edges as the pattern, each of them a pattern edge (linear in
    the edges, never building the q * q cells)."""
    return (len(h.edges) == _pattern_size(family, h.q)
            and all(pattern_has_edge(family, i, j) for i, j in h.edges))


def classify_si(h: OrderedBipartiteGraph) -> tuple[Family, ...]:
    """All families, in ``FAMILY_ORDER``, whose size-q pattern equals h
    under some reordering of the pairs (the partner pairing itself is kept
    fixed): one exact comparison per family after placing the pairs by
    decreasing a-side degree, which is that reordering when there is one
    (see the module docstring).  The pairs are placed only when the edge
    count is a chain's, so a large q with few edges allocates nothing per
    pair.  Returns () when nothing matches.
    """
    q = h.q
    if q < 1:
        raise ValueError("classification needs at least one pair")
    if len(h.edges) in (q * (q + 1) // 2, q * (q - 1) // 2):
        deg_a = [0] * q
        for i, _ in h.edges:
            deg_a[i] += 1
        h = h.induced(sorted(range(q), key=deg_a.__getitem__, reverse=True))
    return tuple(f for f in FAMILY_ORDER if matches_pattern_exactly(h, f))


def pair_color(h: OrderedBipartiteGraph, i: int, j: int) -> int:
    """Four-way color of a pair of pairs (i < j): 1 if both cross edges
    a_i b_j and a_j b_i are present, 2 if only a_i b_j, 3 if only a_j b_i,
    4 if neither."""
    if not i < j:
        raise ValueError("requires i < j")
    ij = (i, j) in h.edges
    ji = (j, i) in h.edges
    if ij and ji:
        return 1
    if ij:
        return 2
    if ji:
        return 3
    return 4


@dataclass(frozen=True)
class HomogeneousSubset:
    pairs: tuple[int, ...]
    family: Family


def find_homogeneous_subset(h: OrderedBipartiteGraph, n: int) -> HomogeneousSubset | None:
    """A size-n subset of pairs inducing one of the six patterns, or None
    when no such subset exists (the search is exhaustive).

    Candidate subsets are screened with the pair-color construction first:
    an inducible subset must be uniformly matched/unmatched with colors all
    1, all 4, or within {2, 3}.  The family is the first, in
    ``FAMILY_ORDER``, that ``classify_si`` finds on the subset: the pairs
    induce it under some reordering, not necessarily in ascending order.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return HomogeneousSubset((), Family.EMPTY)
    if n > h.q:
        return None
    matched = [(i, i) in h.edges for i in range(h.q)]
    for subset in combinations(range(h.q), n):
        if n >= 2:
            if len({matched[p] for p in subset}) != 1:
                continue
            colors = {pair_color(h, i, j) for i, j in combinations(subset, 2)}
            if not (colors <= {1} or colors <= {4} or colors <= {2, 3}):
                continue
        tags = classify_si(h.induced(subset))
        if tags:
            return HomogeneousSubset(subset, tags[0])
    return None

