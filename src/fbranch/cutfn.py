"""Cut-function evaluation: the largest pattern of each family induced
across a cut, plus the twin-class count.

One engine serves all six families.  A cut is a ``BipartiteCutGraph``: two
side bitmasks plus the graph's own neighbour masks, of which the searches
read only the part across the cut.  Three branch-and-bound searches over
those masks (induced matching, balanced biclique, chain) give MATCH,
COMPLETE and CHAIN; the other three families are the same searches on the
bipartite complement, read in reverse pattern order (EMPTY = COMPLETE,
ANTIMATCH = MATCH, CHAINSTRICT = CHAIN of the complement).  Every search
extends in ascending vertex order, so the returned witness is reproducible.

A search may be capped: it stops as soon as its best pattern has ``cap``
pairs, by raising that pattern, and ``family_value`` alone catches it.  A
capped result below the cap is exact, and its witness is the uncapped one
(the search never stopped, so it took the same path); a result at the cap
is only a lower bound, and its witness is the pattern that reached the
cap.  That pattern is a certificate beyond its own cut: it
depends only on the edges between its 2q vertices, so it lies across every
cut that puts its x-vertices on one side and its y-vertices on the other.
The solvers ask only whether a cut is below their incumbent width, so they
pass the incumbent as the cap of ``CutEvaluator.value_of_mask``, the one
cut-value query, and the subset DP spreads each pattern it gets back over
the cuts it crosses.  The evaluator's cache marks which entries are exact.
A query runs no Python-level hash and builds no list: the selector keeps
its families in ``FAMILY_ORDER`` once, ``Family`` hashes by identity, and
every cut graph carries the complemented neighbour masks, which the
evaluator builds once per graph.

The twin-class count needs no search.  ``ntc_table`` fills the value of
every mask at once, bit-sliced (each mask is one bit of 2^n-bit integers),
for the subset-DP solver; ``_ntc_cut_value`` evaluates one cut for
``CutEvaluator`` and is the table's reference.

``generic_pattern_value`` is the independent oracle: a plain exhaustive
search over ordered partner selections that shares nothing with the engine
(no complement tricks, no incumbent pruning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import InternalInvariantError, SizeLimitError, comma_list
from .families import FAMILY_ORDER, PRIMAL_FAMILIES, Family, pattern_has_edge
from .graph import BipartiteCutGraph, Graph, _adjacency_masks, _iter_bits


@dataclass(frozen=True)
class FamilySelector:
    """Which pattern families define the cut function; ``ntc`` switches to
    the twin-class count instead (mutually exclusive with families)."""

    families: frozenset[Family] = frozenset()
    ntc: bool = False
    # the families in FAMILY_ORDER, the order in which queries search them
    ordered: tuple[Family, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ntc and self.families:
            raise ValueError("ntc mode excludes pattern families")
        if not self.ntc and not self.families:
            raise ValueError("selector needs at least one family (or ntc)")
        object.__setattr__(self, "ordered",
                           tuple(f for f in FAMILY_ORDER if f in self.families))

    @staticmethod
    def of(*families: Family) -> "FamilySelector":
        return FamilySelector(families=frozenset(families))

    @staticmethod
    def parse(text: str) -> "FamilySelector":
        text = text.strip().lower()
        if text == "ntc":
            return FamilySelector(ntc=True)
        if text == "all":
            return FamilySelector(families=frozenset(FAMILY_ORDER))
        if text == "primal":
            return FamilySelector(families=PRIMAL_FAMILIES)
        return comma_list(text, "family list",
                          lambda names: FamilySelector(families=frozenset(map(Family, names))))

    def is_primal_union(self) -> bool:
        return not self.ntc and self.families <= PRIMAL_FAMILIES

    def name(self) -> str:
        if self.ntc:
            return "ntc"
        return ",".join(f.value for f in self.ordered)


PRIMAL = FamilySelector(families=PRIMAL_FAMILIES)
ALL_FAMILIES = FamilySelector(families=frozenset(FAMILY_ORDER))


@dataclass(frozen=True)
class PatternWitness:
    """Partner pairs (x-side vertex, y-side vertex) realizing the pattern
    across a cut, in pattern order."""

    family: Family | None
    value: int
    pairs: tuple[tuple[int, int], ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.value if self.family else None,
            "value": self.value,
            "pairs": [[x, y] for x, y in self.pairs],
        }


EMPTY_WITNESS = PatternWitness(None, 0)


# The three searches return the best partner pairs (x, y) in pattern order,
# or raise _Capped with them as soon as they have ``cap`` pairs; none of
# them catches it, ``family_value`` does.  ``size`` is the length of
# ``best`` and ``depth`` that of the partial pattern, both kept as ints.


class _Capped(Exception):
    """The pairs of the pattern that reached the cap, in ``args[0]``."""


def _matching(b: BipartiteCutGraph, cap: float) -> tuple[tuple[int, int], ...]:
    """Largest induced matching: x_i adjacent to y_j exactly when i == j.
    A chosen pair (x, y) drops y's neighbours from the x candidates and x's
    from the y candidates; x extends in ascending order, so every matching
    is met once.  An x adjacent to every y candidate ends any matching it
    joins one pair deeper: it is skipped once that cannot beat the best,
    and otherwise only its first y is tried, since a later y could only
    tie (on a complete cut this keeps the search linear)."""
    nbr = b.nbr
    best: tuple[tuple[int, int], ...] = ()
    size = 0
    pairs: list[tuple[int, int]] = []

    def extend(cand_x: int, cand_y: int, depth: int):
        nonlocal best, size
        if depth > size:
            best, size = tuple(pairs), depth
            if depth >= cap:
                raise _Capped(best)
        count_y = cand_y.bit_count()
        while cand_x and count_y > size - depth and cand_x.bit_count() > size - depth:
            bit = cand_x & -cand_x
            cand_x ^= bit
            x = bit.bit_length() - 1
            rest_y = cand_y & ~nbr[x]
            if rest_y:
                ys = cand_y ^ rest_y
            elif depth < size:
                continue
            else:
                ys = cand_y & -cand_y
            while ys:
                y_bit = ys & -ys
                ys ^= y_bit
                y = y_bit.bit_length() - 1
                pairs.append((x, y))
                extend(cand_x & ~nbr[y], rest_y, depth + 1)
                pairs.pop()

    extend(b.x_mask, b.y_mask, 0)
    return best


def _biclique(b: BipartiteCutGraph, cap: float) -> tuple[tuple[int, int], ...]:
    """Largest balanced complete pattern: max over X-subsets A of
    min(|A|, |common neighbourhood of A|), A grown in ascending order."""
    nbr = b.nbr
    best: tuple[tuple[int, int], ...] = ()
    size = 0
    chosen: list[int] = []

    def extend(cand_x: int, common: int, depth: int):
        nonlocal best, size
        count = common.bit_count()
        value = depth if depth < count else count
        if value > size:
            ys = (bit.bit_length() - 1 for bit in _iter_bits(common))
            best, size = tuple(zip(chosen, ys)), value
            if value >= cap:
                raise _Capped(best)
        while cand_x and count > size and depth + cand_x.bit_count() > size:
            bit = cand_x & -cand_x
            cand_x ^= bit
            x = bit.bit_length() - 1
            nxt = common & nbr[x]
            if nxt.bit_count() > size:
                chosen.append(x)
                extend(cand_x, nxt, depth + 1)
                chosen.pop()

    extend(b.x_mask, b.y_mask, 0)
    return best


def _chain(b: BipartiteCutGraph, cap: float) -> tuple[tuple[int, int], ...]:
    """Longest chain: x_i adjacent to y_j exactly when i <= j, built pair by
    pair in pattern order.  A new x must miss every chosen y; a new y must
    hit every chosen x (its own partner included).  The bound is depth plus
    the smaller candidate side."""
    nbr = b.nbr
    best: tuple[tuple[int, int], ...] = ()
    size = 0
    pairs: list[tuple[int, int]] = []

    def extend(cand_x: int, cand_y: int, depth: int):
        nonlocal best, size
        if depth > size:
            best, size = tuple(pairs), depth
            if depth >= cap:
                raise _Capped(best)
        count_x, count_y = cand_x.bit_count(), cand_y.bit_count()
        room = depth + (count_x if count_x < count_y else count_y)
        xs = cand_x
        while xs and room > size:
            bit = xs & -xs
            xs ^= bit
            x = bit.bit_length() - 1
            ys = nbr[x] & cand_y
            while ys and room > size:
                y_bit = ys & -ys
                ys ^= y_bit
                y = y_bit.bit_length() - 1
                pairs.append((x, y))
                extend((cand_x ^ bit) & ~nbr[y], (cand_y ^ y_bit) & nbr[x], depth + 1)
                pairs.pop()

    extend(b.x_mask, b.y_mask, 0)
    return best


# family -> (search, run on the bipartite complement?); a complemented
# search's pairs are read in reverse order, which turns a chain of the
# complement into a strict chain and leaves the other patterns as they are
_SEARCHES = {
    Family.EMPTY: (_biclique, True),
    Family.MATCH: (_matching, False),
    Family.CHAIN: (_chain, False),
    Family.CHAINSTRICT: (_chain, True),
    Family.ANTIMATCH: (_matching, True),
    Family.COMPLETE: (_biclique, False),
}


def family_value(b: BipartiteCutGraph, family: Family, cap: float = math.inf
                 ) -> tuple[int, PatternWitness]:
    """Largest pattern of ``family`` across the cut, with its witness; a
    value at or above ``cap`` is only a lower bound (see the module
    docstring).  The one place that catches a search's ``_Capped``."""
    search, complemented = _SEARCHES[family]
    try:
        pairs = search(b.complement() if complemented else b, cap)
    except _Capped as capped:
        pairs = capped.args[0]
    if complemented:
        pairs = pairs[::-1]
    if not pairs:
        return 0, EMPTY_WITNESS
    return len(pairs), PatternWitness(family, len(pairs), pairs)


def _ntc_cut_value(adj: list[int], mask: int, rest: int) -> int:
    """The twin-class cut value of (mask, rest): the larger of the two
    sides' class counts, a side's vertices being classed by their
    neighbourhood on the other side; one pass over the vertices.  The
    reference for ``ntc_table``."""
    xs: set[int] = set()
    ys: set[int] = set()
    for v, nbrs in enumerate(adj):
        if mask >> v & 1:
            xs.add(nbrs & rest)
        else:
            ys.add(nbrs & mask)
    return max(len(xs), len(ys))


_BIT = [bytes(x >> b & 1 for x in range(256)) for b in range(8)]  # byte -> its bit b
_NIBBLE_MAX = bytes(max(x & 15, x >> 4) for x in range(256))


def ntc_table(g: Graph) -> bytes:
    """The twin-class cut value of every mask, indexed by the mask.

    Bit-sliced: mask m is bit m of 2^n-bit integers, so one integer
    operation acts on every mask at once.  ``holds[i]`` has bit m set when
    m holds vertex i.  Two vertices u, v of X are twins across the cut
    exactly when X holds T = (adj[u] ^ adj[v]) | u | v, so X's class count
    is the number of its vertices with no earlier twin in X.  Those
    indicators are summed into four binary digits (a side has at most
    min(|X|, 2^(n - |X|)) classes, at most 15 for n <= 19).  The digits are
    spread to one byte per mask, each byte takes the complement's count
    (the byte string reversed) as its high half, and the larger half is
    the value.
    """
    adj = _adjacency_masks(g)
    size = 1 << g.n
    holds = []
    for i in range(g.n):
        block, span = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while span < size:  # repeat the block of 2^i masks without i, 2^i with
            block |= block << span
            span <<= 1
        holds.append(block)
    digits = [0] * 4
    for u, hu in enumerate(holds):
        twinned = 0
        for v in range(u):
            both = hu & holds[v]
            rest = (adj[u] ^ adj[v]) & ~(1 << u | 1 << v)
            while rest and both:
                both &= holds[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
            twinned |= both
        carry = hu & ~twinned
        for k in range(4):
            digits[k], carry = digits[k] ^ carry, digits[k] & carry
        if carry:
            raise InternalInvariantError("a side's class count overflows four binary digits")
    # an n < 3 table spreads one byte of masks, the ones past 2^n counting 0
    nbytes = (size + 7) >> 3
    spread = bytearray(nbytes << 3)
    counts = 0
    for k, digit in enumerate(digits):
        raw = digit.to_bytes(nbytes, "little")
        for b, bit in enumerate(_BIT):
            spread[b::8] = raw.translate(bit)
        counts |= int.from_bytes(spread, "little") << k
    rest_counts = int.from_bytes(counts.to_bytes(size, "little")[::-1], "little")
    return (counts | rest_counts << 4).to_bytes(size, "little").translate(_NIBBLE_MAX)


ORACLE_MAX_VERTICES = 24


def generic_pattern_value(b: BipartiteCutGraph, family: Family) -> int:
    """Ground-truth oracle: exhaustive depth-first search over ordered
    partner selections checking the family formula on every prefix."""
    if len(b.x_vertices) + len(b.y_vertices) > ORACLE_MAX_VERTICES:
        raise SizeLimitError(
            f"oracle limited to {ORACLE_MAX_VERTICES} cut-graph vertices, got "
            f"{len(b.x_vertices) + len(b.y_vertices)}")
    xs = b.x_vertices
    ys = b.y_vertices
    has = b.has_edge
    best = 0
    seq: list[tuple[int, int]] = []

    def consistent(x: int, y: int) -> bool:
        d = len(seq)
        if has(x, y) != pattern_has_edge(family, d, d):
            return False
        for t, (xt, yt) in enumerate(seq):
            if has(xt, y) != pattern_has_edge(family, t, d):
                return False
            if has(x, yt) != pattern_has_edge(family, d, t):
                return False
        return True

    def extend():
        nonlocal best
        best = max(best, len(seq))
        for x in xs:
            if any(x == px for px, _ in seq):
                continue
            for y in ys:
                if any(y == py for _, py in seq):
                    continue
                if consistent(x, y):
                    seq.append((x, y))
                    extend()
                    seq.pop()

    extend()
    return best


class CutEvaluator:
    """Memoizing cut evaluator for one graph.

    Pattern values are cached per family keyed by the smaller side mask of
    the cut (the cut function is symmetric), so selectors share the
    per-family work.  An entry is ``(value, witness)``: exact entries go in
    one dict, and the ``(lower bound, pattern at the cap)`` of a capped
    search in another, which a larger cap searches again.  Twin-class
    values are computed, not cached.
    The complemented neighbour masks are built once, here, and every cut
    graph of a miss carries them, so ``complement`` builds no list.
    """

    def __init__(self, g: Graph):
        self._full = (1 << g.n) - 1
        self._adj = _adjacency_masks(g)
        self._comp = [~m for m in self._adj]
        self._values: dict[Family, dict[int, tuple[int, PatternWitness]]] = {
            family: {} for family in FAMILY_ORDER}
        self._bounds: dict[Family, dict[int, tuple[int, PatternWitness]]] = {
            family: {} for family in FAMILY_ORDER}

    def family_value_of_mask(self, mask: int, family: Family, cap: float = math.inf
                             ) -> tuple[int, PatternWitness]:
        """The family's value across the cut with its witness when it is
        below ``cap``, otherwise a lower bound >= cap with the pattern that
        reached it."""
        rest = self._full ^ mask
        if rest < mask:
            mask, rest = rest, mask
        hit = self._values[family].get(mask)
        if hit is None:
            hit = self._bounds[family].get(mask)
            if hit is None or hit[0] < cap:
                hit = family_value(
                    BipartiteCutGraph(mask, rest, self._adj, self._comp), family, cap)
                (self._values if hit[0] < cap else self._bounds)[family][mask] = hit
        return hit

    def value_of_mask(self, mask: int, sel: FamilySelector, cap: float = math.inf
                      ) -> tuple[int, PatternWitness]:
        """f(mask) with the witness of its first largest family when it is
        below ``cap``; otherwise a value >= cap with the pattern of the
        first family that reaches the cap, which ends the query.  ntc values
        take no cap: they are always exact."""
        if sel.ntc:
            return _ntc_cut_value(self._adj, mask, self._full ^ mask), EMPTY_WITNESS
        best = (0, EMPTY_WITNESS)
        for family in sel.ordered:
            hit = self.family_value_of_mask(mask, family, cap)
            if hit[0] >= cap:
                return hit
            if hit[0] > best[0]:
                best = hit
        return best
