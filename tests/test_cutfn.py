import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from fbranch.atlas import all_graph_classes
from fbranch.cutfn import (
    ALL_FAMILIES,
    EMPTY_WITNESS,
    PRIMAL,
    CutEvaluator,
    FamilySelector,
    PatternWitness,
    _SEARCHES,
    _Capped as EngineCapped,
    _ntc_cut_value,
    family_value,
    generic_pattern_value,
    ntc_table,
)
from fbranch.decomp import decomposition_width, exact_branchwidth_dp, greedy_branchwidth
from fbranch.errors import SizeLimitError
from fbranch.families import (
    FAMILY_ORDER,
    Family,
    OrderedBipartiteGraph,
    classify_si,
    pattern_edges,
)
from fbranch.graph import (
    BipartiteCutGraph,
    Graph,
    _adjacency_masks,
    _iter_bits,
    cut_graph,
    mask_of,
    set_of,
)


def validate_witness(b: BipartiteCutGraph, witness: PatternWitness) -> bool:
    """Re-check a witness: its sides and induced pattern must agree.

    Witnesses produced through the memoizing evaluator may be oriented by
    the opposite side of the cut; every family is closed under swapping the
    sides (up to reordering the pairs), so both orientations are accepted.
    Swapping is swapping the two side masks: the neighbour masks serve both.
    The pattern checked is the ordered bipartite graph the pairs induce.
    """
    if not witness.pairs:
        return True
    xs = tuple(x for x, _ in witness.pairs)
    ys = tuple(y for _, y in witness.pairs)
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        return False
    xm, ym = mask_of(xs), mask_of(ys)
    if not any(xm & ~side_x == 0 and ym & ~side_y == 0
               for side_x, side_y in ((b.x_mask, b.y_mask), (b.y_mask, b.x_mask))):
        return False
    q = len(xs)
    edges = frozenset((i, j) for i in range(q) for j in range(q) if b.has_edge(xs[i], ys[j]))
    return witness.family in classify_si(OrderedBipartiteGraph(q, edges))


def ntc_value(g: Graph, side_x) -> int:
    """Number of classes of X under equal neighbourhood outside X.  This
    counts one side only; the cut function of the ``ntc`` selector
    (``CutEvaluator``) is the larger of this count for X and for V - X."""
    x = mask_of(side_x)
    rest = ((1 << g.n) - 1) ^ x
    adj = _adjacency_masks(g)
    return len({adj[v] & rest for v in range(g.n) if x >> v & 1})


# Reference searches: the same walks reading ``len`` of the best and the
# partial pattern at every node, and a ``family_value`` that complements the
# neighbour masks per call.  The engine must return the same values and the
# same pairs, in the same order.


class _Capped(Exception):
    pass


def _reference_matching(b, cap):
    nbr = b.nbr
    best = ()
    pairs = []

    def extend(cand_x, cand_y):
        nonlocal best
        depth = len(pairs)
        if depth > len(best):
            best = tuple(pairs)
            if depth >= cap:
                raise _Capped
        count_y = cand_y.bit_count()
        while cand_x and depth + min(cand_x.bit_count(), count_y) > len(best):
            bit = cand_x & -cand_x
            cand_x ^= bit
            x = bit.bit_length() - 1
            rest_y = cand_y & ~nbr[x]
            if rest_y:
                ys = cand_y ^ rest_y
            elif depth < len(best):
                continue
            else:
                ys = cand_y & -cand_y
            while ys:
                y_bit = ys & -ys
                ys ^= y_bit
                y = y_bit.bit_length() - 1
                pairs.append((x, y))
                extend(cand_x & ~nbr[y], rest_y)
                pairs.pop()

    try:
        extend(b.x_mask, b.y_mask)
    except _Capped:
        pass
    return best


def _reference_biclique(b, cap):
    nbr = b.nbr
    best = ()
    chosen = []

    def extend(cand_x, common):
        nonlocal best
        value = min(len(chosen), common.bit_count())
        if value > len(best):
            ys = [bit.bit_length() - 1 for bit in _iter_bits(common)]
            best = tuple(zip(chosen[:value], ys[:value]))
            if value >= cap:
                raise _Capped
        while (cand_x and common.bit_count() > len(best)
               and len(chosen) + cand_x.bit_count() > len(best)):
            bit = cand_x & -cand_x
            cand_x ^= bit
            x = bit.bit_length() - 1
            nxt = common & nbr[x]
            if nxt.bit_count() > len(best):
                chosen.append(x)
                extend(cand_x, nxt)
                chosen.pop()

    try:
        extend(b.x_mask, b.y_mask)
    except _Capped:
        pass
    return best


def _reference_chain(b, cap):
    nbr = b.nbr
    best = ()
    pairs = []

    def extend(cand_x, cand_y):
        nonlocal best
        depth = len(pairs)
        if depth > len(best):
            best = tuple(pairs)
            if depth >= cap:
                raise _Capped
        room = depth + min(cand_x.bit_count(), cand_y.bit_count())
        xs = cand_x
        while xs and room > len(best):
            bit = xs & -xs
            xs ^= bit
            x = bit.bit_length() - 1
            ys = nbr[x] & cand_y
            while ys and room > len(best):
                y_bit = ys & -ys
                ys ^= y_bit
                y = y_bit.bit_length() - 1
                pairs.append((x, y))
                extend((cand_x ^ bit) & ~nbr[y], (cand_y ^ y_bit) & nbr[x])
                pairs.pop()

    try:
        extend(b.x_mask, b.y_mask)
    except _Capped:
        pass
    return best


_REFERENCE_SEARCHES = {
    Family.EMPTY: (_reference_biclique, True),
    Family.MATCH: (_reference_matching, False),
    Family.CHAIN: (_reference_chain, False),
    Family.CHAINSTRICT: (_reference_chain, True),
    Family.ANTIMATCH: (_reference_matching, True),
    Family.COMPLETE: (_reference_biclique, False),
}


def reference_family_value(b, family, cap=math.inf):
    search, complemented = _REFERENCE_SEARCHES[family]
    if complemented:
        comp = BipartiteCutGraph(b.x_mask, b.y_mask, [~m for m in b.nbr], b.nbr)
        pairs = search(comp, cap)[::-1]
    else:
        pairs = search(b, cap)
    if not pairs:
        return 0, EMPTY_WITNESS
    return len(pairs), PatternWitness(family, pairs)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def pattern_cut(family, q):
    """The pattern itself realized as a cut graph: X = a-side 0..q-1,
    Y = b-side q..2q-1."""
    edges = [(i, q + j) for i, j in pattern_edges(family, q)]
    return cut_graph(Graph(2 * q, edges), range(q))


def test_mim_examples():
    assert family_value(cut_graph(Graph(2), {0}), Family.MATCH)[0] == 0
    b = cut_graph(cycle(6), {0, 1, 2})
    n, w = family_value(b, Family.MATCH)
    assert n == 2 and validate_witness(b, w)
    k33 = cut_graph(complete_bipartite(3, 3), {0, 1, 2})
    assert family_value(k33, Family.MATCH)[0] == 1


def test_antimatch_examples():
    assert family_value(pattern_cut(Family.COMPLETE, 2), Family.ANTIMATCH)[0] == 0
    # one non-adjacent cross pair and nothing larger
    b = cut_graph(Graph(4, [(0, 2), (0, 3), (1, 2)]), {0, 1})
    n, w = family_value(b, Family.ANTIMATCH)
    assert n == 1 and validate_witness(b, w)
    b3 = pattern_cut(Family.ANTIMATCH, 3)
    assert family_value(b3, Family.ANTIMATCH)[0] == 3


class _CountingList(list):
    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_matching_search_on_a_complete_cut_is_linear():
    # every pair of a complete cut ends the matching: the first x tries
    # only its first y, and no later x can do better, so the search reads
    # about one neighbour mask per x, not one per y (2,000 pairs here)
    a, b = 10, 200
    x_mask, y_mask = (1 << a) - 1, ((1 << b) - 1) << a
    nbr = _CountingList([y_mask] * a + [x_mask] * b)
    b = BipartiteCutGraph(x_mask, y_mask, nbr, [~m for m in nbr])
    value, witness = family_value(b, Family.MATCH)
    assert value == 1 and witness.pairs == ((0, a),)
    assert nbr.reads <= a + 2


def test_chain_examples():
    b = cut_graph(Graph(2, [(0, 1)]), {0})
    assert family_value(b, Family.CHAIN)[0] == 1
    assert family_value(pattern_cut(Family.CHAIN, 3), Family.CHAIN)[0] == 3
    # frozen via generic_pattern_value: a complete crossing lacks the
    # non-edge the 2-chain needs
    k22 = pattern_cut(Family.COMPLETE, 2)
    assert generic_pattern_value(k22, Family.CHAIN) == 1
    assert family_value(k22, Family.CHAIN)[0] == 1


def test_strictchain_examples():
    b = cut_graph(Graph(4), {0, 1})
    assert family_value(b, Family.CHAINSTRICT)[0] == 1
    assert family_value(pattern_cut(Family.CHAINSTRICT, 3), Family.CHAINSTRICT)[0] == 3
    for q in range(2, 5):
        assert family_value(pattern_cut(Family.CHAIN, q), Family.CHAINSTRICT)[0] >= q - 1


def test_complete_examples():
    assert family_value(cut_graph(complete_bipartite(3, 3), {0, 1, 2}), Family.COMPLETE)[0] == 3
    assert family_value(cut_graph(Graph(2, [(0, 1)]), {0}), Family.COMPLETE)[0] == 1
    m2 = pattern_cut(Family.MATCH, 2)
    assert generic_pattern_value(m2, Family.COMPLETE) == 1
    assert family_value(m2, Family.COMPLETE)[0] == 1


def test_empty_examples():
    assert family_value(cut_graph(Graph(4), {0, 1}), Family.EMPTY)[0] == 2
    assert family_value(pattern_cut(Family.COMPLETE, 3), Family.EMPTY)[0] == 0
    m2 = pattern_cut(Family.MATCH, 2)
    assert generic_pattern_value(m2, Family.EMPTY) == 1
    assert family_value(m2, Family.EMPTY)[0] == 1


def test_each_pattern_is_its_own_witness():
    for family in FAMILY_ORDER:
        for q in range(1, 5):
            b = pattern_cut(family, q)
            n, w = family_value(b, family)
            assert n >= q
            assert validate_witness(b, w)


def test_family_cut_value_examples():
    g = cycle(6)
    n, w = CutEvaluator(g).value_of_mask(mask_of({0, 1, 2}), FamilySelector.of(Family.MATCH))
    assert n == 2 and validate_witness(cut_graph(g, {0, 1, 2}), w)

    edgeless = Graph(6)
    n, _ = CutEvaluator(edgeless).value_of_mask(mask_of({0, 1, 2}), ALL_FAMILIES)
    assert n == 3  # EMPTY achieves it

    p2 = Graph(2, [(0, 1)])
    n, _ = CutEvaluator(p2).value_of_mask(1, FamilySelector.of(Family.MATCH, Family.CHAIN))
    assert n == 1


def test_family_cut_value_empty_side_is_zero():
    g = cycle(5)
    for sel in (ALL_FAMILIES, PRIMAL):
        assert CutEvaluator(g).value_of_mask(0, sel)[0] == 0
        assert CutEvaluator(g).value_of_mask(0b11111, sel)[0] == 0


def test_family_cut_value_symmetry_and_monotonicity():
    rng = random.Random(31)
    singletons = [FamilySelector.of(f) for f in FAMILY_ORDER]
    for _ in range(25):
        n = rng.randint(2, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        xs = frozenset(v for v in range(n) if rng.random() < 0.5)
        ys = frozenset(range(n)) - xs
        whole = CutEvaluator(g).value_of_mask(mask_of(xs), ALL_FAMILIES)[0]
        assert whole == CutEvaluator(g).value_of_mask(mask_of(ys), ALL_FAMILIES)[0]
        for sel in singletons:
            assert CutEvaluator(g).value_of_mask(mask_of(xs), sel)[0] <= whole


def test_chain_strict_within_one():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        k = rng.randint(1, n - 1)
        xs = frozenset(rng.sample(range(n), k))
        b = cut_graph(g, xs)
        c = family_value(b, Family.CHAIN)[0]
        s = family_value(b, Family.CHAINSTRICT)[0]
        assert abs(c - s) <= 1


def test_duality_laws():
    rng = random.Random(41)
    for _ in range(40):
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        edges = [(x, nx + y) for x in range(nx) for y in range(ny) if rng.random() < 0.5]
        b = cut_graph(Graph(nx + ny, edges), range(nx))
        comp = b.complement()
        assert family_value(b, Family.EMPTY)[0] == family_value(comp, Family.COMPLETE)[0]
        assert family_value(b, Family.ANTIMATCH)[0] == family_value(comp, Family.MATCH)[0]
        # a chain of the complement, read in reverse, is a strict chain of b
        n, w = family_value(comp, Family.CHAIN)
        assert family_value(b, Family.CHAINSTRICT)[0] == n
        assert validate_witness(b, PatternWitness(Family.CHAINSTRICT, w.pairs[::-1]))


def test_ntc_examples():
    g = complete_bipartite(3, 3)
    assert ntc_value(g, {0}) == 1
    assert ntc_value(g, {0, 1}) == 1  # twins
    assert ntc_value(g, {0, 1, 2}) == 1
    p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert ntc_value(p4, {1, 2}) == 2
    assert ntc_value(p4, set()) == 0


def test_ntc_dominates_primal_value():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        for k in range(n + 1):
            xs = frozenset(rng.sample(range(n), k))
            assert ntc_value(g, xs) >= CutEvaluator(g).value_of_mask(mask_of(xs), PRIMAL)[0]


def test_ntc_table_matches_per_mask_values():
    ntc = FamilySelector.parse("ntc")
    rng = random.Random(53)
    graphs = [g for n in range(7) for g in all_graph_classes(n)]
    for n in (0, 1, 2, 3, 7, 8):  # n < 3 pads below one byte of masks
        graphs.append(Graph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < 0.5]))
    for g in graphs:
        ev = CutEvaluator(g)
        table = ntc_table(g)
        full = (1 << g.n) - 1
        assert len(table) == full + 1, g
        for m in range(full + 1):
            xs = set_of(m)
            two_sided = max(ntc_value(g, xs), ntc_value(g, set(range(g.n)) - xs))
            assert table[m] == ev.value_of_mask(m, ntc)[0] == two_sided, (g, m)
    # the solver's sizes, and X = {0..10} with pairwise distinct
    # neighbourhoods among the other four: 11 classes set the top digit
    big = [Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
           for n in (14, 15)]
    big.append(Graph(15, [(x, 11 + i) for x in range(11) for i in range(4) if (x + 1) >> i & 1]))
    for g in big:
        adj = _adjacency_masks(g)
        full = (1 << g.n) - 1
        assert ntc_table(g) == bytes(_ntc_cut_value(adj, m, full ^ m) for m in range(full + 1))
    assert ntc_table(big[-1])[(1 << 11) - 1] == 11


def test_ntc_table_overflow_raises_under_optimize():
    # X = {0..15} has pairwise distinct neighbourhoods among 16..19, so 16
    # classes: one more than four binary digits hold.  The check must raise
    # even where ``python -O`` strips asserts (the cut would read 5)
    code = textwrap.dedent("""
        from fbranch.cutfn import ntc_table
        from fbranch.errors import InternalInvariantError
        from fbranch.graph import Graph
        g = Graph(21, [(i, 16 + b) for i in range(16) for b in range(4) if i >> b & 1])
        try:
            ntc_table(g)
        except InternalInvariantError as e:
            print(e)
        else:
            raise SystemExit("no error")
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "four binary digits" in done.stdout


def test_generic_oracle_trivial_cases():
    assert generic_pattern_value(pattern_cut(Family.CHAIN, 3), Family.CHAIN) == 3
    assert generic_pattern_value(cut_graph(Graph(2), {0}), Family.MATCH) == 0
    with pytest.raises(SizeLimitError):
        generic_pattern_value(cut_graph(Graph(45), range(20)), Family.MATCH)


def test_optimized_evaluators_match_oracle_small():
    # the full n <= 5 sweep lives in the acceptance suite; spot-check here
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(2, 5)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        k = rng.randint(0, n)
        xs = frozenset(rng.sample(range(n), k))
        b = cut_graph(g, xs)
        for family in FAMILY_ORDER:
            assert family_value(b, family)[0] == generic_pattern_value(b, family)


def test_selector_parsing():
    assert FamilySelector.parse("match,chain").families == {Family.MATCH, Family.CHAIN}
    assert FamilySelector.parse(" match , chain ") == FamilySelector.parse("match,chain")
    assert FamilySelector.parse("primal") == PRIMAL
    assert FamilySelector.parse("all") == ALL_FAMILIES
    assert FamilySelector.parse("ntc").ntc
    assert FamilySelector.parse("primal").is_primal_union()
    assert not FamilySelector.parse("all").is_primal_union()
    assert FamilySelector.parse("antimatch").name() == "antimatch"
    with pytest.raises(ValueError):
        FamilySelector.parse("bogus")
    with pytest.raises(ValueError):
        FamilySelector(families=frozenset())


def test_cut_evaluator_caches_and_matches_direct():
    g = cycle(6)
    ev = CutEvaluator(g)
    for mask in range(1 << 6):
        b = cut_graph(g, [v for v in range(6) if mask >> v & 1])
        direct = max(family_value(b, f)[0] for f in PRIMAL.families)
        assert ev.value_of_mask(mask, PRIMAL)[0] == direct
    # X = {0,1,2} on C6: outside neighborhoods {5}, {}, {3} are all distinct
    assert ev.value_of_mask(mask_of({0, 1, 2}), FamilySelector.parse("ntc"))[0] == 3


def test_family_cut_value_witnesses_revalidate():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 6)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, edges)
        xs = frozenset(v for v in range(n) if rng.random() < 0.5)
        b = cut_graph(g, xs)
        for sel in (ALL_FAMILIES, PRIMAL):
            value, witness = CutEvaluator(g).value_of_mask(mask_of(xs), sel)
            assert validate_witness(b, witness)
            assert len(witness.pairs) == value


def test_evaluator_witness_validates_in_either_orientation():
    # the evaluator keys a cut by its smaller side mask, so half of all masks
    # get a witness oriented from the other side (X = {0, 5} on C6 has mask
    # 33, complement mask 30)
    rng = random.Random(59)
    graphs = [cycle(6)]
    for _ in range(3):
        n = rng.randint(5, 7)
        graphs.append(Graph(n, [e for e in itertools.combinations(range(n), 2)
                                if rng.random() < 0.5]))
    for g in graphs:
        ev = CutEvaluator(g)
        for mask in range(1 << g.n):
            xs = set_of(mask)
            b = cut_graph(g, xs)
            for sel in (PRIMAL, ALL_FAMILIES, *(FamilySelector.of(f) for f in FAMILY_ORDER)):
                value, witness = ev.value_of_mask(mask_of(xs), sel)
                assert validate_witness(b, witness), (g, xs, sel.name(), witness)
                assert len(witness.pairs) == value


def _capped_graphs():
    rng = random.Random(61)
    return [Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            for n, p in ((5, 0.5), (6, 0.3), (7, 0.6), (8, 0.4), (9, 0.5))]


def test_searches_return_the_reference_values_and_witnesses():
    # every cut of every graph, every family, caps 1-5 and uncapped: the
    # engine returns exactly the reference's (value, pairs); the evaluator
    # keys a cut by its smaller side mask and returns the search's pattern
    # at the cap as well
    for g in _capped_graphs():
        full = (1 << g.n) - 1
        for cap in (1, 2, 3, 4, 5, math.inf):
            ev = CutEvaluator(g)
            for mask in range(full + 1):
                b = cut_graph(g, set_of(mask))
                small = cut_graph(g, set_of(min(mask, full ^ mask)))
                for family in FAMILY_ORDER:
                    ref = reference_family_value(b, family, cap)
                    value, witness = family_value(b, family, cap)
                    assert (value, witness.pairs) == (ref[0], ref[1].pairs), (
                        g, mask, family, cap)
                    ref = reference_family_value(small, family, cap)
                    value, witness = ev.family_value_of_mask(mask, family, cap)
                    assert (value, witness.pairs) == (ref[0], ref[1].pairs), (
                        g, mask, family, cap)


def test_capped_family_value_is_exact_below_the_cap():
    # below the cap: the uncapped value and witness; at or above: the cap
    # itself, as a lower bound whose witness is still a pattern of the family
    for g in _capped_graphs():
        for mask in range(1 << g.n):
            b = cut_graph(g, set_of(mask))
            for family in FAMILY_ORDER:
                exact = family_value(b, family)
                assert exact[0] == generic_pattern_value(b, family)
                for cap in range(1, 6):
                    value, witness = family_value(b, family, cap)
                    if exact[0] < cap:
                        assert (value, witness) == exact, (g, mask, family, cap)
                    else:
                        assert value == cap and len(witness.pairs) == value
                        assert validate_witness(b, witness)


def test_a_search_stops_at_the_cap_only_by_raising_its_pattern():
    # each search, called directly (on the complement where the table says
    # so), returns the reference's uncapped pairs when its value is below
    # the cap, and otherwise raises _Capped with exactly ``cap`` pairs, the
    # reference's capped pairs: family_value is left to catch it
    for g in _capped_graphs():
        for mask in range(1 << g.n):
            b = cut_graph(g, set_of(mask))
            for family in FAMILY_ORDER:
                search, complemented = _SEARCHES[family]
                ref_search, _ = _REFERENCE_SEARCHES[family]
                cut = b.complement() if complemented else b
                exact = ref_search(cut, math.inf)
                for cap in range(1, 6):
                    if len(exact) < cap:
                        assert search(cut, cap) == exact, (g, mask, family, cap)
                        continue
                    with pytest.raises(EngineCapped) as capped:
                        search(cut, cap)
                    pairs = capped.value.args[0]
                    assert len(pairs) == cap and pairs == ref_search(cut, cap), (
                        g, mask, family, cap)


def _selectors():
    return [FamilySelector.of(f) for f in FAMILY_ORDER] + [PRIMAL, ALL_FAMILIES,
                                                          FamilySelector.parse("ntc")]


def test_value_below_bounds_then_exact_on_a_larger_cap():
    for g in _capped_graphs():
        for sel in _selectors():
            fresh = CutEvaluator(g)
            ev = CutEvaluator(g)
            for mask in range(1 << g.n):
                exact = fresh.value_of_mask(mask, sel)
                first = ev.value_of_mask(mask, sel, 2)
                if exact[0] < 2 or sel.ntc:  # below the cap: value and witness
                    assert first == exact
                else:  # at the cap: a pattern at least as large
                    assert first[0] == len(first[1].pairs) >= 2
                    assert validate_witness(cut_graph(g, set_of(mask)), first[1])
                # a pattern value is at most n / 2 < 6; ntc takes no cap
                assert ev.value_of_mask(mask, sel, 6) == exact
        # per family: a capped lookup is the exact answer or, at the cap, a
        # bound with the pattern that reached it; a later uncapped lookup is
        # the plain search's answer on the cut seen from its smaller side
        # mask, the evaluator's key
        ev = CutEvaluator(g)
        for mask in range(1 << g.n):
            b = cut_graph(g, set_of(min(mask, (1 << g.n) - 1 ^ mask)))
            for family in FAMILY_ORDER:
                exact = family_value(b, family)
                value, witness = ev.family_value_of_mask(mask, family, 2)
                assert ((value, witness) == exact
                        or exact[0] >= 2 and value == len(witness.pairs) == 2
                        and witness.family is family and validate_witness(b, witness))
                assert ev.family_value_of_mask(mask, family) == exact


def test_a_capped_pattern_lies_across_every_cut_that_separates_its_sides():
    # the subset DP raises the bound of every cut a found pattern crosses:
    # a capped result's witness has exactly ``value`` pairs, and it is a
    # pattern of its family on every cut with its x-vertices on one side
    # and its y-vertices on the other, whatever side the rest lie on
    for g in _capped_graphs():
        full = (1 << g.n) - 1
        witnesses = set()
        for cap in range(1, 6):
            ev = CutEvaluator(g)
            for mask in range(full + 1):
                for sel in _selectors()[:-1]:  # ntc takes no cap
                    value, witness = ev.value_of_mask(mask, sel, cap)
                    if value >= cap:
                        assert len(witness.pairs) == value
                        witnesses.add(witness)
                for family in FAMILY_ORDER:
                    value, witness = ev.family_value_of_mask(mask, family, cap)
                    if value >= cap:
                        assert len(witness.pairs) == value
                        witnesses.add(witness)
        assert witnesses
        for witness in witnesses:
            a = mask_of(x for x, _ in witness.pairs)
            free = full ^ a ^ mask_of(y for _, y in witness.pairs)
            for t in range(free + 1):
                if t & free == t:
                    assert validate_witness(cut_graph(g, set_of(a | t)), witness), (
                        g, witness, a | t)


def test_width_through_a_capped_evaluator_matches_a_fresh_one():
    rng = random.Random(67)
    for g in _capped_graphs():
        for sel in _selectors():
            ev = CutEvaluator(g)
            for mask in range(1 << g.n):
                ev.value_of_mask(mask, sel, rng.randint(1, 3))
            for _, bd in (exact_branchwidth_dp(g, sel, evaluator=ev), greedy_branchwidth(g, sel)):
                capped = decomposition_width(bd, g, sel, evaluator=ev)
                fresh = decomposition_width(bd, g, sel)
                assert capped.to_json_dict() == fresh.to_json_dict()
