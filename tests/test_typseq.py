import functools
import itertools
import math
import random

import pytest

from fbranch.errors import ValidationError
from fbranch.typseq import (
    BOTTOM,
    INTERLEAVE_MAX_LENGTH,
    enumerate_typical,
    format_sequence,
    interleave,
    is_typical,
    parse_sequence,
    shift,
    typical_of,
)


def brute_force_typical(s):
    """Independent oracle: breadth-first closure under single operations;
    the fixpoint (a sequence admitting no operation) must be unique."""
    def single_steps(seq):
        for i in range(len(seq) - 1):
            if seq[i] == seq[i + 1]:
                yield seq[:i] + seq[i + 1:]
        for i in range(len(seq)):
            for j in range(i + 2, len(seq)):
                win = seq[i:j + 1]
                if all(seq[i] <= x <= seq[j] for x in win) or all(seq[i] >= x >= seq[j] for x in win):
                    yield seq[:i + 1] + seq[j:]

    frontier = {tuple(s)}
    fixpoints = set()
    seen = set(frontier)
    while frontier:
        nxt = set()
        for seq in frontier:
            steps = list(single_steps(seq))
            if not steps:
                fixpoints.add(seq)
            for t in steps:
                if t not in seen:
                    seen.add(t)
                    nxt.add(t)
        frontier = nxt
    assert len(fixpoints) == 1
    return fixpoints.pop()


def reference_typical_of(s):
    """Reference compressor by rescanning: remove repeats, apply the first
    window operation found, and start over until neither applies."""
    cur = list(s)
    if not cur:
        raise ValueError("sequences must be nonempty")
    changed = True
    while changed:
        changed = False
        # remove consecutive repetitions in one sweep
        dedup = [cur[0]]
        for e in cur[1:]:
            if e != dedup[-1]:
                dedup.append(e)
        if len(dedup) != len(cur):
            changed = True
        cur = dedup
        # one application of the window operation, then rescan
        n = len(cur)
        done = False
        for i in range(n):
            if done:
                break
            for j in range(i + 2, n):
                window = cur[i:j + 1]
                lo, hi = cur[i], cur[j]
                if all(lo <= x <= hi for x in window) or all(lo >= x >= hi for x in window):
                    cur = cur[:i + 1] + cur[j:]
                    changed = True
                    done = True
                    break
    return tuple(cur)


def reference_enumerate_typical(k):
    """Depth-first extension over {0..k}, keeping an extension when the
    reference compressor leaves it as it is (every prefix of a typical
    sequence is typical), sorted as ``enumerate_typical`` sorts."""
    out = []

    def walk(prefix):
        if prefix:
            out.append(prefix)
        for v in range(k + 1):
            ext = prefix + (v,)
            if reference_typical_of(ext) == ext:
                walk(ext)

    walk(())
    return sorted(out, key=lambda t: (len(t), t))


def reference_interleave(s, t):
    """The results of the stutter-free walks through the index grid, from
    each walk prefix compressed by the reference (the concat law lets a
    walk continue from its compressed prefix, so equal states are shared)."""
    @functools.cache
    def results(i, j, before):
        cur = reference_typical_of(before + (s[i] + t[j],))
        out = set()
        if i == len(s) - 1 and j == len(t) - 1:
            out.add(cur)
        if i + 1 < len(s):
            out |= results(i + 1, j, cur)
        if j + 1 < len(t):
            out |= results(i, j + 1, cur)
        if i + 1 < len(s) and j + 1 < len(t):
            out |= results(i + 1, j + 1, cur)
        return frozenset(out)

    return set(results(0, 0, ()))


def test_typical_matches_reference_on_every_short_sequence():
    count = 0
    for ln in range(1, 9):
        for s in itertools.product(range(4), repeat=ln):
            assert typical_of(s) == reference_typical_of(s), s
            count += 1
    assert count == 87380


def test_typical_matches_reference_with_bottom():
    rng = random.Random(31)
    alphabet = (0, 1, 2, 3, 4, 5, BOTTOM)
    for _ in range(5000):
        s = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 14)))
        assert typical_of(s) == reference_typical_of(s), s
    with pytest.raises(ValueError):
        typical_of(())


def test_enumerate_typical_matches_reference():
    for k in range(0, 7):
        assert enumerate_typical(k) == reference_enumerate_typical(k)


def test_interleave_matches_reference():
    rng = random.Random(37)
    pool = [q for q in reference_enumerate_typical(4) if len(q) <= 8]
    eights = [q for q in pool if len(q) == 8]
    pairs = [(rng.choice(eights), rng.choice(eights)) for _ in range(3)]
    pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(40)]
    # typicality depends only on the order of the entries, so mapping the
    # largest entry to BOTTOM keeps a sequence typical
    pairs = [(s, tuple(BOTTOM if e == 4 else e for e in t)) if n % 2 else (s, t)
             for n, (s, t) in enumerate(pairs)]
    pairs.append(((0, 9, 1, 8, 2, 7, 3, 6), (9, 0, 8, 1, 7, 2, 6, 3)))
    for s, t in pairs:
        assert interleave(s, t) == reference_interleave(s, t), (s, t)


def test_typical_examples():
    assert typical_of((3, 3, 3)) == (3,)
    assert typical_of((1, 2, 3)) == (1, 3)
    # frozen from the exhaustive-closure oracle; note the full window
    # (1,...,3) bounds the interior, so everything between collapses
    assert brute_force_typical((1, 1, 2, 2, 1, 3)) == (1, 3)
    assert typical_of((1, 1, 2, 2, 1, 3)) == (1, 3)


def test_typical_matches_oracle_on_random_sequences():
    rng = random.Random(23)
    for _ in range(300):
        s = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 7)))
        assert typical_of(s) == brute_force_typical(s)


def test_typical_idempotent_and_bounds():
    rng = random.Random(5)
    for _ in range(500):
        s = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 12)))
        t = typical_of(s)
        assert typical_of(t) == t
        assert min(t) == min(s) and max(t) == max(s)
        assert len(t) <= len(s)


def test_typical_concat_law():
    rng = random.Random(6)
    for _ in range(300):
        a = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 6)))
        b = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 6)))
        assert typical_of(a + b) == typical_of(typical_of(a) + typical_of(b))


def test_shift():
    assert shift((0, 1), 2) == (2, 3)
    assert shift((4, 2), 0) == (4, 2)
    rng = random.Random(7)
    for _ in range(1000):
        s = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 10)))
        z = rng.randint(0, 4)
        assert typical_of(shift(s, z)) == shift(typical_of(s), z)


def test_enumerate_typical_k1():
    assert enumerate_typical(1) == [(0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1)]


def test_enumerate_typical_against_brute_force():
    for k in range(0, 3):
        max_len = 2 * k + 1
        brute = set()
        for ln in range(1, max_len + 2):  # one beyond the bound, must add nothing
            for seq in itertools.product(range(k + 1), repeat=ln):
                if is_typical(seq):
                    assert len(seq) <= max_len
                    brute.add(seq)
        assert set(enumerate_typical(k)) == brute


def test_enumerate_typical_bounds():
    for k in range(0, 5):
        seqs = enumerate_typical(k)
        assert all(len(s) <= 2 * k + 1 for s in seqs)
        assert len(seqs) <= math.ceil(8 / 3 * 2 ** (2 * k))
        assert len(set(seqs)) == len(seqs)


def extensions(s, length):
    """All sequences obtained from s by repeating each entry at least once,
    with total length exactly ``length``."""
    m = len(s)
    if length < m:
        return
    # compositions of `length` into m positive parts via cut points
    for cuts in itertools.combinations(range(1, length), m - 1):
        bounds = (0,) + cuts + (length,)
        out = []
        for idx in range(m):
            out.extend([s[idx]] * (bounds[idx + 1] - bounds[idx]))
        yield tuple(out)


def test_extensions():
    assert set(extensions((1, 2), 3)) == {(1, 1, 2), (1, 2, 2)}
    assert list(extensions((5,), 4)) == [(5, 5, 5, 5)]
    assert list(extensions((1, 2, 3), 2)) == []


def brute_force_interleave(s, t, cap):
    """Literal definition: equal-length extension pairs up to the cap."""
    out = set()
    for ln in range(max(len(s), len(t)), cap + 1):
        for se in extensions(s, ln):
            for te in extensions(t, ln):
                out.add(typical_of(tuple(a + b for a, b in zip(se, te))))
    return out


def test_interleave_examples():
    assert interleave((1,), (2,)) == {(3,)}
    assert interleave((0, 2), (1,)) == {(1, 3)}


def test_interleave_commutative():
    rng = random.Random(9)
    for _ in range(50):
        s = typical_of(tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 5))))
        t = typical_of(tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 5))))
        assert interleave(s, t) == interleave(t, s)


def test_interleave_matches_literal_definition():
    rng = random.Random(10)
    for _ in range(40):
        s = typical_of(tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))
        t = typical_of(tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))
        cap = len(s) + len(t)
        assert interleave(s, t) == brute_force_interleave(s, t, cap)
        # doubling the literal cap must not add results either
        assert interleave(s, t) == brute_force_interleave(s, t, 2 * cap)


def test_interleave_requires_typical():
    with pytest.raises(ValueError):
        interleave((1, 1), (2,))


def test_interleave_length_limit():
    zigzag = tuple(x for i in range(8) for x in (i, 40 - i))  # 0,40,1,39,...
    assert is_typical(zigzag) and len(zigzag) == INTERLEAVE_MAX_LENGTH == 16
    s = zigzag[:INTERLEAVE_MAX_LENGTH - 1]
    assert interleave(s, (0,)) == {s}  # one walk: at the limit, admitted
    with pytest.raises(ValidationError, match="16"):
        interleave(s, (0, 1))
    with pytest.raises(ValidationError):
        interleave(zigzag[:9], zigzag[:9])


def test_bottom_absorbs():
    assert shift((BOTTOM, 1), 3) == (BOTTOM, 4)
    assert BOTTOM > 10 ** 9
    assert interleave((BOTTOM,), (0, 1)) == {(BOTTOM,)}
    assert interleave((BOTTOM,), (BOTTOM,)) == {(BOTTOM,)}


def test_format_parse():
    assert format_sequence((1, 2, 3)) == "1,2,3"
    assert format_sequence((BOTTOM,)) == "_|_"
    assert parse_sequence("1, 2,3") == (1, 2, 3)
    assert parse_sequence("_|_,0") == (BOTTOM, 0)


def test_enumerate_typical_limit():
    with pytest.raises(ValueError):
        enumerate_typical(7)
    with pytest.raises(ValueError):
        enumerate_typical(-1)
