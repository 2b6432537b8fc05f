"""Compressed sequences of naturals: tau, enumeration, and interleaving.

A sequence is compressed by exhaustively (1) removing consecutive
repetitions and (2) deleting every entry strictly between positions i and j
whenever all entries of the window [i, j] lie between s_i and s_j (weakly
monotone bound in either direction).  The fixpoint is unique; sequences
equal to their own compression are called typical.

Compression runs online, one entry at a time (``_kept``).  By uniqueness
of the fixpoint, tau(s + [x]) = tau(tau(s) + [x]), and on a typical t the
only operations x can enable are the ones ending at x: a repeat of t[-1],
or a window t[i..] + [x] bounded by t[i] and x.  Deleting the interior of
the longest such window leaves t[:i + 1] + [x], which admits no further
operation (a window ending there would extend to a longer one in t + [x]),
so it is the fixpoint.  Typical prefixes, enumeration and the interleaving
walk all extend by this one step.

A bottom marker is representable as ``BOTTOM`` (infinity): it absorbs
sums and compares greater than every natural.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import ValidationError, comma_list

BOTTOM = math.inf
INTERLEAVE_MAX_LENGTH = 16  # len(s) + len(t); the walks grow like Delannoy numbers

Entry = float  # naturals plus BOTTOM
Seq = tuple


def to_sequence(entries: Iterable[Entry]) -> Seq:
    out = tuple(entries)
    if not out:
        raise ValueError("sequences must be nonempty")
    for e in out:
        if e != BOTTOM and (not isinstance(e, int) or e < 0):
            raise ValueError(f"entries must be naturals or BOTTOM, got {e!r}")
    return out


def _kept(t: list[Entry], x: Entry) -> int:
    """For a typical t, the k with tau(t + [x]) == t[:k] + [x].

    One backward scan over the windows t[i..] + [x], keeping the min and
    max of their interiors t[i + 1..]; the smallest i whose interior lies
    between t[i] and x wins.  Once the interior has entries strictly on
    both sides of x, no earlier t[i] can bound it, so the scan stops.
    """
    k = len(t)
    if not k:
        return 0
    lo = hi = t[-1]
    if lo == x:
        return k - 1  # a repeat: t[:-1] + [x] is t
    for i in range(k - 2, -1, -1):
        a = t[i]
        if (a <= lo and hi <= x) or (x <= lo and hi <= a):
            k = i + 1
        if a < lo:
            lo = a
        elif a > hi:
            hi = a
        if lo < x < hi:
            break
    return k


def typical_of(s: Sequence[Entry]) -> Seq:
    """The unique fixpoint of exhaustively applying both operations,
    built in one pass: each entry is appended to the compression of the
    entries before it (``_kept``)."""
    out: list[Entry] = []
    for x in s:
        del out[_kept(out, x):]
        out.append(x)
    if not out:
        raise ValueError("sequences must be nonempty")
    return tuple(out)


def is_typical(s: Sequence[Entry]) -> bool:
    return tuple(s) == typical_of(s)


def shift(s: Sequence[Entry], z: Entry) -> Seq:
    """Entrywise sum with a constant; BOTTOM absorbs."""
    return tuple(e + z for e in s)


def enumerate_typical(k: int) -> list[Seq]:
    """All typical sequences with entries in {0..k}, sorted by (length,
    entries).

    Generated by depth-first extension: every prefix of a typical sequence
    is typical, so an extension is kept only when compressing it keeps
    the whole prefix.  The search terminates on its own; a defensive cap of
    4k + 5 raises if generation runs past roughly twice the expected
    maximum length.
    """
    if k < 0:
        raise ValidationError("k must be nonnegative")
    if k > 6:
        raise ValidationError("enumeration limited to k <= 6")
    cap = 4 * k + 5
    out: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def walk():
        if len(prefix) > cap:
            raise RuntimeError("typical-sequence generation exceeded the defensive cap")
        if prefix:
            out.append(tuple(prefix))
        for v in range(k + 1):
            if _kept(prefix, v) == len(prefix):
                prefix.append(v)
                walk()
                prefix.pop()

    walk()
    out.sort(key=lambda t: (len(t), t))
    return out


def interleave(s: Sequence[Entry], t: Sequence[Entry]) -> set[Seq]:
    """The set of compressions of entrywise sums over equal-length
    extension pairs of s and t.

    Equal-length extension pairs correspond to monotone walks through the
    index grid with steps (1,0), (0,1), (1,1) and stays (0,0); stays only
    stutter the sum sequence and never change its compression, so the
    stutter-free walks (at most len(s) + len(t) - 1 positions) realize
    every result.  Longer extensions add nothing, which the test suite
    verifies against the literal extension enumeration.

    The walk keeps the compression of its sums so far as a stack: each
    step compresses one more sum onto it (``_kept``) and puts the deleted
    tail back when it returns, so a leaf holds its result as it stands.
    """
    s = tuple(s)
    t = tuple(t)
    if not is_typical(s) or not is_typical(t):
        raise ValueError("interleaving is defined on typical sequences")
    m, n = len(s), len(t)
    if m + n > INTERLEAVE_MAX_LENGTH:
        raise ValidationError(
            f"interleaving limited to {INTERLEAVE_MAX_LENGTH} entries in all, got {m + n}")
    out: set[Seq] = set()
    path: list[Entry] = []

    def walk(i: int, j: int):
        x = s[i] + t[j]
        k = _kept(path, x)
        tail = path[k:]
        path[k:] = [x]
        if i == m - 1 and j == n - 1:
            out.add(tuple(path))
        if i + 1 < m:
            walk(i + 1, j)
        if j + 1 < n:
            walk(i, j + 1)
        if i + 1 < m and j + 1 < n:
            walk(i + 1, j + 1)
        path[k:] = tail

    walk(0, 0)
    return out


def format_sequence(s: Sequence[Entry]) -> str:
    return ",".join("_|_" if e == BOTTOM else str(int(e)) for e in s)


def parse_sequence(text: str) -> Seq:
    return comma_list(text, "sequence",
                      lambda ps: to_sequence(BOTTOM if p == "_|_" else int(p) for p in ps))
