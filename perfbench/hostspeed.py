"""The host's speed during a run, and times scaled to a reference speed.

The speed of a small shared virtual machine moves by up to a factor of
two, in swings of a fraction of a second and in stretches of minutes
(another tenant's load on the same cores), and process CPU time moves
with it.  The fast swings average out over a run's many ops; the slow
stretches move whole runs.  So the benchmark times a fixed pure-Python
reference loop just before and just after every timed call, and scales
the run's timed figures by the run's mean loop time:

    scaled = wall * REF_LOOP_S / mean(loop times of the run)

that is, to a host on which the loop takes ``REF_LOOP_S``.  A change in
fbranch moves the scaled figure as it moves the wall time; a slow stretch
of the host moves the ops and the loops alike.  The loop is benchmark
code and does what fbranch's hot paths do (integer bit operations, small
calls, lookups and stores in a large value table, small-set
intersections).  The mean over the whole run, rather than the loops next
to each op, is used because the fast swings make a loop next to a long
op a poor sample of the speed during it.
"""

from __future__ import annotations

import statistics
import time

REF_LOOP_S = 0.002  # one reference loop at the reference speed
LOOP_ITERATIONS = 2000
LOOP_TRIES = 3  # the fastest of three, so one interruption does not count

# a working set the size of fbranch's larger tables (a 2^15-entry value
# table, small vertex sets): a loop that only touches a few cache lines
# tracked the DP solves but missed part of the slowdown of kernelize on
# 600-vertex graphs, and a loop over this table alone did the opposite
_TABLE_SIZE = 1 << 15
_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(_TABLE_SIZE)}
_SETS = [frozenset((i * 7 + j * 13) % 64 for j in range(8)) for i in range(1024)]


def _step(a: int, b: int) -> int:
    return (a ^ (b << 1)) & 0xFFFF


def _loop() -> int:
    x, acc, small = 1, 0, {}
    for i in range(LOOP_ITERATIONS):
        acc = _step(acc + i, i)
        small[acc & 255] = (acc >> 3) | (i & 7)
        x = (x * 1103515245 + 12345) & (_TABLE_SIZE - 1)
        acc ^= _TABLE[x]
        _TABLE[x] = (acc + i) & 0xFFFF
        acc += len(_SETS[x & 1023] & _SETS[acc & 1023])
    return acc + len(small)


def loop_time() -> float:
    """Wall time of one reference loop at the host's current speed."""
    best = float("inf")
    for _ in range(LOOP_TRIES):
        t0 = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(loop_times: list[float]) -> float:
    """What wall times of the run are multiplied by to scale them."""
    return REF_LOOP_S / statistics.fmean(loop_times)
