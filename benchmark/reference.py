"""Fixed reference kernel that tracks how fast the machine runs right now.

Shared small machines change speed by tens of percent over seconds to
minutes (neighbours on the host, frequency changes), and a plain wall-clock
median moves with them. The benchmark times this kernel just before and just
after every timed op and rescales the op's time by ``NOMINAL_S`` over the
mean kernel time: the result is the op's time on a machine where one kernel
run takes ``NOMINAL_S``. On a 2-vCPU Xeon VM this cut the spread between
repeated windows of static-solve ops from 7-16% to 3-7% for the median and
the tail, and from 7-11% to 1-2% for their sum.

The kernel mixes what the library spends its time on: frozenset building,
Python loops and bit tests, fancy indexing and small Cholesky factors. It
uses no knapgreedy code, so a faster library does not speed it up. Do not
change it, REPEATS or NOMINAL_S once results have been recorded with them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.0025
REPEATS = 4
_SIZE = 48
_rng = np.random.default_rng(20191115)
_A = _rng.normal(size=(_SIZE, _SIZE))
_M = _A @ _A.T / _SIZE + np.eye(_SIZE)


def kernel():
    acc = 0.0
    chosen = []
    for i in range(_SIZE):
        chosen.append(i)
        S = frozenset(chosen)
        idx = sorted(S)
        L = np.linalg.cholesky(_M[np.ix_(idx, idx)])
        acc += float(np.sum(np.log(np.diag(L))))
        acc += sum(1 for mask in range(64) if mask >> (i % 6) & 1 and mask in S)
    return acc


def kernel_time():
    """Seconds per kernel run, over REPEATS back-to-back runs (about 10 ms,
    long enough to average out the kernel's own noise)."""
    t0 = perf_counter()
    for _ in range(REPEATS):
        kernel()
    return (perf_counter() - t0) / REPEATS


def at_reference_speed(seconds, before, after):
    """Rescale a measured time by the kernel times taken around it."""
    return seconds * NOMINAL_S / ((before + after) / 2)
