"""A fixed reference kernel that reads the host's current speed.

The bench runs on a few cores of a shared host whose speed steps by up to a
factor of two for seconds to minutes at a time, as other tenants come and
go.  The timed loop runs this kernel between its windows and scales each
window's times by ``scale``, so the end-to-end figures read as if the host
ran at one steady speed.

The kernel is the bench's own code, not the library's: a dense Bland
simplex over a fixed set of small LPs in numpy, a mix of interpreter work
and tiny array calls like the library's solvers.  A change to the library
cannot change it.
"""

import time

import numpy as np

# reference seconds of one ``seconds()`` call on a 2-vCPU Intel Xeon VM,
# Python 3.11.7, numpy 2.4.6, while the host ran at its usual (slower) speed
NOMINAL_S = 0.04
ROUNDS = 5
# The library's time moves as the kernel's time to about this power: when
# the host sped up, the kernel ran 1.8x faster but the library only
# 1.3-1.6x.  Fitted on logged traces, per point count, log instance time
# against log kernel time: 0.72 for build, 0.58 for kubota; 0.73 for decide
# from the means of the two speeds.
EXPONENT = 0.7

_RNG = np.random.default_rng(20260917)
_LPS = [(_RNG.uniform(0.1, 1.0, (8, 6)), np.ones(8), _RNG.uniform(0.1, 1.0, 6))
        for _ in range(24)]


def _simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """max c.x subject to a x <= b, x >= 0 (b >= 0), by Bland's rule."""
    m, n = a.shape
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[:m, n:n + m] = np.eye(m)
    t[:m, -1] = b
    t[m, :n] = -c
    basis = list(range(n, n + m))
    while True:
        cols = np.flatnonzero(t[m, :-1] < -1e-12)
        if cols.size == 0:
            return float(t[m, -1])
        j = int(cols[0])
        col = t[:m, j]
        _, _, r = min((t[i, -1] / col[i], basis[i], i) for i in range(m) if col[i] > 1e-12)
        t[r] /= t[r, j]
        for i in range(m + 1):
            if i != r and t[i, j] != 0.0:
                t[i] -= t[i, j] * t[r]
        basis[r] = j


def seconds() -> float:
    """Wall time of one pass of the kernel."""
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        for a, b, c in _LPS:
            _simplex(a, b, c)
    return time.perf_counter() - t0


def scale(before_s: float, after_s: float) -> float:
    """Factor that takes library times measured between two kernel passes
    to the host speed at which one pass takes ``NOMINAL_S``."""
    return (NOMINAL_S / (0.5 * (before_s + after_s))) ** EXPONENT
