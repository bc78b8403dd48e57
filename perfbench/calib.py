"""A fixed reference computation that tracks how fast the machine runs now.

On a shared host the same op can take 2x longer from one minute to the
next because neighbours load the caches and memory bus.  The benchmark
therefore times ``reference()`` (dict-based complex Cauchy products and
one FFT, the same kind of work as hatloop's kernels, but no hatloop code)
at short intervals and divides each op's time by the reference's current
slowdown ``slowness() = t_reference / REF_S``, where ``t_reference`` is
the fastest of three back-to-back runs (the minimum discards the runs an
interrupt or a neighbour's burst happened to hit).  Reported times read as
time on a machine where ``reference()`` takes ``REF_S``; a change to
hatloop cannot move the reference.
"""

from __future__ import annotations

import time

import numpy as np

# the unit of scaled time: a round figure between the fast (3.6 ms) and
# slow (6.6 ms) states seen for the fastest-of-three reference() on a
# shared 2-core x86-64 VM with Python 3.11 and numpy 2.4
REF_S = 0.005

_A = {n: complex(n, 1) for n in range(-80, 80)}
_B = {n: complex(1, n) for n in range(-80, 80)}
_X = np.exp(1j * np.arange(8192))


def reference():
    out = {}
    for n, c in _A.items():
        for m, d in _B.items():
            out[n + m] = out.get(n + m, 0) + c * d
    np.fft.fft(_X)
    return out


def slowness():
    """How many times longer than ``REF_S`` the reference takes now."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    return best / REF_S
